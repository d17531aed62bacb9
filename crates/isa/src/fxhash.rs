//! FxHash (the rustc hasher), for maps keyed by data this program makes
//! itself: the MiniC identifier table and the simulator's branch tally.
//! Neither key set crosses a trust boundary, so SipHash's collision
//! resistance buys nothing there and costs a few times more per lookup.

use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// Builds [`FxHasher`]s: `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}
