//! Guest physical memory with per-page access permissions.
//!
//! A flat address space starting at 0, divided into 4 KiB pages, each with
//! independent read/write/execute permissions. Execute permission is the
//! mechanism behind the paper's category-F detection ("jumps to memory
//! regions that do not contain code can be detected by the hardware", §2 —
//! the execute-disable bit); revoking write permission on translated guest
//! pages is how the DBT learns about self-modifying code (§5).

use crate::Trap;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Per-thread recycling pool for address-space buffers. Allocating (and
/// zeroing) a fresh multi-MiB `Vec` per [`Memory::new`] dominates the cost
/// of restoring a machine snapshot, so dropped address spaces scrub just
/// the pages they ever wrote (write generation above zero) and park the
/// buffer here for the next `Memory::new` of the same size.
const BUFFER_POOL_CAP: usize = 4;

thread_local! {
    static BUFFER_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Page access permissions (read / write / execute).
///
/// # Examples
///
/// ```
/// use cfed_sim::Perms;
///
/// let rx = Perms::R | Perms::X;
/// assert!(rx.can_exec() && !rx.can_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms(u8);

impl Perms {
    /// No access.
    pub const NONE: Perms = Perms(0);
    /// Readable.
    pub const R: Perms = Perms(1);
    /// Writable.
    pub const W: Perms = Perms(2);
    /// Executable.
    pub const X: Perms = Perms(4);
    /// Read + write (data pages).
    pub const RW: Perms = Perms(3);
    /// Read + execute (protected code pages).
    pub const RX: Perms = Perms(5);
    /// Read + write + execute (unprotected guest code).
    pub const RWX: Perms = Perms(7);

    /// Whether reads are allowed.
    pub fn can_read(self) -> bool {
        self.0 & 1 != 0
    }
    /// Whether writes are allowed.
    pub fn can_write(self) -> bool {
        self.0 & 2 != 0
    }
    /// Whether instruction fetch is allowed.
    pub fn can_exec(self) -> bool {
        self.0 & 4 != 0
    }

    /// Returns these permissions with write access removed (the DBT's
    /// code-page protection).
    pub fn without_write(self) -> Perms {
        Perms(self.0 & !2)
    }

    /// Returns these permissions with write access added.
    pub fn with_write(self) -> Perms {
        Perms(self.0 | 2)
    }
}

impl std::ops::BitOr for Perms {
    type Output = Perms;
    fn bitor(self, rhs: Perms) -> Perms {
        Perms(self.0 | rhs.0)
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.can_read() { 'r' } else { '-' },
            if self.can_write() { 'w' } else { '-' },
            if self.can_exec() { 'x' } else { '-' }
        )
    }
}

/// Raw pointers into a [`Memory`]'s backing storage (see
/// [`Memory::raw_parts`]).
pub struct RawMemParts {
    /// The flat byte array, `pages * PAGE_SIZE` long.
    pub bytes: *mut u8,
    /// One [`Perms`] byte per page (R = 1, W = 2, X = 4).
    pub page_perms: *const u8,
    /// The dirty-page bitmap (bit *i* = page *i*).
    pub dirty: *mut u64,
    /// Per-page write-generation counters.
    pub page_gens: *mut u64,
    /// Number of pages.
    pub pages: u64,
}

/// The guest address space.
///
/// # Examples
///
/// ```
/// use cfed_sim::{Memory, Perms};
///
/// let mut mem = Memory::new(1 << 20);
/// mem.map(0x1000..0x3000, Perms::RW);
/// mem.write_u64(0x1000, 42).unwrap();
/// assert_eq!(mem.read_u64(0x1000).unwrap(), 42);
/// assert!(mem.fetch(0x1000).is_err()); // not executable
/// ```
#[derive(Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    page_perms: Vec<Perms>,
    /// One bit per page, set on every byte store since the last
    /// [`Memory::drain_dirty`]. Bookkeeping only — never affects execution.
    dirty: Vec<u64>,
    /// Per-page write-generation counters, bumped on every store (including
    /// loader-level [`Memory::install`]). Consumers that cache derived views
    /// of page contents — the decoded instruction cache — revalidate by
    /// comparing a remembered generation against the current one, so a page
    /// write cheaply invalidates only that page's cached lines. Unlike the
    /// dirty bitmap this is never drained, so any number of observers can
    /// watch it independently.
    page_gens: Vec<u64>,
}

impl Drop for Memory {
    fn drop(&mut self) {
        // Recycle the buffer: an all-zero address space is semantically
        // identical to a fresh allocation, and scrubbing just the written
        // pages is far cheaper than zeroing (or re-allocating) the whole
        // space. A page never written (generation zero) is still zero.
        if self.bytes.is_empty() {
            return;
        }
        let mut bytes = std::mem::take(&mut self.bytes);
        let gens = std::mem::take(&mut self.page_gens);
        // `try_with`: never panic if the thread-local was already torn down.
        let _ = BUFFER_POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() >= BUFFER_POOL_CAP {
                return;
            }
            let page = PAGE_SIZE as usize;
            for (i, _) in gens.iter().enumerate().filter(|(_, &gen)| gen > 0) {
                bytes[i * page..(i + 1) * page].fill(0);
            }
            pool.push(bytes);
        });
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("size", &self.bytes.len())
            .field("pages", &self.page_perms.len())
            .finish()
    }
}

impl Memory {
    /// Creates an address space of `size` bytes (rounded up to a whole number
    /// of pages), with no access permissions anywhere.
    pub fn new(size: u64) -> Memory {
        let pages = size.div_ceil(PAGE_SIZE);
        let size = pages * PAGE_SIZE;
        let bytes = BUFFER_POOL
            .with(|p| {
                let mut pool = p.borrow_mut();
                let i = pool.iter().position(|b| b.len() == size as usize)?;
                Some(pool.swap_remove(i))
            })
            .unwrap_or_else(|| vec![0; size as usize]);
        Memory {
            bytes,
            page_perms: vec![Perms::NONE; pages as usize],
            dirty: vec![0; (pages as usize).div_ceil(64)],
            page_gens: vec![0; pages as usize],
        }
    }

    fn mark_dirty(&mut self, addr: u64, len: u64) {
        let first = (addr / PAGE_SIZE) as usize;
        let last = ((addr + len - 1) / PAGE_SIZE) as usize;
        for p in first..=last {
            self.dirty[p / 64] |= 1 << (p % 64);
            self.page_gens[p] += 1;
        }
    }

    /// Number of pages in the address space.
    pub fn page_count(&self) -> usize {
        self.page_perms.len()
    }

    /// Write-generation counter of page `page` (zero for out-of-range
    /// indices). Increases monotonically on every store touching the page;
    /// see the field docs on `page_gens`.
    pub fn page_gen(&self, page: usize) -> u64 {
        self.page_gens.get(page).copied().unwrap_or(0)
    }

    /// Total size of the address space in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn page_of(&self, addr: u64) -> Option<usize> {
        let idx = (addr / PAGE_SIZE) as usize;
        (idx < self.page_perms.len()).then_some(idx)
    }

    /// Sets the permissions of every page overlapping `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the address space.
    pub fn map(&mut self, range: Range<u64>, perms: Perms) {
        assert!(range.end <= self.size(), "map range beyond address space");
        let first = range.start / PAGE_SIZE;
        let last = range.end.div_ceil(PAGE_SIZE);
        for p in first..last {
            self.page_perms[p as usize] = perms;
        }
    }

    /// Raw constituents of the address space, for JIT fast paths that
    /// reproduce [`Memory::read_u64`]/[`Memory::write_u64`]'s in-page
    /// check, permission test and dirty/generation bookkeeping in emitted
    /// code. The pointers stay valid (and stable) for the lifetime of the
    /// `Memory`: none of the backing vectors ever reallocate after
    /// construction. `page_perms` points at one byte per page holding the
    /// [`Perms`] bits (R = 1, W = 2, X = 4); `dirty` is the page bitmap
    /// (bit *i* = page *i*); `page_gens` is one `u64` counter per page.
    /// Writes taken through the fast path must set the dirty bit and bump
    /// the generation exactly as the slow path does.
    pub fn raw_parts(&mut self) -> RawMemParts {
        RawMemParts {
            bytes: self.bytes.as_mut_ptr(),
            page_perms: self.page_perms.as_ptr() as *const u8,
            dirty: self.dirty.as_mut_ptr(),
            page_gens: self.page_gens.as_mut_ptr(),
            pages: self.page_perms.len() as u64,
        }
    }

    /// Permissions of the page containing `addr`, or `NONE` if out of range.
    pub fn perms_at(&self, addr: u64) -> Perms {
        self.page_of(addr).map_or(Perms::NONE, |p| self.page_perms[p])
    }

    /// Returns `true` when `addr` lies in an executable page — the
    /// classifier's notion of "code region" for category F.
    pub fn is_code(&self, addr: u64) -> bool {
        self.perms_at(addr).can_exec()
    }

    /// Removes write permission from the page containing `addr`, returning
    /// the old permissions (DBT code-page protection for SMC detection).
    pub fn protect_page(&mut self, addr: u64) -> Perms {
        let p = self.page_of(addr).expect("protect_page out of range");
        let old = self.page_perms[p];
        self.page_perms[p] = old.without_write();
        old
    }

    /// Restores write permission on the page containing `addr`.
    pub fn unprotect_page(&mut self, addr: u64) {
        let p = self.page_of(addr).expect("unprotect_page out of range");
        self.page_perms[p] = self.page_perms[p].with_write();
    }

    /// The base address of the page containing `addr`.
    pub fn page_base(addr: u64) -> u64 {
        addr & !(PAGE_SIZE - 1)
    }

    fn check(&self, addr: u64, len: u64, kind: Access) -> Result<(), Trap> {
        let end = addr.checked_add(len).ok_or(Trap::OutOfRange { addr })?;
        if end > self.size() {
            return Err(Trap::OutOfRange { addr });
        }
        // Accesses are small (≤ 8 bytes) and never straddle more than two
        // pages; check each page touched.
        let mut page_addr = addr;
        loop {
            let perms = self.perms_at(page_addr);
            let ok = match kind {
                Access::Read => perms.can_read(),
                Access::Write => perms.can_write(),
                Access::Exec => perms.can_exec(),
            };
            if !ok {
                return Err(match kind {
                    Access::Read => Trap::PermRead { addr },
                    Access::Write => Trap::PermWrite { addr },
                    Access::Exec => Trap::PermExec { addr },
                });
            }
            let next = Memory::page_base(page_addr) + PAGE_SIZE;
            if next >= end {
                return Ok(());
            }
            page_addr = next;
        }
    }

    /// Page index of an access that provably stays within one in-range
    /// page, or `None` when the general (slow) checks must run. A `Some`
    /// index also proves `addr + len <= self.size()`, since the byte array
    /// is exactly `page_count * PAGE_SIZE` long.
    #[inline]
    fn in_page(&self, addr: u64, len: u64) -> Option<usize> {
        let pi = (addr / PAGE_SIZE) as usize;
        ((addr & (PAGE_SIZE - 1)) + len <= PAGE_SIZE && pi < self.page_perms.len()).then_some(pi)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Trap::PermRead`] / [`Trap::OutOfRange`] on access violations.
    #[inline(always)]
    pub fn read_u64(&self, addr: u64) -> Result<u64, Trap> {
        if let Some(pi) = self.in_page(addr, 8) {
            if !self.page_perms[pi].can_read() {
                return Err(Trap::PermRead { addr });
            }
        } else {
            self.check(addr, 8, Access::Read)?;
        }
        let a = addr as usize;
        Ok(u64::from_le_bytes(self.bytes[a..a + 8].try_into().expect("checked")))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Trap::PermWrite`] / [`Trap::OutOfRange`] on access violations.
    #[inline(always)]
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), Trap> {
        if let Some(pi) = self.in_page(addr, 8) {
            if !self.page_perms[pi].can_write() {
                return Err(Trap::PermWrite { addr });
            }
            self.dirty[pi / 64] |= 1 << (pi % 64);
            self.page_gens[pi] += 1;
        } else {
            self.check(addr, 8, Access::Write)?;
            self.mark_dirty(addr, 8);
        }
        let a = addr as usize;
        self.bytes[a..a + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`Trap::PermRead`] / [`Trap::OutOfRange`] on access violations.
    #[inline(always)]
    pub fn read_u8(&self, addr: u64) -> Result<u8, Trap> {
        if let Some(pi) = self.in_page(addr, 1) {
            if !self.page_perms[pi].can_read() {
                return Err(Trap::PermRead { addr });
            }
        } else {
            self.check(addr, 1, Access::Read)?;
        }
        Ok(self.bytes[addr as usize])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`Trap::PermWrite`] / [`Trap::OutOfRange`] on access violations.
    #[inline(always)]
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), Trap> {
        if let Some(pi) = self.in_page(addr, 1) {
            if !self.page_perms[pi].can_write() {
                return Err(Trap::PermWrite { addr });
            }
            self.dirty[pi / 64] |= 1 << (pi % 64);
            self.page_gens[pi] += 1;
        } else {
            self.check(addr, 1, Access::Write)?;
            self.mark_dirty(addr, 1);
        }
        self.bytes[addr as usize] = value;
        Ok(())
    }

    /// Fetches the 8 instruction bytes at `addr`, enforcing execute
    /// permission and instruction alignment.
    ///
    /// # Errors
    ///
    /// [`Trap::UnalignedFetch`] for misaligned addresses (a control-flow
    /// error landed mid-instruction), [`Trap::PermExec`] for non-code pages
    /// (category F), [`Trap::OutOfRange`] outside the address space.
    pub fn fetch(&self, addr: u64) -> Result<[u8; 8], Trap> {
        if !addr.is_multiple_of(cfed_isa::INST_SIZE_U64) {
            return Err(Trap::UnalignedFetch { addr });
        }
        self.check(addr, 8, Access::Exec)?;
        let a = addr as usize;
        Ok(self.bytes[a..a + 8].try_into().expect("checked"))
    }

    /// Copies `data` into memory at `addr`, ignoring page permissions
    /// (loader-level access).
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn install(&mut self, addr: u64, data: &[u8]) {
        if !data.is_empty() {
            self.mark_dirty(addr, data.len() as u64);
        }
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes starting at `addr`, ignoring page permissions
    /// (debugger-level access).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn peek(&self, addr: u64, len: usize) -> &[u8] {
        &self.bytes[addr as usize..addr as usize + len]
    }

    /// Pages whose contents are not all zero, as `(page base, contents)`
    /// pairs in ascending address order. A fresh address space is
    /// all-zero, so this is the complete delta needed to reconstruct the
    /// byte contents — the basis of compact machine snapshots.
    pub fn nonzero_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.bytes
            .chunks_exact(PAGE_SIZE as usize)
            .enumerate()
            .filter(|(_, page)| page.iter().any(|&b| b != 0))
            .map(|(i, page)| (i as u64 * PAGE_SIZE, page))
    }

    /// Base addresses of the pages written since the last drain (every
    /// page is considered written at creation-to-first-drain only if a
    /// store touched it — a fresh address space starts all-clean as well
    /// as all-zero). Clears the dirty set.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let out = self.dirty_pages();
        self.clear_dirty();
        out
    }

    /// As [`Memory::drain_dirty`], but without clearing the dirty set —
    /// for observers that need "every page written so far" while a
    /// supervisor keeps its own drain cadence (or none at all).
    pub fn dirty_pages(&self) -> Vec<u64> {
        self.dirty_bases().collect()
    }

    /// [`Memory::dirty_pages`] without collecting them, ascending.
    pub(crate) fn dirty_bases(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    ((w * 64 + b) as u64) * PAGE_SIZE
                })
            })
        })
    }

    /// Whether the page at `base` was written since the last drain.
    pub(crate) fn is_dirty(&self, base: u64) -> bool {
        let p = (base / PAGE_SIZE) as usize;
        self.dirty[p / 64] & (1 << (p % 64)) != 0
    }

    /// Empties the dirty set, as [`Memory::drain_dirty`] does.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Overwrites the whole page at `base` with `contents`, bumping its
    /// write generation (cached decodes of it revalidate) but leaving the
    /// dirty set alone: the rewrite of a machine being rewound to a
    /// snapshot, which is the state its next dirty log starts from.
    pub(crate) fn rewrite_page(&mut self, base: u64, contents: &[u8]) {
        debug_assert_eq!(contents.len() as u64, PAGE_SIZE);
        self.page_gens[(base / PAGE_SIZE) as usize] += 1;
        let a = base as usize;
        self.bytes[a..a + PAGE_SIZE as usize].copy_from_slice(contents);
    }

    /// Rewrites every dirty page with `contents(base)`, as
    /// [`Memory::rewrite_page`] does, and empties the dirty set. Returns
    /// how many pages it rewrote.
    pub(crate) fn rewrite_dirty<'c>(&mut self, contents: impl Fn(u64) -> &'c [u8]) -> u64 {
        let mut rewritten = 0;
        for w in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]);
            while bits != 0 {
                let base = ((w * 64) as u64 + u64::from(bits.trailing_zeros())) * PAGE_SIZE;
                self.rewrite_page(base, contents(base));
                rewritten += 1;
                bits &= bits - 1;
            }
        }
        rewritten
    }

    /// The per-page permission table (one entry per page, ascending).
    pub fn perms_table(&self) -> &[Perms] {
        &self.page_perms
    }

    /// Restores a permission table captured via [`Memory::perms_table`].
    ///
    /// # Panics
    ///
    /// Panics if `perms` does not have one entry per page.
    pub fn set_perms_table(&mut self, perms: &[Perms]) {
        assert_eq!(perms.len(), self.page_perms.len(), "perms table size mismatch");
        self.page_perms.copy_from_slice(perms);
    }
}

#[derive(Clone, Copy)]
enum Access {
    Read,
    Write,
    Exec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rounds_to_pages() {
        let mem = Memory::new(PAGE_SIZE + 1);
        assert_eq!(mem.size(), 2 * PAGE_SIZE);
    }

    #[test]
    fn unmapped_memory_denies_everything() {
        let mem = Memory::new(1 << 16);
        assert_eq!(mem.read_u64(0), Err(Trap::PermRead { addr: 0 }));
        assert!(matches!(mem.fetch(8), Err(Trap::PermExec { .. })));
    }

    #[test]
    fn rw_mapping_allows_data_but_not_fetch() {
        let mut mem = Memory::new(1 << 16);
        mem.map(0..PAGE_SIZE, Perms::RW);
        mem.write_u64(16, 0xABCD).unwrap();
        assert_eq!(mem.read_u64(16).unwrap(), 0xABCD);
        assert_eq!(mem.fetch(16), Err(Trap::PermExec { addr: 16 }));
    }

    #[test]
    fn fetch_requires_alignment() {
        let mut mem = Memory::new(1 << 16);
        mem.map(0..PAGE_SIZE, Perms::RX);
        assert_eq!(mem.fetch(4), Err(Trap::UnalignedFetch { addr: 4 }));
        assert!(mem.fetch(8).is_ok());
    }

    #[test]
    fn out_of_range_detected() {
        let mem = Memory::new(PAGE_SIZE);
        assert_eq!(mem.read_u64(PAGE_SIZE - 4), Err(Trap::OutOfRange { addr: PAGE_SIZE - 4 }));
        assert_eq!(mem.read_u64(u64::MAX - 2), Err(Trap::OutOfRange { addr: u64::MAX - 2 }));
    }

    #[test]
    fn straddling_access_checks_both_pages() {
        let mut mem = Memory::new(2 * PAGE_SIZE);
        mem.map(0..PAGE_SIZE, Perms::RW);
        // Second page unmapped: an 8-byte access crossing the boundary fails.
        let addr = PAGE_SIZE - 4;
        assert!(mem.write_u64(addr, 1).is_err());
        mem.map(PAGE_SIZE..2 * PAGE_SIZE, Perms::RW);
        assert!(mem.write_u64(addr, 1).is_ok());
        assert_eq!(mem.read_u64(addr).unwrap(), 1);
    }

    #[test]
    fn protect_unprotect_page() {
        let mut mem = Memory::new(PAGE_SIZE);
        mem.map(0..PAGE_SIZE, Perms::RWX);
        let old = mem.protect_page(100);
        assert_eq!(old, Perms::RWX);
        assert_eq!(mem.write_u8(100, 1), Err(Trap::PermWrite { addr: 100 }));
        assert!(mem.fetch(96).is_ok());
        mem.unprotect_page(100);
        assert!(mem.write_u8(100, 1).is_ok());
    }

    #[test]
    fn byte_accessors() {
        let mut mem = Memory::new(PAGE_SIZE);
        mem.map(0..PAGE_SIZE, Perms::RW);
        mem.write_u8(5, 0x7F).unwrap();
        assert_eq!(mem.read_u8(5).unwrap(), 0x7F);
    }

    #[test]
    fn install_and_peek_bypass_perms() {
        let mut mem = Memory::new(PAGE_SIZE);
        mem.install(0, &[1, 2, 3]);
        assert_eq!(mem.peek(0, 3), &[1, 2, 3]);
    }

    #[test]
    fn is_code_tracks_exec_perm() {
        let mut mem = Memory::new(2 * PAGE_SIZE);
        mem.map(0..PAGE_SIZE, Perms::RX);
        assert!(mem.is_code(10));
        assert!(!mem.is_code(PAGE_SIZE + 10));
        assert!(!mem.is_code(u64::MAX));
    }

    #[test]
    fn page_base_masks_offset() {
        assert_eq!(Memory::page_base(0x1234), 0x1000);
        assert_eq!(Memory::page_base(0x1000), 0x1000);
    }

    #[test]
    fn recycled_buffers_come_back_all_zero() {
        // Use a size no other test allocates so the pooled buffer this
        // test gets back is necessarily its own.
        const SIZE: u64 = 13 * PAGE_SIZE;
        let mut mem = Memory::new(SIZE);
        mem.map(0..SIZE, Perms::RW);
        mem.write_u64(3 * PAGE_SIZE + 8, u64::MAX).unwrap();
        mem.install(7 * PAGE_SIZE, &[0xAB; 100]);
        drop(mem);
        // The next same-size Memory reuses the scrubbed buffer and must be
        // indistinguishable from a fresh allocation.
        let mem = Memory::new(SIZE);
        assert_eq!(mem.nonzero_pages().count(), 0);
        assert!(mem.dirty_pages().is_empty());

        // A drained memory recycles too: its write generations still name
        // every page it wrote, the ones written before the drain included.
        let mut mem = Memory::new(SIZE);
        mem.map(0..SIZE, Perms::RW);
        mem.write_u8(PAGE_SIZE, 9).unwrap();
        mem.drain_dirty();
        mem.write_u8(2 * PAGE_SIZE, 9).unwrap();
        drop(mem);
        let mem = Memory::new(SIZE);
        assert_eq!(mem.nonzero_pages().count(), 0);
    }
}
