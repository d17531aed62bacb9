//! The branch-error classification of paper §2 (Figure 1).

use std::fmt;

/// A branch-error category.
///
/// Categories classify where a faulty branch transfers control relative to
/// the branch's own basic block (Figure 1):
///
/// * **A** — mistaken branch: the branch was supposed to jump but falls
///   through, or vice versa (including offset faults that happen to land on
///   the fall-through);
/// * **B** — jump to the *beginning* of the same basic block;
/// * **C** — jump to the *middle* (including the end) of the same block;
/// * **D** — jump to the beginning of another block;
/// * **E** — jump to the middle of another block;
/// * **F** — jump to a non-code memory region (caught by execute
///   protection);
/// * **NoError** — the flipped bit does not change the control flow (e.g.
///   offset faults on not-taken branches, or flag faults that do not affect
///   the branch's condition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Mistaken branch direction.
    A,
    /// Beginning of the same basic block.
    B,
    /// Middle (incl. end) of the same basic block.
    C,
    /// Beginning of another basic block.
    D,
    /// Middle of another basic block.
    E,
    /// Non-code memory region.
    F,
    /// The fault does not alter control flow.
    NoError,
}

impl Category {
    /// The five categories that can produce silent data corruption (F is
    /// caught by hardware; Figure 3 renormalizes over these).
    pub const SDC_PRONE: [Category; 5] =
        [Category::A, Category::B, Category::C, Category::D, Category::E];

    /// All seven classification outcomes.
    pub const ALL: [Category; 7] = [
        Category::A,
        Category::B,
        Category::C,
        Category::D,
        Category::E,
        Category::F,
        Category::NoError,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::A => "A",
            Category::B => "B",
            Category::C => "C",
            Category::D => "D",
            Category::E => "E",
            Category::F => "F",
            Category::NoError => "No Error",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdc_prone_excludes_f_and_noerror() {
        assert!(!Category::SDC_PRONE.contains(&Category::F));
        assert!(!Category::SDC_PRONE.contains(&Category::NoError));
        assert_eq!(Category::SDC_PRONE.len(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(Category::A.to_string(), "A");
        assert_eq!(Category::NoError.to_string(), "No Error");
    }
}
