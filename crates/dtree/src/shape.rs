//! Declarative dimension-tree shapes — the memoization strategy space.
//!
//! A [`TreeShape`] describes *what to memoize* without reference to any
//! particular tensor. The named constructors cover the strategies the
//! literature compares:
//!
//! * [`TreeShape::two_level`] — no memoization: every mode hangs directly
//!   off the root (`ht-tree2` / index-compressed SPLATT-equivalent work,
//!   `N-1` TTVs per mode);
//! * [`TreeShape::three_level`] — one layer of memoized intermediates
//!   (Phan et al.'s two-group scheme, a 2x work reduction);
//! * [`TreeShape::balanced_binary`] — the full BDT with the
//!   `O(N/log N)` asymptotic reduction;
//! * [`TreeShape::left_deep`] — the degenerate caterpillar tree, maximal
//!   memory for minimal recompute of one hot path;
//! * arbitrary shapes via [`TreeShape::internal`], which is what the
//!   model-driven planner emits.

use std::fmt;

/// A dimension-tree shape: a recursive partition of a set of modes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TreeShape {
    /// A leaf holding exactly one mode.
    Leaf(usize),
    /// An internal node whose children partition its mode set.
    Internal(Vec<TreeShape>),
}

impl TreeShape {
    /// A leaf for `mode`.
    pub fn leaf(mode: usize) -> Self {
        TreeShape::Leaf(mode)
    }

    /// An internal node over the given children.
    ///
    /// # Panics
    /// Panics if fewer than two children are supplied (a chain node would
    /// memoize nothing and only add a copy).
    pub fn internal(children: Vec<TreeShape>) -> Self {
        assert!(children.len() >= 2, "internal nodes need at least two children");
        TreeShape::Internal(children)
    }

    /// The flat tree: all `n` modes directly under the root.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn two_level(n: usize) -> Self {
        assert!(n >= 2, "CP decomposition needs at least 2 modes");
        TreeShape::Internal((0..n).map(TreeShape::Leaf).collect())
    }

    /// The 3-level tree: root splits modes into halves `[0, n/2)` and
    /// `[n/2, n)`, each half's modes hang flat below. For `n <= 3` this
    /// coincides with shapes that have no room for a distinct middle
    /// level (a half with a single mode stays a leaf).
    pub fn three_level(n: usize) -> Self {
        assert!(n >= 2, "CP decomposition needs at least 2 modes");
        let split = n / 2;
        let group = |lo: usize, hi: usize| -> TreeShape {
            if hi - lo == 1 {
                TreeShape::Leaf(lo)
            } else {
                TreeShape::Internal((lo..hi).map(TreeShape::Leaf).collect())
            }
        };
        TreeShape::Internal(vec![group(0, split.max(1)), group(split.max(1), n)])
    }

    /// The balanced binary dimension tree (BDT) over modes `0..n`.
    pub fn balanced_binary(n: usize) -> Self {
        assert!(n >= 2, "CP decomposition needs at least 2 modes");
        Self::bdt_range(0, n)
    }

    fn bdt_range(lo: usize, hi: usize) -> TreeShape {
        debug_assert!(hi > lo);
        if hi - lo == 1 {
            TreeShape::Leaf(lo)
        } else {
            let mid = lo + (hi - lo) / 2;
            TreeShape::Internal(vec![Self::bdt_range(lo, mid), Self::bdt_range(mid, hi)])
        }
    }

    /// The left-deep (caterpillar) tree: `((((0, 1), 2), 3), ...)` — the
    /// maximal-memoization extreme for mode-ascending traversals.
    pub fn left_deep(n: usize) -> Self {
        assert!(n >= 2, "CP decomposition needs at least 2 modes");
        let mut t = TreeShape::Internal(vec![TreeShape::Leaf(0), TreeShape::Leaf(1)]);
        for m in 2..n {
            t = TreeShape::Internal(vec![t, TreeShape::Leaf(m)]);
        }
        t
    }

    /// Builds a binary tree over the contiguous interval `lo..hi` of
    /// `perm` using per-interval split points: `split(lo, hi)` must return
    /// `s` with `lo < s < hi`. This is the constructor the planner's
    /// interval DP uses to materialize its chosen strategy.
    pub fn from_splits(
        perm: &[usize],
        lo: usize,
        hi: usize,
        split: &dyn Fn(usize, usize) -> usize,
    ) -> TreeShape {
        assert!(hi > lo, "empty interval");
        if hi - lo == 1 {
            return TreeShape::Leaf(perm[lo]);
        }
        let s = split(lo, hi);
        assert!(lo < s && s < hi, "split {s} outside ({lo}, {hi})");
        TreeShape::Internal(vec![
            Self::from_splits(perm, lo, s, split),
            Self::from_splits(perm, s, hi, split),
        ])
    }

    /// The modes covered by this shape, in left-to-right leaf order.
    pub fn modes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_modes(&mut out);
        out
    }

    fn collect_modes(&self, out: &mut Vec<usize>) {
        match self {
            TreeShape::Leaf(m) => out.push(*m),
            TreeShape::Internal(ch) => ch.iter().for_each(|c| c.collect_modes(out)),
        }
    }

    /// Total node count (internal + leaves), excluding nothing.
    pub fn node_count(&self) -> usize {
        match self {
            TreeShape::Leaf(_) => 1,
            TreeShape::Internal(ch) => 1 + ch.iter().map(TreeShape::node_count).sum::<usize>(),
        }
    }

    /// Number of internal (memoized) nodes excluding the root.
    ///
    /// This is the count of intermediate tensors a strategy stores — the
    /// "number of memoized partial products" parameter of the paper's
    /// strategy space.
    pub fn memo_count(&self) -> usize {
        fn inner(s: &TreeShape) -> usize {
            match s {
                TreeShape::Leaf(_) => 0,
                TreeShape::Internal(ch) => 1 + ch.iter().map(inner).sum::<usize>(),
            }
        }
        match self {
            TreeShape::Leaf(_) => 0,
            TreeShape::Internal(ch) => ch.iter().map(inner).sum(),
        }
    }

    /// Tree height (root = level 0; a leaf child of the root is at 1).
    pub fn height(&self) -> usize {
        match self {
            TreeShape::Leaf(_) => 0,
            TreeShape::Internal(ch) => 1 + ch.iter().map(TreeShape::height).max().unwrap_or(0),
        }
    }

    /// Whether the shape's leaves are exactly the modes `0..n`, each once.
    pub fn covers(&self, n: usize) -> bool {
        let mut modes = self.modes();
        modes.sort_unstable();
        modes.into_iter().eq(0..n)
    }

    /// Validates that the shape's leaves are exactly the modes `0..n`,
    /// each once. Returns `n`.
    ///
    /// # Panics
    /// Panics (with a description) if not.
    pub fn validate(&self) -> usize {
        let n = self.modes().len();
        assert!(self.covers(n), "shape must cover modes 0..{n} exactly once");
        assert!(
            matches!(self, TreeShape::Internal(_)) || n == 1,
            "root of a multi-mode shape must be internal"
        );
        n
    }
}

/// Error from parsing a [`TreeShape`] out of its textual form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeParseError(String);

impl fmt::Display for ShapeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid tree shape: {}", self.0)
    }
}

impl std::error::Error for ShapeParseError {}

impl std::str::FromStr for TreeShape {
    type Err = ShapeParseError;

    /// Parses the [`Display`](fmt::Display) notation, e.g. `((0 1) (2 3))`.
    ///
    /// The result is syntactically a tree; call [`TreeShape::validate`] to
    /// additionally check that the leaves cover `0..N` exactly once.
    fn from_str(s: &str) -> Result<Self, ShapeParseError> {
        let mut tokens = Vec::new();
        let mut chars = s.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            match c {
                '(' | ')' => tokens.push((i, c.to_string())),
                c if c.is_ascii_digit() => {
                    let mut num = c.to_string();
                    while let Some(&(_, d)) = chars.peek() {
                        if d.is_ascii_digit() {
                            num.push(d);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    tokens.push((i, num));
                }
                c if c.is_whitespace() => {}
                c => return Err(ShapeParseError(format!("unexpected character '{c}' at {i}"))),
            }
        }
        let mut pos = 0usize;
        let shape = parse_node(&tokens, &mut pos)?;
        if pos != tokens.len() {
            return Err(ShapeParseError("trailing tokens after shape".into()));
        }
        Ok(shape)
    }
}

fn parse_node(tokens: &[(usize, String)], pos: &mut usize) -> Result<TreeShape, ShapeParseError> {
    let (at, tok) =
        tokens.get(*pos).ok_or_else(|| ShapeParseError("unexpected end of input".into()))?;
    *pos += 1;
    if tok == "(" {
        let mut children = Vec::new();
        loop {
            let (at2, next) =
                tokens.get(*pos).ok_or_else(|| ShapeParseError(format!("unclosed '(' at {at}")))?;
            if next == ")" {
                *pos += 1;
                break;
            }
            if next == "(" || next.chars().all(|c| c.is_ascii_digit()) {
                children.push(parse_node(tokens, pos)?);
            } else {
                return Err(ShapeParseError(format!("unexpected token '{next}' at {at2}")));
            }
        }
        if children.len() < 2 {
            return Err(ShapeParseError(format!(
                "internal node at {at} needs at least two children"
            )));
        }
        Ok(TreeShape::Internal(children))
    } else if tok == ")" {
        Err(ShapeParseError(format!("unexpected ')' at {at}")))
    } else {
        let mode: usize =
            tok.parse().map_err(|_| ShapeParseError(format!("bad mode '{tok}' at {at}")))?;
        Ok(TreeShape::Leaf(mode))
    }
}

impl fmt::Display for TreeShape {
    /// Renders e.g. `((0 1)(2 3))` — the notation experiment tables use.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeShape::Leaf(m) => write!(f, "{m}"),
            TreeShape::Internal(ch) => {
                write!(f, "(")?;
                for (i, c) in ch.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_shape() {
        let s = TreeShape::two_level(4);
        assert_eq!(s.modes(), vec![0, 1, 2, 3]);
        assert_eq!(s.height(), 1);
        assert_eq!(s.memo_count(), 0);
        assert_eq!(s.node_count(), 5);
        s.validate();
    }

    #[test]
    fn three_level_shape_4_modes() {
        let s = TreeShape::three_level(4);
        assert_eq!(s.to_string(), "((0 1) (2 3))");
        assert_eq!(s.memo_count(), 2);
        assert_eq!(s.height(), 2);
        s.validate();
    }

    #[test]
    fn three_level_odd_and_small() {
        let s5 = TreeShape::three_level(5);
        assert_eq!(s5.modes(), vec![0, 1, 2, 3, 4]);
        s5.validate();
        let s2 = TreeShape::three_level(2);
        assert_eq!(s2.to_string(), "(0 1)");
        s2.validate();
        let s3 = TreeShape::three_level(3);
        assert_eq!(s3.to_string(), "(0 (1 2))");
        s3.validate();
    }

    #[test]
    fn bdt_8_modes_is_complete() {
        let s = TreeShape::balanced_binary(8);
        assert_eq!(s.height(), 3);
        assert_eq!(s.node_count(), 15);
        assert_eq!(s.memo_count(), 6);
        s.validate();
    }

    #[test]
    fn bdt_height_is_ceil_log2() {
        for n in 2..40 {
            let s = TreeShape::balanced_binary(n);
            let expect = (n as f64).log2().ceil() as usize;
            assert_eq!(s.height(), expect, "n = {n}");
            s.validate();
        }
    }

    #[test]
    fn left_deep_height_is_n_minus_1() {
        let s = TreeShape::left_deep(5);
        assert_eq!(s.height(), 4);
        assert_eq!(s.to_string(), "((((0 1) 2) 3) 4)");
        s.validate();
    }

    #[test]
    fn from_splits_midpoint_equals_bdt() {
        let perm: Vec<usize> = (0..8).collect();
        let s = TreeShape::from_splits(&perm, 0, 8, &|lo, hi| lo + (hi - lo) / 2);
        assert_eq!(s, TreeShape::balanced_binary(8));
    }

    #[test]
    fn from_splits_respects_permutation() {
        let perm = vec![3, 1, 0, 2];
        let s = TreeShape::from_splits(&perm, 0, 4, &|lo, hi| lo + (hi - lo) / 2);
        assert_eq!(s.modes(), vec![3, 1, 0, 2]);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn validate_rejects_duplicate_modes() {
        TreeShape::internal(vec![TreeShape::Leaf(0), TreeShape::Leaf(0)]).validate();
    }

    #[test]
    #[should_panic(expected = "at least two children")]
    fn internal_rejects_single_child() {
        TreeShape::internal(vec![TreeShape::Leaf(0)]);
    }

    #[test]
    fn display_round_trips_structure() {
        let s = TreeShape::internal(vec![
            TreeShape::Leaf(2),
            TreeShape::internal(vec![TreeShape::Leaf(0), TreeShape::Leaf(1)]),
        ]);
        assert_eq!(s.to_string(), "(2 (0 1))");
    }

    #[test]
    fn parse_round_trips_all_named_shapes() {
        for n in [2usize, 3, 4, 7, 8] {
            for s in [
                TreeShape::two_level(n),
                TreeShape::three_level(n),
                TreeShape::balanced_binary(n),
                TreeShape::left_deep(n),
            ] {
                let parsed: TreeShape = s.to_string().parse().expect("parse back");
                assert_eq!(parsed, s, "n = {n}");
            }
        }
    }

    #[test]
    fn parse_accepts_multi_digit_modes_and_whitespace() {
        let s: TreeShape = " ( 10   (11 12) ) ".parse().unwrap();
        assert_eq!(s.to_string(), "(10 (11 12))");
    }

    #[test]
    fn parse_rejects_malformed_inputs() {
        for bad in ["", "(0", "0)", "(0 1) x", "(0 1) (2 3)", "()", "(0)", "(0 1"] {
            assert!(bad.parse::<TreeShape>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_then_validate_catches_bad_mode_sets() {
        let s: TreeShape = "(0 2)".parse().unwrap();
        assert!(std::panic::catch_unwind(|| s.validate()).is_err());
    }
}
