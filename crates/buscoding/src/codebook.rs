//! Cost-ordered codeword enumeration (Figure 2).
//!
//! On a transition-coded bus a codeword *is* the set of wires that
//! toggle, so its energy cost is a static function of the word itself:
//! `popcount + λ · coupling`. The transcoder assigns the cheapest
//! codewords to the highest-confidence predictions — all-zero (free) to
//! the top prediction, then the weight-one vectors, preferring edge wires
//! whose toggles couple to only one neighbor, then weight-two vectors
//! with the toggling wires spread apart, and so on.

use std::fmt;

use crate::energy::CostModel;

/// An ordered codebook over an `n`-line transition-coded bus.
///
/// Entry `r` is the bus transition vector assigned to prediction rank
/// `r`; entry 0 is always the all-zero vector. The ordering is
/// non-decreasing in λ-weighted cost and deterministic (ties broken by
/// numeric value). A predictive encoder/decoder pair shares one build
/// (the decoder gets a clone); books built independently from the same
/// arguments are still identical.
///
/// # Example
///
/// ```
/// use buscoding::{CodeBook, CostModel};
///
/// let book = CodeBook::new(8, 10, CostModel::new(1.0));
/// assert_eq!(book.code(0), 0);               // top prediction is free
/// assert_eq!(book.code(1).count_ones(), 1);  // next ranks cost one toggle
/// assert_eq!(book.rank_of(book.code(7)), Some(7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CodeBook {
    lines: u32,
    codes: Vec<u64>,
    /// `(codeword, rank)` sorted by codeword: the decoder's inverse of
    /// `codes`, searched by bisection.
    ranks: Vec<(u64, u32)>,
}

impl CodeBook {
    /// Builds the `count` cheapest codewords on an `n`-line bus under the
    /// given cost model.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not in `1..=64`, or if `count` exceeds the
    /// number of distinct codewords (`2^lines`), or if `count` is zero.
    pub fn new(lines: u32, count: usize, cost: CostModel) -> Self {
        static BUILDS: busprobe::StaticCounter =
            busprobe::StaticCounter::new("buscoding.codebook.builds");
        let _span = busprobe::span("buscoding.codebook.build");
        BUILDS.inc();
        assert!(
            (1..=64).contains(&lines),
            "line count must be in 1..=64, got {lines}"
        );
        assert!(count > 0, "a codebook needs at least the all-zero codeword");
        if lines < 64 {
            assert!(
                (count as u128) <= (1u128 << lines),
                "cannot pick {count} distinct codewords from a {lines}-line bus"
            );
        }

        // Enumerate codewords weight class by weight class. Cost is not
        // monotone in weight once λ > 0 (a run of adjacent toggling wires
        // couples less than an isolated interior toggle), so classes are
        // gathered until the cheapest *possible* cost of the next class —
        // its weight, since κ ≥ 0 — exceeds the count-th smallest cost
        // seen so far. Each word is scored once, when its class is
        // pushed; the count-th smallest cost and the final cut are
        // selections, and only the kept `count` words are sorted.
        // `(cost, value)` is a total order over distinct words, so the
        // result is the prefix a full sort of the pool would give.
        let by_cost_then_value = |a: &(f64, u64), b: &(f64, u64)| {
            a.0.partial_cmp(&b.0)
                .expect("costs are finite")
                .then(a.1.cmp(&b.1))
        };
        let mut pool: Vec<u64> = Vec::with_capacity(count * 2);
        let mut scored: Vec<(f64, u64)> = Vec::with_capacity(count * 2);
        let mut weight = 0u32;
        while weight <= lines {
            Self::push_weight_class(lines, weight, &mut pool, count);
            scored.extend(
                pool[scored.len()..]
                    .iter()
                    .map(|&c| (cost.vector_cost(c, lines), c)),
            );
            if scored.len() >= count {
                let (_, nth, _) = scored.select_nth_unstable_by(count - 1, by_cost_then_value);
                if f64::from(weight + 1) > nth.0 {
                    break;
                }
            }
            weight += 1;
        }
        assert!(
            scored.len() >= count,
            "internal enumeration produced {} < {count} codewords",
            scored.len()
        );
        if scored.len() > count {
            scored.select_nth_unstable_by(count - 1, by_cost_then_value);
            scored.truncate(count);
        }
        scored.sort_unstable_by(by_cost_then_value);
        let codes: Vec<u64> = scored.into_iter().map(|(_, c)| c).collect();
        let mut ranks: Vec<(u64, u32)> = codes
            .iter()
            .enumerate()
            .map(|(rank, &c)| {
                (
                    c,
                    u32::try_from(rank).expect("a codebook has under 2^32 ranks"),
                )
            })
            .collect();
        ranks.sort_unstable_by_key(|&(c, _)| c);
        CodeBook {
            lines,
            codes,
            ranks,
        }
    }

    /// Pushes all codewords of the given weight, stopping early once the
    /// pool is comfortably larger than needed (the class is generated in
    /// ascending numeric order so the prefix is deterministic).
    fn push_weight_class(lines: u32, weight: u32, pool: &mut Vec<u64>, count: usize) {
        let budget = count.saturating_mul(4).max(1024);
        if weight == 0 {
            pool.push(0);
            return;
        }
        if weight > lines {
            return;
        }
        // Gosper's hack: iterate all n-bit words with `weight` bits set.
        let mut v: u64 = if weight == 64 {
            u64::MAX
        } else {
            (1u64 << weight) - 1
        };
        let limit: u64 = if lines == 64 {
            u64::MAX
        } else {
            (1u64 << lines) - 1
        };
        loop {
            pool.push(v);
            if pool.len() >= budget {
                return;
            }
            if v == 0 || weight == lines {
                return; // single word in class
            }
            // Next word with same popcount.
            let c = v & v.wrapping_neg();
            let Some(r) = v.checked_add(c) else {
                return; // the class is exhausted at the top of the range
            };
            let next = (((r ^ v) >> 2) / c) | r;
            if next > limit {
                return;
            }
            v = next;
        }
    }

    /// Number of bus lines the codewords span.
    pub fn lines(&self) -> u32 {
        self.lines
    }

    /// Number of codewords.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the book is empty (never true: rank 0 always exists).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The codeword for prediction rank `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn code(&self, rank: usize) -> u64 {
        self.codes[rank]
    }

    /// The rank whose codeword is `code`, if `code` is in the book —
    /// the decoder-side inverse of [`code`](Self::code).
    pub fn rank_of(&self, code: u64) -> Option<usize> {
        static LOOKUPS: busprobe::StaticCounter =
            busprobe::StaticCounter::new("buscoding.codebook.lookups");
        static UNKNOWN: busprobe::StaticCounter =
            busprobe::StaticCounter::new("buscoding.codebook.unknown");
        LOOKUPS.inc();
        let rank = self
            .ranks
            .binary_search_by_key(&code, |&(c, _)| c)
            .ok()
            .map(|at| self.ranks[at].1 as usize);
        if rank.is_none() {
            UNKNOWN.inc();
        }
        rank
    }

    /// All codewords in rank order.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }
}

impl fmt::Display for CodeBook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-entry codebook on {} lines",
            self.codes.len(),
            self.lines
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference builder: re-scores and re-sorts the whole pool after
    /// each weight class, then sorts it fully. [`CodeBook::new`] must
    /// reproduce it exactly, budget truncation included.
    fn full_sort_codes(lines: u32, count: usize, cost: CostModel) -> Vec<u64> {
        let mut pool: Vec<u64> = Vec::with_capacity(count * 2);
        let mut weight = 0u32;
        while weight <= lines {
            CodeBook::push_weight_class(lines, weight, &mut pool, count);
            if pool.len() >= count {
                let mut costs: Vec<f64> =
                    pool.iter().map(|&c| cost.vector_cost(c, lines)).collect();
                costs.sort_by(|a, b| a.partial_cmp(b).expect("costs are finite"));
                if f64::from(weight + 1) > costs[count - 1] {
                    break;
                }
            }
            weight += 1;
        }
        let mut scored: Vec<(f64, u64)> = pool
            .into_iter()
            .map(|c| (cost.vector_cost(c, lines), c))
            .collect();
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("costs are finite")
                .then(a.1.cmp(&b.1))
        });
        scored.into_iter().take(count).map(|(_, c)| c).collect()
    }

    const ORACLE_LAMBDAS: [f64; 8] = [0.0, 0.1, 0.5, 1.0, 2.0, 3.0, 10.0, 100.0];
    const ORACLE_COUNTS: [usize; 19] = [
        1, 2, 3, 4, 5, 7, 9, 16, 17, 29, 33, 37, 65, 100, 129, 257, 513, 1025, 2000,
    ];

    fn fits(lines: u32, count: usize) -> bool {
        lines >= 64 || (count as u128) <= (1u128 << lines)
    }

    #[test]
    fn selection_build_equals_the_full_sort_builder() {
        // One thread per λ: the oracle's repeated sorts are slow in an
        // unoptimized build.
        std::thread::scope(|scope| {
            for lambda in ORACLE_LAMBDAS {
                scope.spawn(move || {
                    let cost = CostModel::new(lambda);
                    for lines in 1..=64u32 {
                        for count in ORACLE_COUNTS.into_iter().filter(|&c| fits(lines, c)) {
                            assert_eq!(
                                CodeBook::new(lines, count, cost).codes(),
                                full_sort_codes(lines, count, cost),
                                "lines={lines} lambda={lambda} count={count}"
                            );
                        }
                    }
                });
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn selection_build_equals_the_full_sort_builder_at_random(
            lines in 1u32..=64,
            lambda_bits in 0u64..=1 << 53,
            count in 1usize..=2048,
        ) {
            prop_assume!(fits(lines, count));
            // λ uniform on [0, 1000] at full `f64` resolution.
            let cost = CostModel::new(lambda_bits as f64 / (1u64 << 53) as f64 * 1000.0);
            prop_assert_eq!(
                CodeBook::new(lines, count, cost).codes(),
                full_sort_codes(lines, count, cost).as_slice()
            );
        }
    }

    #[test]
    fn rank_zero_is_free() {
        let book = CodeBook::new(32, 40, CostModel::default());
        assert_eq!(book.code(0), 0);
    }

    #[test]
    fn costs_are_nondecreasing() {
        for lambda in [0.0, 0.5, 1.0, 14.0] {
            let cost = CostModel::new(lambda);
            let book = CodeBook::new(16, 200, cost);
            let costs: Vec<f64> = book
                .codes()
                .iter()
                .map(|&c| cost.vector_cost(c, 16))
                .collect();
            assert!(
                costs.windows(2).all(|w| w[0] <= w[1] + 1e-12),
                "codebook not cost-sorted for lambda {lambda}: {costs:?}"
            );
        }
    }

    #[test]
    fn weight_one_codes_prefer_edges_under_coupling() {
        // With λ > 0 the cheapest single-bit codes are the edge wires.
        let book = CodeBook::new(8, 3, CostModel::new(1.0));
        let first_two: Vec<u64> = vec![book.code(1), book.code(2)];
        assert!(first_two.contains(&0b0000_0001));
        assert!(first_two.contains(&0b1000_0000));
    }

    #[test]
    fn codes_are_unique_and_rank_of_inverts() {
        let book = CodeBook::new(34, 66, CostModel::default());
        let mut seen = std::collections::HashSet::new();
        for (rank, &c) in book.codes().iter().enumerate() {
            assert!(seen.insert(c), "duplicate codeword {c:#x}");
            assert_eq!(book.rank_of(c), Some(rank));
        }
        assert_eq!(book.rank_of(u64::MAX), None);
        // A word that falls between codewords of the sorted index.
        let outside = (0..u64::MAX)
            .find(|c| !seen.contains(c))
            .expect("a 34-line bus has more than 66 words");
        assert_eq!(book.rank_of(outside), None);
        assert_eq!(book.len(), 66);
        assert!(!book.is_empty());
    }

    #[test]
    fn covers_more_ranks_than_lines() {
        // 4-line bus, 16 possible codewords: ask for all of them.
        let book = CodeBook::new(4, 16, CostModel::default());
        assert_eq!(book.len(), 16);
        let mut all: Vec<u64> = book.codes().to_vec();
        all.sort_unstable();
        assert_eq!(all, (0..16u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "distinct codewords")]
    fn rejects_impossible_count() {
        let _ = CodeBook::new(3, 9, CostModel::default());
    }

    #[test]
    fn full_width_book() {
        let book = CodeBook::new(64, 65, CostModel::default());
        assert_eq!(book.code(0), 0);
        // The two edge wires are the cheapest non-zero codes (cost 2);
        // after that, weight-1 interior words (cost 3) tie with edge runs
        // like 0b11 (also cost 3), so only weights 1-2 may appear.
        let next_two = [book.code(1), book.code(2)];
        assert!(next_two.contains(&1));
        assert!(next_two.contains(&(1u64 << 63)));
        assert!(book.codes()[1..]
            .iter()
            .all(|c| (1..=2).contains(&c.count_ones())));
    }

    #[test]
    fn edge_runs_beat_spread_pairs_under_coupling() {
        // Physics check: two *adjacent* wires toggling together keep
        // their mutual XOR constant, so an edge-anchored run couples
        // less than two isolated toggles.
        let cost = CostModel::new(1.0);
        assert!(cost.vector_cost(0b0000_0011, 8) < cost.vector_cost(0b1000_0001, 8));
        let book = CodeBook::new(8, 150, cost);
        let rank_run = book.rank_of(0b0000_0011).expect("run present");
        let rank_spread = book.rank_of(0b1000_0001).expect("spread present");
        assert!(
            rank_run < rank_spread,
            "run {rank_run} should rank before {rank_spread}"
        );
    }

    #[test]
    fn display_formats() {
        let book = CodeBook::new(8, 5, CostModel::default());
        assert_eq!(book.to_string(), "5-entry codebook on 8 lines");
    }

    #[test]
    fn matches_brute_force_on_small_buses() {
        // Exhaustive ground truth: enumerate all 2^n codewords, sort by
        // (cost, value), and compare the prefix against the fast path.
        for lines in 3..=10u32 {
            for lambda in [0.0, 0.5, 1.0, 2.0] {
                let cost = CostModel::new(lambda);
                let mut all: Vec<(f64, u64)> = (0..1u64 << lines)
                    .map(|c| (cost.vector_cost(c, lines), c))
                    .collect();
                all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
                let count = (1usize << lines).min(70);
                let book = CodeBook::new(lines, count, cost);
                for (rank, &(_, expected)) in all.iter().take(count).enumerate() {
                    assert_eq!(
                        book.code(rank),
                        expected,
                        "lines={lines} lambda={lambda} rank={rank}"
                    );
                }
            }
        }
    }
}
