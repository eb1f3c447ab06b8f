//! Mattson LRU stack-distance simulation (the Cheetah substitute).
//!
//! The paper simulates "a set of cache configurations, varying the number of
//! cache sets and the associativity" with the Cheetah simulator (§5.3,
//! Figure 3). For LRU, Cheetah's trick is the Mattson stack algorithm: for
//! a fixed set count, one pass over the trace records each access's LRU
//! stack depth within its set, and the miss ratio of *every* associativity
//! `a` follows as the fraction of accesses whose depth is `>= a`. One
//! simulator pass per set count thus yields a whole curve of Figure 3.
//!
//! # Examples
//!
//! ```
//! use atc_cache::StackSim;
//!
//! let mut sim = StackSim::new(1, 4); // fully-associative view, 4 ways max
//! for block in [1u64, 2, 3, 1, 2, 3] {
//!     sim.access(block);
//! }
//! // Second round of 1,2,3 hits at depth 2 with >= 3 ways.
//! assert_eq!(sim.miss_ratio(3), 0.5);
//! assert_eq!(sim.miss_ratio(2), 1.0);
//! ```

/// Single-pass LRU stack simulator for one set count and all
/// associativities `1..=max_assoc`.
#[derive(Debug, Clone)]
pub struct StackSim {
    sets: usize,
    max_assoc: usize,
    /// Per-set LRU stacks (most recent first), truncated to `max_assoc`.
    stacks: Vec<Vec<u64>>,
    /// `hits[d]`: accesses that hit at stack depth `d` (0-based).
    hits: Vec<u64>,
    accesses: u64,
}

impl StackSim {
    /// Creates a simulator with `sets` sets (power of two) measuring
    /// associativities up to `max_assoc`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a positive power of two or `max_assoc == 0`.
    pub fn new(sets: usize, max_assoc: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(max_assoc > 0, "max_assoc must be positive");
        Self {
            sets,
            max_assoc,
            stacks: vec![Vec::new(); sets],
            hits: vec![0; max_assoc],
            accesses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Largest associativity measured.
    pub fn max_assoc(&self) -> usize {
        self.max_assoc
    }

    /// Processes one block address.
    pub fn access(&mut self, block: u64) {
        self.accesses += 1;
        let set = (block as usize) & (self.sets - 1);
        let stack = &mut self.stacks[set];
        match stack.iter().position(|&b| b == block) {
            Some(depth) => {
                self.hits[depth] += 1;
                // Move to front.
                stack.remove(depth);
                stack.insert(0, block);
            }
            None => {
                stack.insert(0, block);
                if stack.len() > self.max_assoc {
                    stack.pop();
                }
            }
        }
    }

    /// Processes a whole trace.
    pub fn run<I: IntoIterator<Item = u64>>(&mut self, blocks: I) {
        for b in blocks {
            self.access(b);
        }
    }

    /// Total accesses processed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Miss ratio for a cache of `assoc` ways per set.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or exceeds `max_assoc`.
    pub fn miss_ratio(&self, assoc: usize) -> f64 {
        assert!(
            (1..=self.max_assoc).contains(&assoc),
            "assoc {assoc} outside 1..={}",
            self.max_assoc
        );
        if self.accesses == 0 {
            return 0.0;
        }
        let hits: u64 = self.hits[..assoc].iter().sum();
        1.0 - hits as f64 / self.accesses as f64
    }

    /// Miss-ratio curve for associativities `1..=max_assoc`.
    pub fn miss_curve(&self) -> Vec<f64> {
        (1..=self.max_assoc).map(|a| self.miss_ratio(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Cache, CacheConfig};

    #[test]
    fn matches_explicit_cache_simulation() {
        // Cross-validate the stack simulator against the explicit LRU cache
        // for several (sets, ways) on a pseudo-random trace.
        let mut x: u64 = 1;
        let trace: Vec<u64> = (0..20_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 40) % 4096
            })
            .collect();
        for sets in [1usize, 4, 16, 64] {
            let mut sim = StackSim::new(sets, 8);
            sim.run(trace.iter().copied());
            for ways in [1usize, 2, 4, 8] {
                let mut cache = Cache::new(CacheConfig {
                    sets,
                    ways,
                    block_shift: 6,
                });
                for &b in &trace {
                    cache.access_block(b);
                }
                let expect = cache.miss_ratio();
                let got = sim.miss_ratio(ways);
                assert!(
                    (expect - got).abs() < 1e-12,
                    "sets={sets} ways={ways}: cache {expect} vs stack {got}"
                );
            }
        }
    }

    #[test]
    fn monotone_in_associativity() {
        let mut sim = StackSim::new(16, 32);
        let mut x: u64 = 9;
        for _ in 0..50_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            sim.access((x >> 33) % 100_000);
        }
        let curve = sim.miss_curve();
        for w in curve.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "miss ratio must not increase with ways"
            );
        }
    }

    #[test]
    fn loop_exactly_fits() {
        // Cyclic access to N blocks, fully associative: with >= N ways all
        // but the first lap hit; with < N ways LRU thrashes to 100% misses.
        let n = 8u64;
        let mut sim = StackSim::new(1, 16);
        for lap in 0..100 {
            let _ = lap;
            for b in 0..n {
                sim.access(b);
            }
        }
        assert!(sim.miss_ratio(8) < 0.02);
        assert!((sim.miss_ratio(7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sim() {
        let sim = StackSim::new(4, 4);
        assert_eq!(sim.miss_ratio(1), 0.0);
        assert_eq!(sim.accesses(), 0);
    }

    #[test]
    fn random_working_set_hit_ratio() {
        // Paper §5: random accesses over N blocks, cache with C tags =>
        // hit ratio ~ C/N.
        let n_blocks = 1024u64;
        let mut x: u64 = 77;
        let mut sim = StackSim::new(1, 32);
        for _ in 0..200_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            sim.access((x >> 33) % n_blocks);
        }
        let c = 32.0;
        let expect = 1.0 - c / n_blocks as f64;
        let got = sim.miss_ratio(32);
        assert!((got - expect).abs() < 0.02, "got {got}, expect ~{expect}");
    }
}
