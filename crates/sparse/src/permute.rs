//! Random permutations for load balancing.
//!
//! §IV-A: *"To balance load across processors, we randomly permute the input
//! matrix A before running the matching algorithms."* The permutation is
//! also how the motivating application consumes a matching: a perfect
//! matching of the bipartite graph of a square sparse matrix yields a row
//! permutation placing nonzeros on the whole diagonal (see the
//! `solver_preprocess` example).
//!
//! We implement Fisher–Yates over a tiny self-contained SplitMix64 stream so
//! permutations are identical across platforms and runs.

use crate::{Triples, Vidx};

/// Deterministic 64-bit SplitMix generator (public-domain constants).
///
/// Kept deliberately minimal — `rand` stays confined to tests/property
/// checks so that algorithmic randomness (permutation, randomized semirings,
/// generators) is bit-stable everywhere.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 raw bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift (bound > 0).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A permutation `perm` of `0..n`: `perm[old] = new`.
///
/// # Example
///
/// ```
/// use mcm_sparse::permute::Permutation;
///
/// let p = Permutation::random(100, 42);
/// let inv = p.inverse();
/// assert_eq!(inv.apply(p.apply(17)), 17);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<Vidx>,
}

impl Permutation {
    /// The identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        Self { forward: (0..n as Vidx).collect() }
    }

    /// A uniformly random permutation of length `n` (Fisher–Yates).
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut forward: Vec<Vidx> = (0..n as Vidx).collect();
        for k in (1..n).rev() {
            let j = rng.below(k as u64 + 1) as usize;
            forward.swap(k, j);
        }
        Self { forward }
    }

    /// Wraps an explicit mapping `old → new`.
    ///
    /// # Panics
    /// Panics when `forward` is not a permutation of `0..len`.
    pub fn from_forward(forward: Vec<Vidx>) -> Self {
        let n = forward.len();
        let mut seen = vec![false; n];
        for &v in &forward {
            assert!((v as usize) < n && !seen[v as usize], "not a permutation");
            seen[v as usize] = true;
        }
        Self { forward }
    }

    /// Length of the permuted domain.
    #[inline]
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// `true` for the empty permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Image of `old`.
    #[inline]
    pub fn apply(&self, old: Vidx) -> Vidx {
        self.forward[old as usize]
    }

    /// The mapping as a slice (`slice[old] = new`).
    #[inline]
    pub fn as_slice(&self) -> &[Vidx] {
        &self.forward
    }

    /// The inverse permutation (`inv[new] = old`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0 as Vidx; self.forward.len()];
        for (old, &new) in self.forward.iter().enumerate() {
            inv[new as usize] = old as Vidx;
        }
        Permutation { forward: inv }
    }
}

/// Applies row/column permutations to a triple list: entry `(i, j)` becomes
/// `(rowp(i), colp(j))`. Pass [`Permutation::identity`] to leave a side
/// untouched.
pub fn permute_triples(t: &Triples, rowp: &Permutation, colp: &Permutation) -> Triples {
    assert_eq!(rowp.len(), t.nrows());
    assert_eq!(colp.len(), t.ncols());
    let edges = t.entries().iter().map(|&(i, j)| (rowp.apply(i), colp.apply(j))).collect();
    Triples::from_edges(t.nrows(), t.ncols(), edges)
}

/// The row/column permutation pair [`random_relabel`] applies, without
/// materializing the permuted triples — callers that fuse the relabeling
/// into matrix assembly (`DistMatrix::with_grid_csc_pair`) use this to
/// stay bit-identical with the materializing path.
pub fn relabel_permutations(nrows: usize, ncols: usize, seed: u64) -> (Permutation, Permutation) {
    let rowp = Permutation::random(nrows, seed ^ 0x517C_C1B7_2722_0A95);
    let colp = Permutation::random(ncols, seed ^ 0x71D6_7FFF_EDA6_0000);
    (rowp, colp)
}

/// Symmetric random relabeling of a bipartite graph for load balance: both
/// sides are permuted with independent streams derived from `seed`.
pub fn random_relabel(t: &Triples, seed: u64) -> (Triples, Permutation, Permutation) {
    let (rowp, colp) = relabel_permutations(t.nrows(), t.ncols(), seed);
    (permute_triples(t, &rowp, &colp), rowp, colp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_bounds() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn random_permutation_is_valid() {
        let p = Permutation::random(100, 3);
        let mut seen = [false; 100];
        for old in 0..100u32 {
            let new = p.apply(old) as usize;
            assert!(!seen[new]);
            seen[new] = true;
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::random(57, 11);
        let inv = p.inverse();
        for old in 0..57u32 {
            assert_eq!(inv.apply(p.apply(old)), old);
        }
    }

    #[test]
    fn permute_preserves_structure() {
        let t = Triples::from_edges(3, 3, vec![(0, 0), (1, 1), (2, 2), (0, 2)]);
        let (pt, rowp, colp) = random_relabel(&t, 99);
        assert_eq!(pt.len(), t.len());
        // Undo and compare as sets.
        let undone = permute_triples(&pt, &rowp.inverse(), &colp.inverse());
        let mut a = undone.entries().to_vec();
        let mut b = t.entries().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn from_forward_rejects_non_permutation() {
        Permutation::from_forward(vec![0, 0, 1]);
    }
}
