//! Interpolation plans: phases 1–2 of §3.1, done once per query set.
//!
//! The query points of the semi-Lagrangian solves are the characteristic
//! feet, fixed for a given velocity. A plan routes them once — owner
//! lookup, bucketing, the query `alltoallv` — and resolves every query this
//! rank evaluates (its own locally owned ones and those received from
//! other ranks) into a compact stencil entry. Applying the plan to a
//! field ([`Interpolator::apply_many_into`](crate::Interpolator::apply_many_into)) is then
//! phases 3–5 only: ghost exchange, a gather over the stored entries, and
//! the value return, which is skipped outright when no rank has foreign
//! queries.

use std::ops::Range;

use claire_grid::workspace::{PoolVec, WsCat, INDEX_POOL, R3_POOL};
use claire_grid::{Layout, Real};

use crate::kernel::{Locator, Stencil};

/// Packed-base marker of a query another rank evaluates.
pub(crate) const FOREIGN: u64 = u64::MAX;

/// A routed, pre-resolved query set for one slab layout.
///
/// Built collectively by [`Interpolator::plan`](crate::Interpolator::plan);
/// valid for any field of the same layout and any [`IpOrder`](crate::IpOrder).
/// The per-query storage (fractions and packed base, 32 B per query in
/// f64) comes from the µSL workspace pools, so rebuilding plans of the same
/// size is allocation-free at steady state. Storage for queries received
/// from other ranks is sized by the traffic and is not pooled.
pub struct InterpPlan {
    pub(crate) layout: Layout,
    /// In-cell fractions of every caller query, in query order.
    pub(crate) t: PoolVec<[Real; 3]>,
    /// Packed stencil base of every caller query ([`FOREIGN`] when another
    /// rank owns it).
    pub(crate) base: PoolVec<u64>,
    /// Fractions of the received queries, grouped by source rank.
    pub(crate) remote_t: Vec<[Real; 3]>,
    /// Packed bases of the received queries.
    pub(crate) remote_base: Vec<u64>,
    /// `remote_*[recv_offsets[r]..recv_offsets[r + 1]]` came from rank `r`
    /// (empty on one rank).
    pub(crate) recv_offsets: Vec<usize>,
    /// Indices of this rank's foreign queries, per owning rank.
    pub(crate) origin: Vec<Vec<u32>>,
    /// Whether any rank has foreign queries (allreduced at build).
    pub(crate) any_foreign: bool,
}

impl InterpPlan {
    /// Number of caller queries.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True when the plan holds no caller queries.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Whether any rank of the build had queries owned by another rank
    /// (an apply then returns values over `interp_comm`).
    pub fn any_foreign(&self) -> bool {
        self.any_foreign
    }

    /// Pooled entry storage for `n` caller queries.
    pub(crate) fn entries(n: usize) -> (PoolVec<[Real; 3]>, PoolVec<u64>) {
        (
            R3_POOL.checkout_filled(n, [0.0 as Real; 3], WsCat::Sl),
            INDEX_POOL.checkout_filled(n, FOREIGN, WsCat::Sl),
        )
    }
}

/// Where a gather pass reads its stencils from: stored plan entries or
/// query points resolved on the fly.
pub(crate) trait StencilSource: Sync {
    /// Number of entries.
    fn len(&self) -> usize;
    /// Call `f(i, stencil)` for every entry `i` of `range` this rank owns,
    /// in order.
    fn for_each(&self, range: Range<usize>, f: impl FnMut(usize, &Stencil));
}

/// Stored plan entries.
pub(crate) struct Planned<'a> {
    pub t: &'a [[Real; 3]],
    pub base: &'a [u64],
}

impl StencilSource for Planned<'_> {
    fn len(&self) -> usize {
        self.t.len()
    }

    #[inline(always)]
    fn for_each(&self, range: Range<usize>, mut f: impl FnMut(usize, &Stencil)) {
        for ((&t, &b), i) in self.t[range.clone()].iter().zip(&self.base[range.clone()]).zip(range)
        {
            if b != FOREIGN {
                f(i, &Stencil::unpack(t, b));
            }
        }
    }
}

/// Query points resolved as they are read (the one-shot path).
pub(crate) struct OneShot<'a> {
    pub loc: Locator,
    pub pts: &'a [[Real; 3]],
}

/// Queries a one-shot pass resolves before evaluating any of them.
const BLOCK: usize = 64;

impl StencilSource for OneShot<'_> {
    fn len(&self) -> usize {
        self.pts.len()
    }

    /// Resolves a block of queries before evaluating it: resolving
    /// (divisions, conversions) and evaluating (loads, the accumulation
    /// chain) are each long dependency chains, and separate loops let
    /// consecutive queries overlap instead of each evaluation waiting on its
    /// own resolution.
    #[inline(always)]
    fn for_each(&self, range: Range<usize>, mut f: impl FnMut(usize, &Stencil)) {
        let mut block = [None; BLOCK];
        let mut start = range.start;
        while start < range.end {
            let end = (start + BLOCK).min(range.end);
            for (b, x) in block.iter_mut().zip(&self.pts[start..end]) {
                *b = self.loc.locate(*x).ok();
            }
            for (b, i) in block.iter().zip(start..end) {
                if let Some(s) = b {
                    f(i, s);
                }
            }
            start = end;
        }
    }
}
