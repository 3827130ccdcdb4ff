//! Scattered-data interpolation for the semi-Lagrangian scheme (paper §3.1).
//!
//! The semi-Lagrangian transport solver evaluates fields at the off-grid
//! end points of backward characteristics. On the paper's multi-GPU systems
//! this is the most important kernel; its distributed workflow has five
//! instrumented phases that Table 2 reports. The first two depend only on
//! the query points, so for a query set that is interpolated repeatedly —
//! the characteristic feet, fixed for a given velocity — they run once,
//! when an [`InterpPlan`] is built ([`Interpolator::plan`]):
//!
//! 1. `scatter_mpi_buffer` — find each query's owning rank, bucket the
//!    foreign ones (the paper uses `thrust::copy_if` on the GPU), and
//!    resolve every query this rank evaluates into a stencil entry;
//! 2. `scatter_comm` — ship off-rank query points to their owners (plus one
//!    allreduced flag: does any rank have foreign queries?).
//!
//! The last three run on every apply ([`Interpolator::apply_many_into`]):
//!
//! 3. `ghost_comm` — exchange the x1 ghost layers of the interpolated field
//!    needed by stencils near slab boundaries;
//! 4. `interp_kernel` — gather the stored stencils over the ghost fields;
//! 5. `interp_comm` — return interpolated values to the requesting ranks
//!    (skipped when no rank has foreign queries).
//!
//! The one-shot calls ([`Interpolator::interp_many`] and friends) run all
//! five phases per call, resolving each query's stencil as they evaluate
//! it. Both paths, and the single-point [`kernel::interp_ghost`], share one
//! stencil definition (`kernel`'s `Locator` and `Stencil`), so their
//! results agree bit for bit.
//!
//! Two kernels are provided, mirroring the paper's production choices:
//! trilinear (`GPU-TXTLIN`, cost ~30 flop/query) and cubic Lagrange
//! (`GPU-TXTLAG`, ~482 flop/query). The paper prefers GPU-TXTLAG over the
//! prefiltered spline kernel in the distributed setting because the latter
//! would need an extra ghost exchange for the prefilter.

pub mod dist;
pub mod kernel;
pub mod plan;

pub use dist::{Interpolator, PhaseStats};
pub use kernel::IpOrder;
pub use plan::InterpPlan;
