//! # mre-mpi — a thread-backed message-passing runtime
//!
//! The MPI substitute of this reproduction. It provides the pieces of MPI
//! the paper's technique touches:
//!
//! * a [`runtime`] that runs `n` ranks as threads with typed, tagged
//!   point-to-point messaging;
//! * [`comm`] — communicators with `split(color, key)` (the paper's
//!   rank-reordering method 1 is exactly `MPI_Comm_split` keyed by the
//!   reordered rank), rank translation and duplication;
//! * [`collectives`] — functional implementations of the non-rooted
//!   collectives the paper benchmarks (Alltoall(v), Allreduce, Allgather)
//!   plus the rooted ones Splatt uses (Bcast, Reduce, Gather, Scan), each
//!   in the textbook algorithm variants (ring, recursive doubling, Bruck,
//!   pairwise, binomial);
//! * [`schedules`] — *pure* generators producing the
//!   [`mre_simnet::Schedule`] of every algorithm from a communicator's
//!   member core list, so mappings can be costed at cluster scale (512–2048
//!   ranks) without spawning threads;
//! * [`algorithm`] — the size-based auto-selection policy mimicking how
//!   MPI implementations pick algorithms, and [`Collective`], the one
//!   home of the §4.1 size rule and of the collective × algorithm →
//!   generator dispatch ([`Collective::schedule`]);
//! * [`autotune`] — the per-subcommunicator [`AlgorithmSelector`], which
//!   costs each candidate [`Collective`] on the simulated machine instead
//!   of trusting the size thresholds.
//!
//! Functional execution verifies *correctness* of the communicator
//! machinery at modest rank counts; the schedule generators, evaluated by
//! `mre-simnet` under contention, provide *timing* at paper scale. Both
//! paths share the same algorithm definitions (tested against each other).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod autotune;
pub mod cart;
pub mod collectives;
pub mod comm;
pub mod payload;
pub mod runtime;
pub mod schedules;
pub mod split_type;

pub use algorithm::{AllgatherAlg, AllreduceAlg, AlltoallAlg, Collective};
pub use autotune::{AlgorithmChoice, AlgorithmSelector};
pub use cart::CartTopology;
pub use comm::Comm;
pub use payload::Payload;
pub use runtime::{run, run_instrumented, Proc};
