//! # mre-simnet — hierarchical network & memory performance model
//!
//! The simulated fabric standing in for the paper's clusters (Hydra's
//! Omni-Path, LUMI's Slingshot-11, and the intra-node interconnects).
//!
//! The machine is modeled as the tree its [`mre_core::Hierarchy`] spans:
//! every instance of a hierarchy level owns one full-duplex *uplink* to its
//! parent instance with a calibrated bandwidth (or, on multi-rail fabrics,
//! several parallel *rails* at that bandwidth each — see [`rail`]), and
//! every pair of cores communicates along the unique tree path through
//! their lowest common ancestor. Concurrent messages share traversed links **max-min fairly**
//! (progressive water-filling), which is what produces the paper's central
//! effects: spread mappings win when a single communicator has the fabric
//! to itself, packed mappings win (and stay constant) when many
//! communicators compete for the per-node NICs.
//!
//! Collectives are costed as [`schedule::Schedule`]s — rounds of concurrent
//! messages — either alone or merged in lockstep with the schedules of
//! other communicators ([`network::NetworkModel::concurrent_time`]). When
//! those communicators are translates of communicator 0 on the fabric
//! ([`certificate`]), the merged rounds are solved on communicator 0's
//! flows alone ([`SharedCostCache::job_set_time`]).
//!
//! Compute phases use a roofline with hierarchically shared memory
//! bandwidth ([`memory::MemoryModel`]): cores under the same L3/NUMA/socket
//! split those levels' capacities, reproducing the core-selection effects
//! of the paper's Fig. 9.
//!
//! Calibrations for the two machines of the paper are in [`presets`]; they
//! aim at the right orders of magnitude and relative capacities, not at
//! matching absolute MB/s (see DESIGN.md §5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bound;
pub mod certificate;
pub mod congestion;
pub mod contention;
pub mod fluid;
pub mod memory;
pub mod network;
pub mod presets;
pub mod rail;
pub mod schedule;
pub mod symbolic;
pub mod timeline;
pub mod workspace;

pub use bound::{
    fluid_lower_bound, fluid_lower_bound_aggregate, schedule_lower_bound,
    schedule_lower_bound_aggregate, RoundLoad,
};
pub use certificate::TranslationCertificate;
pub use congestion::{
    bound_gap_fluid, bound_gap_lockstep, BoundGap, CongestionProbe, LinkUsage, RailOccupancy,
    RateSegment, RoundMark,
};
pub use contention::max_min_rates;
pub use fluid::{
    fluid_time, fluid_time_with_stats, fluid_timeline, FluidMessageSpan, FluidSim, FluidStats,
    FluidTimeline,
};
pub use memory::MemoryModel;
pub use network::{ContentionMode, LinkParams, NetworkModel, RoundProfile};
pub use rail::{assign_rail, LinkPath, PathHop, RailLinkTable, RailPolicy};
pub use schedule::{CacheStats, JobSetEngine, Message, Round, Schedule, SharedCostCache};
pub use symbolic::{PayloadEnvelope, SymbolicScheduleCost};
pub use timeline::{MessageTiming, RoundTimeline, ScheduleTimeline};
pub use workspace::{thread_workspace_rounds, RoundWorkspace};
