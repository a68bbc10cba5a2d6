//! # mre-bench — the reproduction harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), built on the
//! shared sweep-and-format utilities in this library, plus the
//! `order_sweep`, `trace_report`, `trace_diff` and `congestion_report`
//! tools and a dependency-free timing of one point per figure
//! (`benches/figures.rs`, built on [`tinybench`]). End-to-end timing of
//! the order-search pipeline is the seeded `perf` benchmark, a package of
//! its own under `src/bin/perf/`.
//!
//! Figure sweeps fan out across orders on the [`mre_core::par`] worker
//! pool (set `MRE_PAR_THREADS=1` to force serial execution) and share one
//! [`mre_simnet::SharedCostCache`] across all orders and the
//! message-size sweep, so each round's contention is solved once per
//! communication pattern instead of once per size.
//!
//! | binary                    | reproduces |
//! |---------------------------|------------|
//! | `table1`                  | Table 1 — orders applied to rank 10 on ⟦2,2,4⟧ |
//! | `fig2_orders`             | Fig. 2 — all orders of ⟦2,2,4⟧ with Slurm spellings |
//! | `fig3_alltoall_hydra`     | Fig. 3 — Alltoall, 512 ranks, 16/comm, Hydra |
//! | `fig4_alltoall_hydra_128` | Fig. 4 — Alltoall, 512 ranks, 128/comm, Hydra |
//! | `fig5_alltoall_lumi`      | Fig. 5 — Alltoall, 2048 ranks, 16/comm, LUMI |
//! | `fig6_allreduce_hydra`    | Fig. 6 — Allreduce, 512 ranks, 64/comm, Hydra |
//! | `fig7_allgather_lumi`     | Fig. 7 — Allgather, 2048 ranks, 256/comm, LUMI |
//! | `fig8_splatt`             | Fig. 8 — Splatt CPD, 1024 ranks, 24 orders, 1/2 NICs |
//! | `fig9_cg_scaling`         | Fig. 9 — NAS CG strong scaling on one LUMI node |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod tinybench;

use mre_core::metrics::characterize_order;
use mre_core::subcomm::ColorScheme;
use mre_core::{Hierarchy, Permutation};
use mre_simnet::{NetworkModel, SharedCostCache};
use mre_workloads::microbench::{Collective, Microbench};

/// One point of a collective-figure sweep.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// The order.
    pub order: Permutation,
    /// Legend string (`order (ring cost - pairs per level)`).
    pub legend: String,
    /// Total data size (bytes).
    pub size: u64,
    /// Bandwidth (bytes/s) with one active communicator.
    pub single_bw: f64,
    /// Bandwidth (bytes/s) with all communicators active.
    pub simultaneous_bw: f64,
}

/// A collective micro-benchmark figure specification (Figs. 3–7).
#[derive(Debug, Clone)]
pub struct CollectiveFigure {
    /// Figure label (for headers).
    pub label: &'static str,
    /// The machine hierarchy.
    pub machine: Hierarchy,
    /// The orders plotted (the paper's legend subset).
    pub orders: Vec<Permutation>,
    /// Which order is the Slurm default (legend annotation), if plotted.
    pub slurm_default: Option<Permutation>,
    /// Processes per subcommunicator.
    pub subcomm_size: usize,
    /// The collective.
    pub collective: Collective,
    /// The size sweep (bytes).
    pub sizes: Vec<u64>,
}

impl CollectiveFigure {
    /// Runs the full sweep: orders in parallel on the [`mre_core::par`]
    /// pool, all costing through one [`SharedCostCache`]. Rows come back
    /// in the same (order-major, then size) sequence as the serial loop
    /// did.
    pub fn run(&self, net: &NetworkModel) -> Vec<FigureRow> {
        let cache = SharedCostCache::new();
        let per_order: Vec<Vec<FigureRow>> = mre_core::par::map(&self.orders, |_, order| {
            let c = characterize_order(&self.machine, order, self.subcomm_size)
                .expect("figure orders are valid for the machine");
            self.sizes
                .iter()
                .map(|&size| {
                    let bench = Microbench {
                        machine: self.machine.clone(),
                        order: order.clone(),
                        subcomm_size: self.subcomm_size,
                        collective: self.collective,
                        total_bytes: size,
                    };
                    let r = bench
                        .run_with_scheme_cached(net, ColorScheme::Quotient, &cache)
                        .expect("sweep configuration is valid");
                    FigureRow {
                        order: order.clone(),
                        legend: c.legend(),
                        size,
                        single_bw: r.single_bandwidth(size),
                        simultaneous_bw: r.simultaneous_bandwidth(size),
                    }
                })
                .collect()
        });
        per_order.into_iter().flatten().collect()
    }

    /// Prints the sweep as two aligned tables (single / simultaneous),
    /// sizes as columns — the shape of the paper's plots.
    pub fn print(&self, net: &NetworkModel, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let rows = self.run(net);
        let n_comms = self.machine.size() / self.subcomm_size;
        writeln!(out, "# {}", self.label)?;
        writeln!(
            out,
            "# machine {} = {} cores, {} comms x {} procs",
            self.machine,
            self.machine.size(),
            n_comms,
            self.subcomm_size
        )?;
        for (title, pick) in [
            ("1 simultaneous communicator", 0usize),
            ("all simultaneous communicators", 1usize),
        ] {
            writeln!(out, "\n## {title} — bandwidth (MB/s)")?;
            write!(out, "{:<42}", "order (ring cost - % pairs/level)")?;
            for &s in &self.sizes {
                write!(out, " {:>9}", human_size(s))?;
            }
            writeln!(out)?;
            for order in &self.orders {
                let legend = rows
                    .iter()
                    .find(|r| &r.order == order)
                    .expect("row exists")
                    .legend
                    .clone();
                let marker = if self.slurm_default.as_ref() == Some(order) {
                    "*"
                } else {
                    " "
                };
                write!(out, "{marker}{legend:<41}")?;
                for &s in &self.sizes {
                    let row = rows
                        .iter()
                        .find(|r| &r.order == order && r.size == s)
                        .expect("row exists");
                    let bw = if pick == 0 {
                        row.single_bw
                    } else {
                        row.simultaneous_bw
                    };
                    write!(out, " {:>9.1}", bw / 1e6)?;
                }
                writeln!(out)?;
            }
        }
        writeln!(out, "\n(* = Slurm default mapping)")?;
        Ok(())
    }
}

/// Formats a byte count like the paper's axes (16 KB, 1 MB, …).
pub fn human_size(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} KB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

/// Parses order strings like `"0-1-2-3"` into the figure's order list.
pub fn orders(specs: &[&str]) -> Vec<Permutation> {
    specs
        .iter()
        .map(|s| Permutation::parse(s).expect("static order strings are valid"))
        .collect()
}

/// The reduced size sweep used by default (2^14 … 2^29 in steps of 4×,
/// keeping runtimes reasonable); pass `--full` to binaries for the paper's
/// every-power-of-two sweep.
pub fn default_sizes(full: bool) -> Vec<u64> {
    if full {
        (14..=29).map(|e| 1u64 << e).collect()
    } else {
        (14..=29).step_by(2).map(|e| 1u64 << e).collect()
    }
}

/// Shared argv handling for the figure binaries: `--full` toggles the full
/// sweep.
pub fn full_sweep_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mre_mpi::AlltoallAlg;
    use mre_simnet::presets::hydra_network;

    #[test]
    fn human_size_formats() {
        assert_eq!(human_size(16 * 1024), "16 KB");
        assert_eq!(human_size(8 << 20), "8 MB");
        assert_eq!(human_size(512), "512 B");
    }

    #[test]
    fn default_sizes_cover_paper_axis() {
        let reduced = default_sizes(false);
        assert_eq!(*reduced.first().unwrap(), 16 * 1024);
        let full = default_sizes(true);
        assert_eq!(full.len(), 16);
    }

    #[test]
    fn figure_runner_produces_all_rows() {
        let fig = CollectiveFigure {
            label: "test",
            machine: Hierarchy::new(vec![4, 2, 2, 8]).unwrap(),
            orders: orders(&["0-1-2-3", "3-2-1-0"]),
            slurm_default: None,
            subcomm_size: 16,
            collective: Collective::Alltoall(AlltoallAlg::Pairwise),
            sizes: vec![1 << 16, 1 << 20],
        };
        let net = hydra_network(4, 1);
        let rows = fig.run(&net);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.single_bw > 0.0);
            assert!(r.simultaneous_bw > 0.0);
            assert!(r.simultaneous_bw <= r.single_bw * 1.0001);
        }
    }

    #[test]
    fn figure_print_renders_tables() {
        let fig = CollectiveFigure {
            label: "smoke",
            machine: Hierarchy::new(vec![4, 2, 2, 8]).unwrap(),
            orders: orders(&["0-1-2-3"]),
            slurm_default: Some(Permutation::parse("0-1-2-3").unwrap()),
            subcomm_size: 16,
            collective: Collective::Alltoall(AlltoallAlg::Pairwise),
            sizes: vec![1 << 16],
        };
        let net = hydra_network(4, 1);
        let mut buf = Vec::new();
        fig.print(&net, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("smoke"));
        assert!(text.contains("simultaneous"));
        assert!(text.contains("*0-1-2-3"));
    }
}
