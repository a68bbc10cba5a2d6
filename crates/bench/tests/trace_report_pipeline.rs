//! The `trace_report` pipeline as a test: the Chrome trace emitted for a
//! Hydra alltoall must describe a timeline whose critical path ends
//! exactly at the simnet-costed schedule time.

use mre_core::subcomm::{subcommunicators, ColorScheme};
use mre_core::Permutation;
use mre_mpi::AlltoallAlg;
use mre_simnet::presets::hydra_network;
use mre_trace::{chrome_trace_json, critical_path, schedule_trace};
use mre_workloads::microbench::{Collective, Microbench};

#[test]
fn trace_report_pipeline_matches_costed_time() {
    let net = hydra_network(16, 1);
    let machine = net.hierarchy().clone();
    for order_text in ["3-2-1-0", "0-1-2-3", "2-0-3-1"] {
        let order = Permutation::parse(order_text).unwrap();
        let layout = subcommunicators(&machine, &order, 16, ColorScheme::Quotient).unwrap();
        let bench = Microbench {
            machine: machine.clone(),
            order: order.clone(),
            subcomm_size: 16,
            collective: Collective::Alltoall(AlltoallAlg::Auto),
            total_bytes: 4 << 20,
        };
        let schedule = bench
            .schedule_for_rails(layout.members(0), 1)
            .canonicalized();
        let timeline = net.schedule_timeline(&schedule).unwrap();
        let cp = critical_path(&machine, &timeline);
        let costed = net.schedule_time(&schedule);
        assert!(
            (cp.total_time - costed).abs() <= 1e-12 * costed.max(1e-30),
            "order {order_text}: critical path {} vs costed {}",
            cp.total_time,
            costed
        );
        // The export carries the same total duration (in µs) and is
        // loadable structure-wise: every event row closes its braces.
        let trace = schedule_trace(&machine, &timeline, "alltoall:hydra");
        assert!((trace.duration() - costed).abs() <= 1e-12 * costed.max(1e-30));
        let json = chrome_trace_json(&trace);
        assert!(json.contains("\"name\":\"alltoall:hydra\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
