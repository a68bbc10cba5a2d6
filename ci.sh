#!/usr/bin/env bash
# Local CI: formatting, lints, and the full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
# Includes the pruned-search acceptance checks: winners and cost bits of
# rank_orders_pruned_ladder and sweep_pruned_axis equal the exhaustive
# sweep's on the 1/2/4-rail Hydra grid (crates/bench/tests/costing_kernel.rs)
# and on the autotune grid, where the bound must prune (tests/proptests.rs).
# Also the engine-vs-oracle checks: FluidSim agrees with the fluid oracle on
# the 1024-core Splatt-like instance and on the 2-rail spread Alltoall, and
# 1-rail fabrics cost bit-identically to the aggregate model
# (crates/simnet/src/fluid.rs); the CPD winner flips exactly with the rail
# count (tests/paper_claims.rs).
# --no-fail-fast: a failing test binary must not hide the ones after it.
cargo test -q --workspace --no-fail-fast

echo "== perf benchmark unit tests (its own workspace; includes a --quick smoke of every workload)"
cargo test -q --release --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "== cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== figure goldens (release figure binaries reproduce results/ byte for byte)"
# fig8_splatt and fig8_rails cost 1- and 2-rail rounds (and fig8_rails
# 4-rail ones) through the per-core path rows of every costing kernel.
for bin in fig2_orders fig3_alltoall_hydra fig4_alltoall_hydra_128 fig5_alltoall_lumi \
  fig6_allreduce_hydra fig7_allgather_lumi fig8_splatt fig8_rails ablations table1 \
  fig9_cg_scaling; do
  cargo run -q --release -p mre-bench --bin "$bin" > "target/golden_$bin.out"
  cmp "target/golden_$bin.out" "results/$bin.txt"
done

echo "== fig8_rails source-hash golden (the merged-schedule fallback of the lockstep job-set cost)"
# At 2 and 4 rails, source-hash railing refuses the translation
# certificate for most layer job sets, so most of these rankings cost the
# merged schedules: this pins the fallback path.
cargo run -q --release -p mre-bench --bin fig8_rails -- --rail-policy src-hash \
  > target/golden_fig8_rails_src_hash.out
cmp target/golden_fig8_rails_src_hash.out results/fig8_rails_src_hash.txt

echo "== fig8_rails on 4 workers (the printed cache counters do not depend on the worker count)"
# SharedCostCache counts a key's miss where it inserts the key, so racing
# workers that compute one key at once count what a serial run counts.
MRE_PAR_THREADS=4 cargo run -q --release -p mre-bench --bin fig8_rails \
  > target/golden_fig8_rails_threads4.out
cmp target/golden_fig8_rails_threads4.out results/fig8_rails.txt
MRE_PAR_THREADS=4 cargo run -q --release -p mre-bench --bin fig8_rails -- --rail-policy src-hash \
  > target/golden_fig8_rails_src_hash_threads4.out
cmp target/golden_fig8_rails_src_hash_threads4.out results/fig8_rails_src_hash.txt

echo "== order_sweep golden (the ranked allgather sweep reproduces results/ byte for byte)"
cargo run -q --release -p mre-bench --bin order_sweep -- 16,2,2,8 16 allgather 4194304 \
  > target/golden_order_sweep.out
cmp target/golden_order_sweep.out results/order_sweep.txt

echo "== explore_orders golden (every class and member of LUMI 4,2,4,2,8 at s=16)"
cargo run -q --release --example explore_orders -- 4,2,4,2,8 16 > target/golden_explore_orders.out
cmp target/golden_explore_orders.out results/explore_orders.txt

echo "== trace_report smoke and golden"
cargo run -q -p mre-bench --bin trace_report -- \
  --machine hydra --collective alltoall --order 3-2-1-0 \
  --out target/trace_smoke.json >/dev/null
if command -v python3 >/dev/null; then
  python3 -c "import json; json.load(open('target/trace_smoke.json'))"
else
  echo "  (python3 unavailable; skipped JSON parse check)"
fi
# The plain report (no --out) is pinned byte for byte.
cargo run -q --release -p mre-bench --bin trace_report -- \
  --machine hydra --collective alltoall --order 3-2-1-0 > target/trace_report.out
cmp target/trace_report.out results/trace_report.txt

echo "== trace_diff smoke"
cargo run -q -p mre-bench --bin trace_diff -- \
  --machine hydra --nodes 1 --procs 4 --n 128 --iters 3 \
  --metrics-csv target/trace_diff_metrics.csv > target/trace_diff_smoke.out
grep -q "fidelity score:" target/trace_diff_smoke.out
grep -q "^counter,mpi.send.count," target/trace_diff_metrics.csv
# The telemetry bridge's remaining feed: the contention solver's counters.
grep -q "^counter,simnet.maxmin.solves," target/trace_diff_metrics.csv
# Every simnet row, byte for byte: the bridge's maxmin counters plus the
# timeline rows trace_diff adds from level_occupancy.
grep -E '^[a-z]+,simnet\.' target/trace_diff_metrics.csv > target/trace_diff_simnet_metrics.out
cmp target/trace_diff_simnet_metrics.out results/trace_diff_simnet_metrics.txt

echo "== trace_diff stencil smoke (streamed metrics)"
cargo run -q -p mre-bench --bin trace_diff -- \
  --workload stencil --dims 2x4 --face-bytes 4096 --iters 3 \
  --snapshot-every 16 --stream-csv target/trace_diff_stream.csv \
  > target/trace_diff_stencil_smoke.out
grep -q "fidelity score:" target/trace_diff_stencil_smoke.out
grep -q "^seq,events,kind,name,key,value" target/trace_diff_stream.csv

echo "== trace_report autotune goldens (the selector path, lockstep and fluid, byte for byte)"
cargo run -q -p mre-bench --bin trace_report -- \
  --machine hydra --collective allgather --order 3-2-1-0 --autotune \
  --out target/trace_autotune_smoke.json > target/trace_autotune_smoke.out
grep -q "cost cache:" target/trace_autotune_smoke.out
cargo run -q --release -p mre-bench --bin trace_report -- \
  --machine hydra --collective allgather --order 3-2-1-0 --autotune \
  > target/trace_autotune.out
cmp target/trace_autotune.out results/trace_report_autotune.txt
cargo run -q --release -p mre-bench --bin trace_report -- \
  --machine hydra --collective allgather --order 3-2-1-0 --autotune --fluid \
  > target/trace_autotune_fluid.out
cmp target/trace_autotune_fluid.out results/trace_report_autotune_fluid.txt

echo "== order_sweep --fluid golden and smoke (full ranking pinned; pruned best == exhaustive best)"
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 alltoall 1048576 --fluid > target/fluid_sweep_exhaustive.out
cmp target/fluid_sweep_exhaustive.out results/order_sweep_fluid.txt
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 alltoall 1048576 --fluid --pruned > target/fluid_sweep_pruned.out
grep "recommended order:" target/fluid_sweep_exhaustive.out > target/fluid_best_a
grep "recommended order:" target/fluid_sweep_pruned.out > target/fluid_best_b
cmp target/fluid_best_a target/fluid_best_b

echo "== order_sweep --fluid --pruned goldens (the bound ladder's costed/pruned counts pinned)"
# On one worker the evaluated/pruned split is deterministic, so these pin
# how much the fluid bound ladder prunes, not only the winner. The ring
# allreduce (Auto picks Ring at 4 MiB) repeats each round, so its bound
# walk sums repeated rounds without re-walking them; the 4-rail alltoall
# exercises the per-rail histograms. The wall-clock `time split:` line
# is filtered out.
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 allreduce 4194304 --fluid --pruned --threads 1 \
  | grep -v "^time split:" > target/fluid_pruned_allreduce.out
cmp target/fluid_pruned_allreduce.out results/order_sweep_fluid_pruned_allreduce.txt
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 alltoall 1048576 --nics 4 --fluid --pruned --threads 1 \
  | grep -v "^time split:" > target/fluid_pruned_nics4.out
cmp target/fluid_pruned_nics4.out results/order_sweep_fluid_pruned_nics4.txt

echo "== order_sweep --pruned lockstep goldens (the cheap rung's costed/pruned counts pinned)"
# The lockstep bound ladder on one worker: Hydra at 1 and 4 rails
# (pairwise alltoall) and LUMI at 64 KiB, where Auto picks Bruck. The
# cheap rung prunes all but one candidate on each, so these pin that its
# crossing-level walk bounds exactly as a per-hop walk does. The
# wall-clock `time split:` line is filtered out.
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 alltoall 1048576 --pruned --threads 1 \
  | grep -v "^time split:" > target/pruned_alltoall.out
cmp target/pruned_alltoall.out results/order_sweep_pruned_alltoall.txt
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 alltoall 1048576 --nics 4 --pruned --threads 1 \
  | grep -v "^time split:" > target/pruned_nics4.out
cmp target/pruned_nics4.out results/order_sweep_pruned_nics4.txt
cargo run -q --release -p mre-bench --bin order_sweep -- \
  4,2,4,2,8 16 alltoall 65536 --pruned --threads 1 \
  | grep -v "^time split:" > target/pruned_lumi.out
cmp target/pruned_lumi.out results/order_sweep_pruned_lumi.txt

echo "== worker-count smoke (the pruned recommendation is the same on 1, 2 and 4 workers)"
# The search seeds each cell with ceil(W/C) candidates at once (W workers,
# C payload cells), so on this 1 x 1 grid 4 workers cost 4 seeds before
# any pruning; the recommendation must not move, lockstep or fluid.
for mode in "" --fluid; do
  for t in 1 2 4; do
    cargo run -q --release -p mre-bench --bin order_sweep -- \
      16,2,2,8 16 alltoall 1048576 --pruned $mode --threads "$t" \
      | grep "recommended order:" > "target/threads_best_$t"
  done
  cmp target/threads_best_1 target/threads_best_2
  cmp target/threads_best_1 target/threads_best_4
done

echo "== rail sweep goldens and smoke (--nics 2 and --nics 4 fluid rankings pinned; pruned best == exhaustive best)"
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 alltoall 1048576 --nics 2 --fluid > target/rail_sweep_exhaustive.out
cmp target/rail_sweep_exhaustive.out results/order_sweep_fluid_nics2.txt
# The exhaustive 4-rail round-robin ranking: half of its 8 candidates are
# job sets that only a certificate counting the links communicator 0
# uses reduces, so this pins that the quotient moves no bit.
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 alltoall 1048576 --nics 4 --fluid > target/rail_sweep_nics4.out
cmp target/rail_sweep_nics4.out results/order_sweep_fluid_nics4.txt
cargo run -q --release -p mre-bench --bin order_sweep -- \
  16,2,2,8 16 alltoall 1048576 --nics 2 --fluid --pruned > target/rail_sweep_pruned.out
grep "recommended order:" target/rail_sweep_exhaustive.out > target/rail_best_a
grep "recommended order:" target/rail_sweep_pruned.out > target/rail_best_b
cmp target/rail_best_a target/rail_best_b

echo "== bound-ladder smoke (per-rail rung prunes strictly more than aggregate, same winner)"
# Ring allreduce under round-robin railing is parity-degenerate (whole
# rounds land on one of the 4 rails), so the per-rail histogram rung
# must cost strictly fewer candidates than the pooled aggregate bound —
# with a byte-identical recommendation, since both bounds are
# admissible. MRE_PAR_THREADS=1 pins the evaluated/pruned split (the
# winner is interleaving-invariant, the split is not).
MRE_PAR_THREADS=1 cargo run -q --release -p mre-bench --bin order_sweep -- \
  8,2,2,8 64 allreduce 4194304 --pruned --fluid --nics 4 \
  > target/ladder_per_rail.out
MRE_PAR_THREADS=1 cargo run -q --release -p mre-bench --bin order_sweep -- \
  8,2,2,8 64 allreduce 4194304 --pruned --fluid --nics 4 --bound aggregate \
  > target/ladder_aggregate.out
grep "recommended order:" target/ladder_per_rail.out > target/ladder_best_a
grep "recommended order:" target/ladder_aggregate.out > target/ladder_best_b
cmp target/ladder_best_a target/ladder_best_b
costed_per_rail=$(sed -n 's/^branch-and-bound: \([0-9]*\) costed.*/\1/p' target/ladder_per_rail.out)
costed_aggregate=$(sed -n 's/^branch-and-bound: \([0-9]*\) costed.*/\1/p' target/ladder_aggregate.out)
test "$costed_per_rail" -lt "$costed_aggregate"
# The pruned sweep times its own rungs and reports the bound-vs-cost split.
grep -Eq "^time split: bound_ns=[0-9]+ cost_ns=[0-9]+ \(bound share [0-9.]+%\)$" \
  target/ladder_per_rail.out

echo "== round-memo smoke (warm-cache rail sweep reports round_hits > 0, same recommendation)"
# The ring allreduce's reduce-scatter and allgather phases reuse the same
# endpoint rings, so a single pruned sweep resolves almost every round
# from the round-level memo — and the pruned path must recommend the
# byte-identical order the exhaustive sweep, which costs every class,
# does.
cargo run -q --release -p mre-bench --bin order_sweep -- \
  8,2,2,8 64 allreduce 4194304 --pruned --nics 4 > target/round_memo_pruned.out
cargo run -q --release -p mre-bench --bin order_sweep -- \
  8,2,2,8 64 allreduce 4194304 --nics 4 > target/round_memo_exhaustive.out
round_hits=$(sed -n 's/^cost cache: .*round_hits=\([0-9]*\).*/\1/p' target/round_memo_pruned.out)
test -n "$round_hits" && test "$round_hits" -gt 0
grep "recommended order:" target/round_memo_pruned.out > target/round_memo_best_a
grep "recommended order:" target/round_memo_exhaustive.out > target/round_memo_best_b
cmp target/round_memo_best_a target/round_memo_best_b

echo "== congestion_report smoke and goldens (hot link is the node uplink; 2 NICs halve its byte load)"
cargo run -q --release -p mre-bench --bin congestion_report -- \
  --machine hydra --nodes 16 --bytes 4194304 --top-k 3 \
  > target/congestion_1nic.out
# The concurrent spread alltoall saturates the NIC: the hottest link of the
# run is a node-level link carrying 7.9 MB.
grep -q "^   1\. node\[0\]\..*7\.9 MB" target/congestion_1nic.out
cmp target/congestion_1nic.out results/congestion_report.txt
cargo run -q --release -p mre-bench --bin congestion_report -- \
  --machine hydra --nodes 16 --bytes 4194304 --top-k 3 \
  --nics 2 --rail-policy affinity > target/congestion_2nic.out
# A second NIC under the affinity policy splits each node's crossing
# traffic exactly in half: the hot link drops to 3.9 MB and both node
# rails stay active and balanced.
grep -q "^   1\. node\[0\]\..*3\.9 MB" target/congestion_2nic.out
grep -q "rail1" target/congestion_2nic.out
grep -Eq "^  node +0 .*1\.000$" target/congestion_2nic.out
cmp target/congestion_2nic.out results/congestion_report_nics2.txt
# Bound-gap telemetry: the node level is NIC-bound, so its gap is ~0.
grep -Eq "^  node .* 0\.000 +0\.0%$" target/congestion_1nic.out

echo "== CI OK"
