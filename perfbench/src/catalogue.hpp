// The benchmark's metric names: the end-to-end metrics every untraced run
// prints, and the per-layer metrics every traced run prints, each with the
// workload where the layer does its work and the end-to-end metric it
// should move there. BENCHMARK.json lists the same names; the self-test
// checks that they agree.
#pragma once

namespace perfbench {

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// End-to-end metrics. "unit" is the workload's closed-loop unit: a flow
/// (paper_flow), a PWL+NR transient pair (circuit_transient), a cold +
/// warm + snapshot round (farm_store), an exec batch (exec_batch); parts a
/// and b are its two timed sub-cases (see README.md).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},   {"unit_p50_ms", "ms"},
    {"unit_p75_ms", "ms"},    {"units_per_s", "1/s"},   {"part_a_p50_ms", "ms"},
    {"part_b_p50_ms", "ms"},  {"work_per_unit", "count"},
};

struct LayerSpec {
    const char* name;
    const char* unit;
    const char* workload;  ///< where the layer does its work
    const char* moves;     ///< the end-to-end metric it should move there
};

inline constexpr LayerSpec kLayers[] = {
    // paper_flow: DesignFlow phases, node simulations, DoE runner, RSM, optimizer.
    {"core.flow.ccd_ms", "ms", "paper_flow", "unit_p50_ms part_a_p50_ms"},
    {"core.flow.fit_ms", "ms", "paper_flow", "unit_p50_ms part_b_p50_ms"},
    {"core.flow.validate_ms", "ms", "paper_flow", "unit_p50_ms part_a_p50_ms"},
    {"core.flow.optimize_ms", "ms", "paper_flow", "unit_p50_ms part_b_p50_ms"},
    {"core.flow.explore_ms", "ms", "paper_flow", "unit_p50_ms part_b_p50_ms"},
    {"node.sim_us_p50", "us", "paper_flow", "unit_p50_ms part_a_p50_ms"},
    {"node.sim_us_p90", "us", "paper_flow", "unit_p50_ms part_a_p50_ms"},
    {"node.sims", "count", "paper_flow", "work_per_unit"},
    {"node.share", "ratio", "paper_flow", "unit_p50_ms"},
    {"doe.points", "count", "paper_flow", "work_per_unit"},
    {"doe.memo_hits", "count", "paper_flow", "work_per_unit"},
    {"doe.memo_hit_ratio", "ratio", "paper_flow", "work_per_unit unit_p50_ms"},
    {"doe.self_us", "us", "paper_flow", "unit_p50_ms"},
    {"rsm.fit_us", "us", "paper_flow", "unit_p50_ms part_b_p50_ms"},
    {"rsm.queries", "count", "paper_flow", "unit_p50_ms part_b_p50_ms"},
    {"rsm.query_ns", "ns", "paper_flow", "unit_p50_ms part_b_p50_ms"},
    {"opt.rsm_evaluations", "count", "paper_flow", "unit_p50_ms part_b_p50_ms"},
    {"opt.self_ms", "ms", "paper_flow", "unit_p50_ms part_b_p50_ms"},
    {"rsm.nrmse.E_cons", "ratio", "paper_flow", "rsm_nrmse_max (detail)"},
    {"rsm.nrmse.E_harv", "ratio", "paper_flow", "rsm_nrmse_max (detail)"},
    {"rsm.nrmse.E_tune", "ratio", "paper_flow", "rsm_nrmse_max (detail)"},
    {"rsm.nrmse.V_min", "ratio", "paper_flow", "rsm_nrmse_max (detail)"},
    {"rsm.nrmse.downtime", "ratio", "paper_flow", "rsm_nrmse_max (detail)"},
    {"rsm.nrmse.packets", "ratio", "paper_flow", "rsm_nrmse_max (detail)"},
    {"rsm.nrmse_max", "ratio", "paper_flow", "rsm_nrmse_max (detail)"},
    // circuit_transient: the two engines, their expm kernel and the circuit callbacks.
    {"sim.pwl.steps", "count", "circuit_transient", "part_a_p50_ms work_per_unit"},
    {"sim.pwl.retried_steps", "count", "circuit_transient", "part_a_p50_ms work_per_unit"},
    {"sim.pwl.segment_changes", "count", "circuit_transient", "part_a_p50_ms"},
    {"sim.pwl.expm_builds", "count", "circuit_transient", "part_a_p50_ms"},
    {"sim.pwl.ns_per_step", "ns", "circuit_transient", "part_a_p50_ms"},
    {"sim.pwl.drms", "ratio", "circuit_transient", "pwl_drms (detail)"},
    {"numerics.discretize_zoh_us", "us", "circuit_transient", "part_a_p50_ms"},
    {"harvester.pwl_callback_calls", "count", "circuit_transient", "part_a_p50_ms"},
    {"sim.nr.newton_iterations", "count", "circuit_transient", "part_b_p50_ms work_per_unit"},
    {"sim.nr.jacobian_builds", "count", "circuit_transient", "part_b_p50_ms"},
    {"sim.nr.lu_factorizations", "count", "circuit_transient", "part_b_p50_ms"},
    {"sim.nr.rhs_evaluations", "count", "circuit_transient", "part_b_p50_ms"},
    {"sim.nr.nonconverged_steps", "count", "circuit_transient", "part_b_p50_ms"},
    {"sim.nr.ns_per_step", "ns", "circuit_transient", "part_b_p50_ms"},
    {"harvester.rhs_ns", "ns", "circuit_transient", "part_b_p50_ms"},
    {"harvester.rhs_share", "ratio", "circuit_transient", "part_b_p50_ms"},
    // farm_store: memo -> snapshot -> store -> remote, and the daemons behind them.
    {"doe.batch_ms.cold", "ms", "farm_store", "part_a_p50_ms"},
    {"doe.batch_ms.warm", "ms", "farm_store", "part_b_p50_ms"},
    {"doe.batch_ms.snapshot", "ms", "farm_store", "unit_p50_ms"},
    {"net.remote.batch_ms", "ms", "farm_store", "part_a_p50_ms"},
    {"net.server.eval_p50_us", "us", "farm_store", "part_a_p50_ms"},
    {"net.server.eval_p99_us", "us", "farm_store", "part_a_p50_ms"},
    {"net.server.points_served", "count", "farm_store", "part_a_p50_ms work_per_unit"},
    {"net.remote.wait_share", "ratio", "farm_store", "part_a_p50_ms"},
    {"store.self_us.cold", "us", "farm_store", "part_a_p50_ms"},
    {"store.self_us.warm", "us", "farm_store", "part_b_p50_ms"},
    {"store.hits", "count", "farm_store", "part_b_p50_ms work_per_unit"},
    {"store.puts", "count", "farm_store", "part_a_p50_ms"},
    {"store.hit_ratio", "ratio", "farm_store", "part_b_p50_ms"},
    {"store.server.records_appended", "count", "farm_store", "part_a_p50_ms"},
    {"store.server.segments", "count", "farm_store", "part_b_p50_ms"},
    {"core.snapshot.self_us", "us", "farm_store", "unit_p50_ms part_a_p50_ms"},
    {"core.snapshot.hits", "count", "farm_store", "unit_p50_ms work_per_unit"},
    {"core.snapshot.save_ms", "ms", "farm_store", "part_a_p50_ms"},
    // exec_batch: external simulator processes.
    {"exec.launches", "count", "exec_batch", "part_a_p50_ms work_per_unit"},
    {"exec.relaunches", "count", "exec_batch", "part_a_p50_ms work_per_unit"},
    {"exec.timeouts", "count", "exec_batch", "part_a_p50_ms"},
    {"exec.point_p50_us", "us", "exec_batch", "part_a_p50_ms units_per_s"},
    {"exec.point_p99_us", "us", "exec_batch", "unit_p75_ms"},
    // Every workload: the cost and completeness of the tracing itself.
    {"trace.overhead_ms", "ms", "all", "traced unit p50 minus untraced unit p50"},
    {"trace.overhead_share", "ratio", "all", "trace.overhead_ms over untraced unit p50"},
    {"trace.self_coverage", "ratio", "all", "sum of layer self times over traced unit wall"},
};

}  // namespace perfbench
