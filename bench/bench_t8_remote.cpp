// T8 — distributed evaluation: the same S1 CCD run through the sharded
// remote evaluation service — net::RemoteBackend over 1, 2 and 4 loopback
// net::EvalServer shards (one worker each, so the shard count is the
// parallelism unit) — against the in-process serial reference. Checks the
// service contract: bitwise-identical responses at every shard count, and
// every point evaluated exactly once (no lost or doubled work under
// sharding).
//
// A heterogeneous-farm case follows the sweep: one deliberately slowed
// shard (sleep-handicapped simulation, same fingerprint — the arithmetic
// and therefore the bits are untouched) paired with a fast one, evaluated
// under uniform weights (exactly the i mod n split) and under
// throughput-weighted sharding with calibrated explicit weights. The weighted run must stop
// idling the fast shard, and both must stay bitwise identical.
//
// On a multi-core host the wall time shrinks with the shard count; on a
// single-CPU container the point of the run is the contract, not the
// speedup (the hetero handicap is sleep-based, so its effect shows even
// there). Appends the sweep as one JSONL line to the tracked
// perf-trajectory ledger bench/history/t8_remote.jsonl (see
// bench/history/README.md).
#include <chrono>
#include <ctime>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "core/thread_pool.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "net/eval_server.hpp"
#include "net/remote_backend.hpp"

using namespace ehdoe;
using namespace ehdoe::core;

namespace {

struct SweepPoint {
    std::string label;
    std::size_t shards = 0;
    double wall_seconds = 0.0;
    double speedup = 0.0;
    std::size_t simulations = 0;
    std::size_t points_served = 0;  ///< summed over the shard servers
    bool identical = false;
    /// Per-eval latency of this row only (farm-merged histogram delta for
    /// remote rows, bench-local timing for the in-process reference).
    core::telemetry::LatencyHistogram latency;
};

/// "p50/p95/p99 ms" cell of a row's latency distribution.
std::string latency_cell(const core::telemetry::LatencyHistogram& h) {
    if (h.total() == 0) return "-";
    std::ostringstream out;
    out << format_double(h.percentile_us(50.0) / 1000.0, 1) << "/"
        << format_double(h.percentile_us(95.0) / 1000.0, 1) << "/"
        << format_double(h.percentile_us(99.0) / 1000.0, 1);
    return out.str();
}

}  // namespace

int main() {
    const std::size_t hw = ThreadPool::hardware_threads();
    std::cout << "T8 - sharded remote evaluation over the S1 CCD (48 runs, 600 s\n"
                 "horizon; "
              << hw << " hardware threads). In-process reference vs 1/2/4 loopback\n"
                 "eval-server shards, one worker per shard.\n\n";

    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, 600.0);
    const doe::DesignSpace space = sc.design_space();
    const doe::Design design = doe::central_composite(space.dimension());
    const std::string fp = sc.fingerprint();

    // The shard pool: four single-worker servers on ephemeral loopback
    // ports; each sweep row uses a prefix of them.
    std::vector<std::unique_ptr<net::EvalServer>> servers;
    for (int i = 0; i < 4; ++i) {
        net::EvalServerOptions so;
        so.workers = 1;
        so.fingerprint = fp;
        servers.push_back(std::make_unique<net::EvalServer>(sc.make_simulation(), so));
        servers.back()->start();
    }
    auto endpoints = [&](std::size_t shards) {
        std::vector<std::string> eps;
        for (std::size_t i = 0; i < shards; ++i) {
            eps.push_back("127.0.0.1:" + std::to_string(servers[i]->port()));
        }
        return eps;
    };
    auto served_total = [&] {
        std::size_t n = 0;
        for (const auto& s : servers) n += s->points_served();
        return n;
    };
    auto farm_latency = [&] {
        core::telemetry::LatencyHistogram h;
        for (const auto& s : servers) h.merge(s->latency_histogram());
        return h;
    };

    std::vector<SweepPoint> sweep;
    doe::RunResults reference;
    bool contract_ok = true;
    for (const std::size_t shards : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
        doe::RunnerOptions o;
        if (shards > 0) {
            o.endpoints = endpoints(shards);
            o.cache_fingerprint = fp;
        }
        const std::size_t served_before = served_total();
        const core::telemetry::LatencyHistogram latency_before = farm_latency();
        // The reference row has no server-side histogram — time each eval
        // locally so every row of the ledger carries the same percentiles.
        auto local_latency = std::make_shared<core::telemetry::LatencyHistogram>();
        doe::Simulation sim = sc.make_simulation();
        if (shards == 0) {
            sim = [inner = std::move(sim), local_latency](const num::Vector& nat) {
                const auto t0 = std::chrono::steady_clock::now();
                auto responses = inner(nat);
                local_latency->record_seconds(
                    std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                        .count());
                return responses;
            };
        }
        doe::BatchRunner runner(std::move(sim), o);
        const doe::RunResults r = runner.run_design(space, design);

        SweepPoint p;
        p.label = shards == 0 ? "in-process x1 (reference)"
                              : "remote x" + std::to_string(shards);
        p.shards = shards;
        p.wall_seconds = r.wall_seconds;
        p.simulations = r.simulations;
        p.points_served = served_total() - served_before;
        if (shards == 0) {
            p.latency = *local_latency;
        } else {
            p.latency = farm_latency();
            p.latency.subtract(latency_before);
        }
        if (sweep.empty()) {
            reference = r;
            p.speedup = 1.0;
            p.identical = true;
        } else {
            p.speedup = sweep.front().wall_seconds / r.wall_seconds;
            // The service contract: bitwise, not approximately, equal.
            p.identical = num::approx_equal(r.responses, reference.responses, 0.0);
            // Exactly-once dispatch: the shards served every unique point
            // once, no more.
            contract_ok = contract_ok && p.points_served == r.simulations;
        }
        contract_ok = contract_ok && p.identical;
        sweep.push_back(p);
    }
    // ----------------------------------------------------------------------
    // Heterogeneous farm: one shard handicapped by a 10 ms sleep per point
    // (same arithmetic, same fingerprint, same bits — only slower). Uniform
    // weights split the batch evenly (exactly i mod n) and idle the fast
    // shard; calibrated explicit weights shift work to it.
    // ----------------------------------------------------------------------
    const auto base_sim = sc.make_simulation();
    net::EvalServerOptions slow_opts;
    slow_opts.workers = 1;
    slow_opts.fingerprint = fp;
    net::EvalServer slow_server(
        [base_sim](const num::Vector& nat) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            return base_sim(nat);
        },
        slow_opts);
    slow_server.start();
    const std::vector<net::Endpoint> hetero_farm = {
        net::parse_endpoint("127.0.0.1:" + std::to_string(slow_server.port())),
        net::parse_endpoint("127.0.0.1:" + std::to_string(servers[0]->port())),
    };

    // Calibrate: a short probe per shard alone measures its real
    // throughput; the measured points/second become the recorded weights
    // of the weighted run (deterministic thereafter).
    std::vector<double> measured_pps;
    for (const net::Endpoint& e : hetero_farm) {
        net::RemoteBackendOptions po;
        po.endpoints = {e};
        po.fingerprint = fp;
        net::RemoteBackend probe(po);
        const num::Vector centre = space.to_natural(num::Vector(space.dimension()));
        std::vector<num::Vector> points(8, centre);
        for (std::size_t i = 0; i < points.size(); ++i) {
            points[i][0] += static_cast<double>(i) * 1e-6;  // 8 distinct points
        }
        const auto p0 = std::chrono::steady_clock::now();
        probe.evaluate(points);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - p0).count();
        measured_pps.push_back(wall > 0.0 ? static_cast<double>(points.size()) / wall : 1.0);
    }

    auto run_hetero = [&](const std::vector<double>& weights) {
        net::RemoteBackendOptions ho;
        ho.endpoints = hetero_farm;
        ho.fingerprint = fp;
        ho.shard_weights = weights;
        doe::BatchRunner runner(std::make_shared<net::RemoteBackend>(ho));
        return runner.run_design(space, design);
    };
    const doe::RunResults hetero_modulo = run_hetero({1.0, 1.0});
    const doe::RunResults hetero_weighted = run_hetero(measured_pps);
    const bool hetero_identical =
        num::approx_equal(hetero_modulo.responses, reference.responses, 0.0) &&
        num::approx_equal(hetero_weighted.responses, reference.responses, 0.0);
    const double hetero_speedup = hetero_weighted.wall_seconds > 0.0
                                      ? hetero_modulo.wall_seconds / hetero_weighted.wall_seconds
                                      : 0.0;
    contract_ok = contract_ok && hetero_identical;
    slow_server.stop();
    for (auto& s : servers) s->stop();

    Table t("T8: S1 CCD (48 points) across remote shard counts");
    t.headers({"backend", "wall", "speedup", "simulations", "points served",
               "p50/p95/p99 ms", "bitwise identical"});
    for (const auto& p : sweep) {
        t.row()
            .cell(p.label)
            .cell(format_seconds(p.wall_seconds))
            .cell(p.speedup, 2)
            .cell(p.simulations)
            .cell(p.points_served)
            .cell(latency_cell(p.latency))
            .cell(p.identical ? "yes" : "NO");
    }
    t.print(std::cout);

    Table h("T8 hetero: 1 slow (+10 ms/point) + 1 fast shard, modulo vs weighted");
    h.headers({"assignment", "wall", "speedup vs modulo", "bitwise identical"});
    h.row()
        .cell("modulo (even split)")
        .cell(format_seconds(hetero_modulo.wall_seconds))
        .cell(1.0, 2)
        .cell(num::approx_equal(hetero_modulo.responses, reference.responses, 0.0) ? "yes"
                                                                                   : "NO");
    h.row()
        .cell("weighted (calibrated)")
        .cell(format_seconds(hetero_weighted.wall_seconds))
        .cell(hetero_speedup, 2)
        .cell(num::approx_equal(hetero_weighted.responses, reference.responses, 0.0) ? "yes"
                                                                                     : "NO");
    std::cout << "\n";
    h.print(std::cout);
    std::cout << "\ncalibrated shard throughput: slow " << format_double(measured_pps[0], 1)
              << " pts/s, fast " << format_double(measured_pps[1], 1) << " pts/s\n";

    std::cout << "\nService contract (bitwise-identical responses at every shard count,\n"
                 "homogeneous and heterogeneous farms alike; each unique point served\n"
                 "exactly once): "
              << (contract_ok ? "HOLDS" : "VIOLATED - BUG") << "\n";

    std::ostringstream json;
    json << "{\"bench\": \"t8_remote\", \"timestamp\": " << std::time(nullptr)
         << ", \"design_points\": " << design.runs() << ", \"hardware_threads\": " << hw
         << ", \"contract_ok\": " << (contract_ok ? "true" : "false") << ", \"sweep\": [";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& p = sweep[i];
        json << (i ? ", " : "") << "{\"backend\": \"" << p.label << "\", \"shards\": " << p.shards
             << ", \"wall_seconds\": " << p.wall_seconds << ", \"speedup\": " << p.speedup
             << ", \"simulations\": " << p.simulations << ", \"points_served\": "
             << p.points_served << ", \"latency_p50_us\": " << p.latency.percentile_us(50.0)
             << ", \"latency_p95_us\": " << p.latency.percentile_us(95.0)
             << ", \"latency_p99_us\": " << p.latency.percentile_us(99.0) << "}";
    }
    json << "], \"hetero\": {\"slow_handicap_ms\": 10, \"calibrated_pps\": ["
         << measured_pps[0] << ", " << measured_pps[1]
         << "], \"modulo_wall_seconds\": " << hetero_modulo.wall_seconds
         << ", \"weighted_wall_seconds\": " << hetero_weighted.wall_seconds
         << ", \"weighted_speedup\": " << hetero_speedup
         << ", \"identical\": " << (hetero_identical ? "true" : "false") << "}}";
    append_history_or_warn("t8_remote.jsonl", json.str(), std::cout);

    return contract_ok ? 0 : 1;
}
