// The farm bench: the paper's costly phase, the S1 CCD (48 runs, 600 s),
// through every evaluation stack of the farm, each compared bit for bit
// with the in-process serial reference (row 0): the thread pool at 1 and
// N = hardware threads; 1, 2 and 4 single-worker loopback eval-server
// shards; exec (one mock_hdl_sim process per point) and exec over remote;
// a cold run publishing to a store daemon and a snapshot file, then each
// warm tier alone; one 4-worker shard, which cuts each frame into tasks
// per worker; and a farm of one shard slowed by 10 ms/point and one fast
// shard, split modulo and by calibrated weights.
//
// Each row gets one untimed warm-up run, then kRepeats timed runs. Every
// speedup is the median of kRepeats ratios of one reference run and one
// row run made back to back, alternating which goes first; row 0 is paired
// with itself, so its spread is the pairing's own noise. Exits non-zero
// when a contract breaks, and appends one line to bench/history/farm.jsonl
// (gated by bench/history/gates.json). Everything else it writes lives in
// one temporary directory, removed at exit.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "core/thread_pool.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "exec/exec_backend.hpp"
#include "exec/sim_recipe.hpp"
#include "net/eval_server.hpp"
#include "net/remote_backend.hpp"
#include "store/store_server.hpp"

#ifndef EHDOE_MOCK_HDL_SIM
#error "CMake must define EHDOE_MOCK_HDL_SIM (the mock simulator's path)"
#endif

using namespace ehdoe;
using namespace ehdoe::core;
using telemetry::LatencyHistogram;

namespace {

constexpr int kRepeats = 7;  // odd, so every median is a measured value
constexpr double kHorizon = 600.0;

/// A run's exact counters, by name, in the order the ledger writes them.
using Counters = std::vector<std::pair<std::string, std::size_t>>;

/// One run of one stack.
struct Sample {
    doe::RunResults r;
    Counters counters;         ///< simulations, cache_hits, then the row's own
    LatencyHistogram latency;  ///< per-eval latency (remote and exec rows)
    bool ok = true;            ///< the row's own contract held
};
using RunFn = std::function<Sample()>;

struct Row {
    std::string label;
    Counters counters;
    std::vector<double> walls, ref_walls, ratios;  ///< timed runs only
    LatencyHistogram latency;                      ///< merged over the timed runs
    bool identical = true;  ///< every run bitwise equal to row 0
    bool ok = true;         ///< counters stable and the row's own contract held
};

/// One untimed warm-up of `run`, then kRepeats back-to-back pairs of `ref`
/// and `run`, alternating which goes first.
Row measure(std::string label, const RunFn& run, const RunFn& ref,
            const num::Matrix& reference) {
    Row row;
    row.label = std::move(label);
    const Sample warm = run();
    row.counters = warm.counters;
    auto check = [&](const Sample& s) {
        row.identical = row.identical && num::approx_equal(s.r.responses, reference, 0.0);
        row.ok = row.ok && s.ok;
    };
    check(warm);
    for (int i = 0; i < kRepeats; ++i) {
        const bool ref_first = i % 2 == 0;
        Sample a = ref_first ? ref() : Sample{};
        const Sample b = run();
        if (!ref_first) a = ref();
        check(a);
        check(b);
        row.ok = row.ok && b.counters == row.counters;
        row.walls.push_back(b.r.wall_seconds);
        row.ref_walls.push_back(a.r.wall_seconds);
        // A zero wall would make the ratio infinite, and the gate's JSON
        // parser rejects non-finite numbers.
        row.ratios.push_back(b.r.wall_seconds > 0.0 ? a.r.wall_seconds / b.r.wall_seconds
                                                    : 0.0);
        row.latency.merge(b.latency);
    }
    return row;
}

/// Median, min and max of an odd number of values.
std::array<double, 3> spread_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return {v[v.size() / 2], v.front(), v.back()};
}

/// `"<name><unit>": median, "<name>_min<unit>": min, "<name>_max<unit>": max`.
void put_spread(std::ostream& json, const std::string& name, const std::string& unit,
                const std::vector<double>& v) {
    const auto [median, min, max] = spread_of(v);
    json << ", \"" << name << unit << "\": " << median << ", \"" << name << "_min" << unit
         << "\": " << min << ", \"" << name << "_max" << unit << "\": " << max;
}

std::string spread_cell(const std::vector<double>& v, bool seconds) {
    const auto [median, min, max] = spread_of(v);
    auto f = [seconds](double x) { return seconds ? format_seconds(x) : format_double(x, 2); };
    return f(median) + " [" + f(min) + ", " + f(max) + "]";
}

std::string counters_cell(const Counters& counters) {
    std::string out;
    for (const auto& [name, value] : counters) {
        out += (out.empty() ? "" : " ") + name + "=" + std::to_string(value);
    }
    return out;
}

std::string latency_cell(const LatencyHistogram& h) {
    if (h.total() == 0) return "-";
    return format_double(h.percentile_us(50.0) / 1000.0, 1) + "/" +
           format_double(h.percentile_us(95.0) / 1000.0, 1) + "/" +
           format_double(h.percentile_us(99.0) / 1000.0, 1);
}

/// The S1 workload through the mock co-simulator, with the extractor mix
/// the exec tests drive (regex and column paths both hot).
std::string s1_recipe_text() {
    return std::string("command: ") + EHDOE_MOCK_HDL_SIM +
           " --deck {deck}\ninput: deck\ndeck-line: scenario S1\ndeck-line: duration " +
           std::to_string(kHorizon) +
           "\ndeck-line: index {index}\ndeck-line: point {point}\noutput: stdout\n"
           "extract: E_harv regex ^E_harv=(\\S+)$\n"
           "extract: E_cons regex ^E_cons=(\\S+)$\n"
           "extract: E_tune regex ^E_tune=(\\S+)$\n"
           "extract: V_min column values 4\n"
           "extract: downtime column values 5\n"
           "extract: packets column values 6\n";
}

std::string endpoint_of(std::uint16_t port) { return "127.0.0.1:" + std::to_string(port); }

/// The bench's scratch directory, removed with everything in it at exit.
struct ScratchDir {
    std::string path = (std::filesystem::temp_directory_path() /
                        ("ehdoe-bench-farm-" + std::to_string(::getpid())))
                           .string();
    ScratchDir() { std::filesystem::create_directories(path); }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

}  // namespace

int main() try {
    const ScratchDir scratch;
    const std::size_t hw = ThreadPool::hardware_threads();
    const Scenario sc = Scenario::make(ScenarioId::OfficeHvac, kHorizon);
    const doe::DesignSpace space = sc.design_space();
    const doe::Design design = doe::central_composite(space.dimension());
    const std::string fp = sc.fingerprint();
    std::cout << "Farm bench: the S1 CCD through every stack (" << hw << " hardware threads)\n\n";

    auto run = [&](doe::BatchRunner&& runner) {
        Sample out{runner.run_design(space, design), {}, {}, true};
        out.counters = {{"simulations", out.r.simulations}, {"cache_hits", out.r.cache_hits}};
        return out;
    };
    auto inprocess = [&](std::size_t threads) -> RunFn {
        return [&, threads] {
            doe::RunnerOptions o;
            o.threads = threads;
            return run(doe::BatchRunner(sc.make_simulation(), o));
        };
    };
    // A run through `shards`, counting the points they served and the
    // latency they recorded during it.
    auto remote = [&](std::vector<net::EvalServer*> shards, std::string fingerprint) -> RunFn {
        return [&, shards, fingerprint] {
            doe::RunnerOptions o;
            o.cache_fingerprint = fingerprint;
            std::size_t served_before = 0, served = 0;
            LatencyHistogram before;
            for (const net::EvalServer* s : shards) {
                o.endpoints.push_back(endpoint_of(s->port()));
                served_before += s->points_served();
                before.merge(s->latency_histogram());
            }
            Sample out = run(doe::BatchRunner(sc.make_simulation(), o));
            for (const net::EvalServer* s : shards) {
                served += s->points_served();
                out.latency.merge(s->latency_histogram());
            }
            out.latency.subtract(before);
            served -= served_before;
            out.counters.emplace_back("points_served", served);
            out.ok = served == out.r.simulations;  // each point exactly once
            return out;
        };
    };

    const RunFn reference_run = inprocess(1);
    const num::Matrix reference = reference_run().r.responses;
    std::vector<Row> rows;
    rows.push_back(measure("in-process x1 (reference)", reference_run, reference_run, reference));
    rows.push_back(measure("in-process xN", inprocess(hw), reference_run, reference));

    // The shard pool: four single-worker servers; remote xn uses the first n.
    std::vector<std::unique_ptr<net::EvalServer>> servers;
    for (int i = 0; i < 4; ++i) {
        net::EvalServerOptions so;
        so.fingerprint = fp;
        servers.push_back(std::make_unique<net::EvalServer>(sc.make_simulation(), so));
        servers.back()->start();
    }
    for (const std::size_t n : {1, 2, 4}) {
        std::vector<net::EvalServer*> shards;
        for (std::size_t i = 0; i < n; ++i) shards.push_back(servers[i].get());
        rows.push_back(measure("remote x" + std::to_string(n), remote(shards, fp),
                               reference_run, reference));
    }

    const exec::SimRecipe recipe = exec::SimRecipe::parse(s1_recipe_text());
    const RunFn exec_run = [&] {
        auto backend = std::make_shared<exec::ExecBackend>(recipe, BackendOptions{});
        Sample out = run(doe::BatchRunner(backend));
        out.latency = backend->latency_histogram();
        out.counters.emplace_back("launches", backend->launches());
        out.ok = backend->launches() == out.r.simulations;  // one process per point
        return out;
    };
    rows.push_back(measure("exec", exec_run, reference_run, reference));
    net::EvalServerOptions exec_opts;
    exec_opts.workers = 2;
    exec_opts.fingerprint = "farm-bench-exec";
    exec_opts.recipe = recipe;
    net::EvalServer exec_server(Simulation{}, exec_opts);
    exec_server.start();
    rows.push_back(measure("exec over remote", remote({&exec_server}, exec_opts.fingerprint),
                           reference_run, reference));

    // The reuse tiers. Every cold run starts a store daemon on a fresh
    // directory and writes a fresh snapshot; the warm rows read the last.
    // A run through the store counts the gets, hits and puts it served.
    std::unique_ptr<store::StoreServer> store;
    std::string snapshot;
    int cold_runs = 0;
    auto tiered = [&](const std::string& cache_file, bool through_store) {
        doe::RunnerOptions o;
        o.cache_file = cache_file;
        o.cache_fingerprint = fp;
        if (!through_store) return run(doe::BatchRunner(sc.make_simulation(), o));
        o.store_endpoint = endpoint_of(store->port());
        const std::uint64_t gets = store->gets_served(), hits = store->get_hits(),
                            puts = store->puts_received();
        Sample out = run(doe::BatchRunner(sc.make_simulation(), o));
        out.counters.emplace_back("store_gets", store->gets_served() - gets);
        out.counters.emplace_back("store_hits", store->get_hits() - hits);
        out.counters.emplace_back("store_puts", store->puts_received() - puts);
        return out;
    };
    const RunFn cold = [&] {
        const std::string dir = scratch.path + "/cold-" + std::to_string(cold_runs++);
        store::StoreServerOptions so;
        so.dir = dir + "/store";
        so.verbose = false;
        store = std::make_unique<store::StoreServer>(so);
        store->start();
        snapshot = dir + "/snapshot.ehcache";
        Sample out = tiered(snapshot, true);
        out.counters.emplace_back("store_keys", store->log().size());
        out.ok = store->log().size() == out.r.simulations;  // every distinct point
        return out;
    };
    auto warm = [&](bool from_store) -> RunFn {
        return [&, from_store] {
            Sample out = from_store ? tiered("", true) : tiered(snapshot, false);
            out.ok = out.r.simulations == 0 && out.r.cache_hits == design.runs();
            return out;
        };
    };
    rows.push_back(measure("cold (store+snapshot)", cold, reference_run, reference));
    rows.push_back(measure("store warm", warm(true), reference_run, reference));
    rows.push_back(measure("snapshot warm", warm(false), reference_run, reference));
    store.reset();

    // One shard with four workers, as `ehdoe-eval-server --workers 4` runs:
    // each frame splits into tasks per worker, each task's points run as
    // node lanes.
    net::EvalServerOptions wide_opts;
    wide_opts.fingerprint = fp;
    wide_opts.workers = 4;
    net::EvalServer wide(sc.make_simulation(), wide_opts);
    wide.start();
    rows.push_back(
        measure("remote x1 (4 workers)", remote({&wide}, fp), reference_run, reference));

    // The heterogeneous farm: the same arithmetic and fingerprint behind a
    // 10 ms sleep per point, so only the speed differs.
    const doe::Simulation base = sc.make_simulation();
    net::EvalServerOptions slow_opts;
    slow_opts.fingerprint = fp;
    net::EvalServer slow(
        [base](const num::Vector& nat) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            return base(nat);
        },
        slow_opts);
    slow.start();
    const std::vector<net::Endpoint> hetero_farm = {
        net::parse_endpoint(endpoint_of(slow.port())),
        net::parse_endpoint(endpoint_of(servers[0]->port()))};
    // Calibrate: 8 distinct points per shard alone; the measured points per
    // second become the weighted runs' recorded weights.
    std::vector<double> pps;
    for (const net::Endpoint& e : hetero_farm) {
        net::RemoteBackendOptions po;
        po.endpoints = {e};
        po.fingerprint = fp;
        net::RemoteBackend probe(po);
        std::vector<num::Vector> points(8, space.to_natural(num::Vector(space.dimension())));
        for (std::size_t i = 0; i < points.size(); ++i) points[i][0] += 1e-6 * i;
        const auto t0 = std::chrono::steady_clock::now();
        probe.evaluate(points);
        const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
        pps.push_back(static_cast<double>(points.size()) / std::max(wall.count(), 1e-9));
    }
    auto hetero = [&](std::vector<double> weights) -> RunFn {
        return [&, weights] {
            net::RemoteBackendOptions ho;
            ho.endpoints = hetero_farm;
            ho.fingerprint = fp;
            ho.shard_weights = weights;
            return run(doe::BatchRunner(std::make_shared<net::RemoteBackend>(ho)));
        };
    };
    rows.push_back(
        measure("hetero: weighted vs modulo", hetero(pps), hetero({1.0, 1.0}), reference));
    const Row& het = rows.back();  // printed last, written under "hetero"
    bool contract_ok = true;
    for (const Row& row : rows) contract_ok = contract_ok && row.identical && row.ok;

    Table t("Farm: S1 CCD per stack, median [min, max] of " + std::to_string(kRepeats) +
            " paired runs");
    t.headers({"backend", "wall", "speedup", "counters (every run)", "p50/p95/p99 ms",
               "bitwise identical"});
    for (const Row& row : rows) {
        t.row()
            .cell(row.label)
            .cell(spread_cell(row.walls, true))
            .cell(spread_cell(row.ratios, false))
            .cell(counters_cell(row.counters) + (row.ok ? "" : " BROKEN"))
            .cell(latency_cell(row.latency))
            .cell(row.identical ? "yes" : "NO");
    }
    t.print(std::cout);
    std::cout << "\nhetero: modulo wall " << spread_cell(het.ref_walls, true)
              << "; calibrated throughput slow " << format_double(pps[0], 1) << ", fast "
              << format_double(pps[1], 1) << " pts/s\nFarm contract: "
              << (contract_ok ? "HOLDS" : "VIOLATED - BUG") << "\n";

    std::ostringstream json;
    json << "{\"bench\": \"farm\", \"timestamp\": " << std::time(nullptr)
         << ", \"design_points\": " << design.runs() << ", \"hardware_threads\": " << hw
         << ", \"repeats\": " << kRepeats
         << ", \"contract_ok\": " << (contract_ok ? "true" : "false") << ", \"sweep\": [";
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
        const Row& row = rows[i];
        json << (i ? ", " : "") << "{\"backend\": \"" << row.label << "\"";
        for (const auto& [name, value] : row.counters) json << ", \"" << name << "\": " << value;
        put_spread(json, "wall", "_s", row.walls);
        put_spread(json, "speedup", "", row.ratios);
        for (const int p : {50, 95, 99}) {
            if (row.latency.total() > 0) {
                json << ", \"latency_p" << p << "_us\": " << row.latency.percentile_us(p);
            }
        }
        json << "}";
    }
    json << "], \"hetero\": {\"slow_handicap_ms\": 10, \"calibrated_pps\": [" << pps[0] << ", "
         << pps[1] << "]";
    put_spread(json, "modulo_wall", "_s", het.ref_walls);
    put_spread(json, "weighted_wall", "_s", het.walls);
    put_spread(json, "weighted_speedup", "", het.ratios);
    json << ", \"identical\": " << (het.identical ? "true" : "false") << "}}";
    append_history_or_warn("farm.jsonl", json.str(), std::cout);

    return contract_ok ? 0 : 1;
} catch (const std::exception& e) {
    std::cerr << "bench_farm: " << e.what() << "\n";
    return 1;
}
