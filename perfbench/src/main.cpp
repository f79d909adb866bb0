// The benchmark binary: one process runs one workload in a closed loop for
// a fixed time and prints one JSON result line.
//
//   perfbench --workload paper_flow --seed 1 --seconds 10 --trace 0
//             [--tiny] [--out DIR]
//
// --trace 0 prints the end-to-end metrics (catalogue.hpp). --trace 1
// alternates untraced and traced units, prints the per-layer metrics, and
// writes DIR/<workload>-<seed>.layers.json plus a Chrome trace
// DIR/<workload>-<seed>.trace.json. A line {"detail": ...} before the
// result records the host context (nproc, effective CPUs, build type) and
// the workload's own named results. Exit 1 when any output check failed,
// 2 on bad usage or a non-Release build, which is never timed. --tiny
// shrinks every problem for the self-test.
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "catalogue.hpp"
#include "core/telemetry.hpp"
#include "harness.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string out_dir = ".";
};

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " --workload paper_flow|circuit_transient|farm_store|exec_batch --seed N\n"
                 "       --seconds S --trace 0|1 [--tiny] [--out DIR]\n";
    return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        auto take = [&]() -> const char* {
            if (!value) return nullptr;
            ++i;
            return value;
        };
        if (arg == "--tiny") {
            a.tiny = true;
        } else if (arg == "--workload") {
            if (!take()) return false;
            a.workload = value;
        } else if (arg == "--seed") {
            if (!take()) return false;
            a.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--seconds") {
            if (!take()) return false;
            a.seconds = std::atof(value);
        } else if (arg == "--trace") {
            if (!take()) return false;
            a.trace = std::strcmp(value, "0") != 0;
        } else if (arg == "--out") {
            if (!take()) return false;
            a.out_dir = value;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0.0;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Config& config) {
    if (name == "paper_flow") return make_paper_flow(config);
    if (name == "circuit_transient") return make_circuit_transient(config);
    if (name == "farm_store") return make_farm_store(config);
    if (name == "exec_batch") return make_exec_batch(config);
    return nullptr;
}

std::string speed_name(Workload::Speed speed) {
    switch (speed) {
    case Workload::Speed::Raw: return "\"raw\"";
    case Workload::Speed::Cpu: return "\"cpu\"";
    case Workload::Speed::Kernel: return "\"kernel\"";
    case Workload::Speed::Launch: return "\"launch\"";
    }
    return "null";
}

std::string samples_json(const Samples& s, double scale) {
    std::ostringstream out;
    out << "{\"n\": " << s.size() << ", \"p10\": " << json_number(scale * s.quantile(0.1))
        << ", \"p50\": " << json_number(scale * s.median())
        << ", \"p90\": " << json_number(scale * s.quantile(0.9)) << "}";
    return out.str();
}

}  // namespace

int main(int argc, char** argv) {
    // The launch reference (spawn_slice) starts this program as its child.
    if (argc == 3 && std::strcmp(argv[1], "--echo") == 0) return echo_file(argv[2]);
    Args args;
    if (!parse_args(argc, argv, args)) return usage(argv[0]);
    install_stop_handlers();

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "Release") {
        std::cerr << "perfbench: refusing to time a '" << build_type
                  << "' build (configure with -DCMAKE_BUILD_TYPE=Release)\n";
        return 2;
    }

    Config config;
    config.seed = args.seed;
    config.tiny = args.tiny;
    config.eval_server = PERFBENCH_EVAL_SERVER;
    config.store_server = PERFBENCH_STORE_SERVER;
    config.mock_sim = PERFBENCH_MOCK_SIM;

    std::unique_ptr<Workload> workload = make_workload(args.workload, config);
    if (!workload) return usage(argv[0]);

    const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    const double effective_cpus = effective_parallelism(nproc, args.tiny ? 0.02 : 0.1);

    std::size_t attempted = 0, failed = 0, traced_units = 0;
    std::string first_failure;
    using Speed = Workload::Speed;
    const Workload::Calibrated which = workload->calibrated();
    auto uses = [&](Speed speed) {
        return which.setup == speed || which.part_a == speed || which.part_b == speed ||
               which.rest == speed;
    };
    // Reference slices (harness.hpp) before every set-up and every unit,
    // and once at the end: slices[k] and slices[k + 1] bracket the k-th
    // timed item.
    struct Slice {
        double cpu = 0.0;
        double fork = 0.0;
        double spawn = 0.0;
    };
    std::vector<Slice> slices;
    auto take_slice = [&] {
        Slice slice;
        slice.cpu = reference_slice();
        if (uses(Speed::Kernel)) slice.fork = fork_slice();
        if (uses(Speed::Launch)) slice.spawn = spawn_slice();
        slices.push_back(slice);
    };
    std::vector<double> setup_raw_s;
    struct Timed {
        UnitResult result;
        std::size_t item;  ///< index into the bracketing slices
    };
    std::vector<Timed> untraced_units;
    Samples traced_ms;
    Tracer tracer;
    try {
        const std::size_t setups = args.tiny ? 2 : 5;
        for (std::size_t k = 0; k < setups; ++k) {
            take_slice();
            const auto t0 = Clock::now();
            workload->setup();
            setup_raw_s.push_back(seconds_since(t0));
        }

        // Closed loop. In traced runs every second unit is traced, so both
        // kinds see the same drift of the machine.
        const auto t_loop = Clock::now();
        for (std::uint64_t i = 0;; ++i) {
            const bool enough = untraced_units.size() >= 2 && (!args.trace || traced_units >= 2);
            if (stop_requested() || (seconds_since(t_loop) >= args.seconds && enough)) break;
            if (seconds_since(t_loop) >= 4.0 * args.seconds + 10.0) break;  // hopelessly failing
            const bool traced = args.trace && i % 2 == 1;
            take_slice();
            if (traced) ehdoe::core::telemetry::enable();
            UnitResult r;
            try {
                r = workload->run_unit(i, traced ? &tracer : nullptr);
            } catch (const std::exception& e) {
                r.failure = std::string("exception: ") + e.what();
            }
            if (traced) ehdoe::core::telemetry::disable();
            ++attempted;
            if (!r.failure.empty()) {
                if (failed++ == 0) first_failure = r.failure;
                std::cerr << "perfbench: unit " << i << " failed its check: " << r.failure << "\n";
                continue;
            }
            if (traced) {
                ++traced_units;
                traced_ms.add(1e3 * r.unit_s);
                tracer.add_time("unit", r.unit_s);
            } else {
                untraced_units.push_back({r, slices.size() - 1});
            }
        }
        take_slice();
    } catch (const std::exception& e) {
        // Set-up failed: nothing was measured.
        std::cerr << "perfbench: " << args.workload << " set-up failed: " << e.what() << "\n";
        return 1;
    }

    // The host's speed for this workload's instruction mix switches
    // between levels tens of percent apart, for seconds at a time. Times
    // that follow it are scaled to nominal speed by the mean of the two
    // reference slices around each set-up or unit (raw figures stay in the
    // detail record); timer-bound ones stay raw.
    auto speed_scale = [&](std::size_t item, bool calibrate, Speed speed) {
        if (!calibrate || speed == Speed::Raw) return 1.0;
        const Slice& before = slices[item];
        const Slice& after = slices[item + 1];
        if (speed == Speed::Launch)
            return kSpawnNominalSeconds / (0.5 * (before.spawn + after.spawn));
        double measured = 0.5 * (before.cpu + after.cpu);
        double nominal = kReferenceNominalSeconds;
        if (speed == Speed::Kernel) {
            measured += 0.5 * (before.fork + after.fork);
            nominal += kForkNominalSeconds;
        }
        return nominal / measured;
    };
    auto collect = [&](bool calibrate, Samples& setup_s) {
        UnitSamples s;
        for (std::size_t k = 0; k < setup_raw_s.size(); ++k)
            setup_s.add(setup_raw_s[k] * speed_scale(k, calibrate, which.setup));
        for (const Timed& u : untraced_units) {
            const UnitResult& r = u.result;
            const double a = r.part_a_s * speed_scale(u.item, calibrate, which.part_a);
            const double b = r.part_b_s * speed_scale(u.item, calibrate, which.part_b);
            const double rest = (r.unit_s - r.part_a_s - r.part_b_s) *
                                speed_scale(u.item, calibrate, which.rest);
            s.unit_ms.add(1e3 * (a + b + rest));
            s.part_a_ms.add(1e3 * a);
            s.part_b_ms.add(1e3 * b);
            s.work.add(r.work);
        }
        return s;
    };
    Samples setup_raw, setup_calibrated;
    const UnitSamples untraced = collect(false, setup_raw);
    const UnitSamples calibrated = collect(true, setup_calibrated);
    Samples reference_s, fork_s, spawn_s;
    for (const Slice& slice : slices) {
        reference_s.add(slice.cpu);
        fork_s.add(slice.fork);
        spawn_s.add(slice.spawn);
    }

    MetricTable named;
    workload->named_results(untraced, named);
    named.set("failed_share", attempted ? static_cast<double>(failed) / attempted : 1.0, "ratio");

    auto end_to_end_table = [&](const UnitSamples& u, const Samples& setup_s) {
        MetricTable t;
        const double unit_total_s = u.unit_ms.sum() * 1e-3;
        t.set("setup_s", setup_s.median(), "s");
        t.set("peak_rss_mb", peak_rss_mib(), "MiB");
        t.set("unit_p50_ms", u.unit_ms.median(), "ms");
        t.set("unit_p75_ms", u.unit_ms.quantile(0.75), "ms");
        t.set("units_per_s",
              unit_total_s > 0 ? static_cast<double>(u.unit_ms.size()) / unit_total_s : 0.0,
              "1/s");
        t.set("part_a_p50_ms", u.part_a_ms.median(), "ms");
        t.set("part_b_p50_ms", u.part_b_ms.median(), "ms");
        t.set("work_per_unit", u.work.empty() ? 0.0 : u.work.sum() / u.work.size(), "count");
        return t;
    };
    const MetricTable end_to_end = end_to_end_table(calibrated, setup_calibrated);

    MetricTable layers;
    double overhead_ms = 0.0, coverage = 0.0;
    if (args.trace) {
        for (const LayerSpec& m : kLayers) layers.set(m.name, 0.0, m.unit);
        if (traced_units > 0) {
            const double self_sum = workload->layer_metrics(tracer, traced_units, layers);
            overhead_ms = traced_ms.median() - untraced.unit_ms.median();
            coverage = self_sum / tracer.time("unit");
        }
        layers.set("trace.overhead_ms", overhead_ms, "ms");
        layers.set("trace.overhead_share",
                   untraced.unit_ms.median() > 0 ? overhead_ms / untraced.unit_ms.median() : 0.0,
                   "ratio");
        layers.set("trace.self_coverage", coverage, "ratio");
        if (layers.items().size() != std::size(kLayers)) {
            std::cerr << "perfbench: a workload reported a per-layer metric outside the "
                         "catalogue\n";
            return 1;
        }

        std::filesystem::create_directories(args.out_dir);
        const std::string stem =
            args.out_dir + "/" + args.workload + "-" + std::to_string(args.seed);
        if (!ehdoe::core::telemetry::write_json(stem + ".trace.json"))
            std::cerr << "perfbench: cannot write " << stem << ".trace.json\n";
        std::ofstream out(stem + ".layers.json");
        out << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
            << ", \"traced_units\": " << traced_units
            << ", \"untraced_units\": " << untraced.unit_ms.size()
            << ", \"tracing_overhead_ms\": " << json_number(overhead_ms)
            << ", \"self_coverage\": " << json_number(coverage) << ", \"metrics\": [";
        std::size_t i = 0;
        for (const LayerSpec& spec : kLayers) {
            double value = 0.0;
            for (const Metric& m : layers.items())
                if (m.name == spec.name) value = m.value;
            out << (i++ ? ", " : "") << "{\"name\": " << json_string(spec.name)
                << ", \"value\": " << json_number(value) << ", \"unit\": " << json_string(spec.unit)
                << ", \"workload\": " << json_string(spec.workload)
                << ", \"moves\": " << json_string(spec.moves) << "}";
        }
        out << "]}\n";
    }

    // The detail record, then the result line (always the last line).
    std::cout << "{\"detail\": {\"workload\": " << json_string(args.workload)
              << ", \"seed\": " << args.seed << ", \"seconds\": " << json_number(args.seconds)
              << ", \"tiny\": " << (args.tiny ? "true" : "false")
              << ", \"host\": {\"nproc\": " << nproc
              << ", \"effective_cpus\": " << json_number(effective_cpus)
              << ", \"build_type\": " << json_string(build_type) << "}"
              << ", \"untraced_units\": " << untraced.unit_ms.size()
              << ", \"traced_units\": " << traced_units
              << ", \"unit_ms\": " << samples_json(untraced.unit_ms, 1.0)
              << ", \"traced_unit_ms\": " << samples_json(traced_ms, 1.0)
              << ", \"setup_s\": " << samples_json(setup_raw, 1.0)
              << ", \"tracing_overhead_ms\": " << json_number(overhead_ms)
              << ", \"self_coverage\": " << json_number(coverage)
              << ", \"first_failure\": " << json_string(first_failure)
              << ", \"calibrated\": {\"setup\": " << speed_name(which.setup)
              << ", \"part_a\": " << speed_name(which.part_a)
              << ", \"part_b\": " << speed_name(which.part_b)
              << ", \"rest\": " << speed_name(which.rest) << "}"
              << ", \"reference_slice_us\": " << samples_json(reference_s, 1e6)
              << ", \"fork_slice_us\": " << samples_json(fork_s, 1e6)
              << ", \"spawn_slice_us\": " << samples_json(spawn_s, 1e6)
              << ", \"named\": " << named.to_json()
              << ", \"end_to_end\": " << end_to_end.to_json()
              << ", \"end_to_end_raw\": " << end_to_end_table(untraced, setup_raw).to_json()
              << "}}\n";
    const bool correct = failed == 0 && attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << (args.trace ? layers : end_to_end).to_json() << "}"
              << std::endl;
    return correct ? 0 : 1;
}
