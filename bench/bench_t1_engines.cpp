// T1 — Simulation engine comparison (reproduces the headline of [4]):
// explicit linearized state-space vs classical Newton-Raphson trapezoidal
// transient on the identical harvester circuit. Reports CPU time (the
// median of kRepeats runs, with their min and max in the ledger), work
// counters and waveform agreement at several time steps, then each engine's
// error against a converged NR reference at the equal-accuracy pairing, and
// appends everything to the perf ledger bench/history/t1_engines.jsonl,
// whose counters bench/history/gates.json pins exactly and whose two
// errors it caps at their committed values.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "harvester/harvester_system.hpp"
#include "sim/state_space.hpp"
#include "sim/transient.hpp"

using namespace ehdoe;
using harvester::HarvesterCircuit;
using harvester::HarvesterCircuitParams;

namespace {

constexpr int kRepeats = 3;
constexpr double kRefStep = 2.5e-5;  ///< the converged NR reference
constexpr double kNrEqualStep = 5e-5;
constexpr double kPwlEqualStep = 2e-4;

/// One engine at one step: the median, min and max wall of kRepeats
/// identical runs, the output waveform (one sample per step) and the
/// engine's counters.
template <class Stats>
struct RunOutcome {
    double wall = 0.0;
    double wall_min = 0.0;
    double wall_max = 0.0;
    std::vector<double> vout;
    Stats stats;

    void set_walls(std::vector<double> walls) {
        std::sort(walls.begin(), walls.end());
        wall = walls[walls.size() / 2];
        wall_min = walls.front();
        wall_max = walls.back();
    }
};

/// `"wall_s": median, "wall_min_s": min, "wall_max_s": max` of one run.
template <class Stats>
std::string walls_json(const RunOutcome<Stats>& r) {
    std::ostringstream out;
    out << "\"wall_s\": " << r.wall << ", \"wall_min_s\": " << r.wall_min
        << ", \"wall_max_s\": " << r.wall_max;
    return out.str();
}

RunOutcome<sim::EngineStats> run_fast(const HarvesterCircuit& c, double h, double t_end,
                                      double f_exc, int repeats = kRepeats) {
    auto accel = [f_exc](double t) { return 0.6 * std::sin(2.0 * M_PI * f_exc * t); };
    RunOutcome<sim::EngineStats> out;
    std::vector<double> walls;
    for (int r = 0; r < repeats; ++r) {
        sim::PwlEngineOptions o;
        o.step = h;
        sim::PwlStateSpaceEngine eng(c.make_pwl_system(), o);
        eng.set_state(c.initial_state(0.5));
        out.vout.clear();
        const auto t0 = std::chrono::steady_clock::now();
        eng.run(t_end, c.make_input(accel), [&](double, const num::Vector& x) {
            out.vout.push_back(c.output_voltage(x));
        });
        walls.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
        out.stats = eng.stats();
    }
    out.set_walls(std::move(walls));
    return out;
}

RunOutcome<sim::TransientStats> run_slow(const HarvesterCircuit& c, double h, double t_end,
                                         double f_exc, int repeats = kRepeats) {
    auto accel = [f_exc](double t) { return 0.6 * std::sin(2.0 * M_PI * f_exc * t); };
    RunOutcome<sim::TransientStats> out;
    std::vector<double> walls;
    for (int r = 0; r < repeats; ++r) {
        sim::TransientOptions o;
        o.step = h;
        sim::TransientEngine eng(c.make_nonlinear_rhs(accel), c.state_dim(), o);
        eng.set_state(c.initial_state(0.5));
        out.vout.clear();
        const auto t0 = std::chrono::steady_clock::now();
        eng.run(t_end, [&](double, const num::Vector& x) {
            out.vout.push_back(c.output_voltage(x));
        });
        walls.push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
        out.stats = eng.stats();
    }
    out.set_walls(std::move(walls));
    return out;
}

/// Relative RMS of waveform `a` against `ref`, where `ref` was sampled
/// `ratio` times as often: a's sample k meets ref's sample (k+1)*ratio - 1,
/// the same instant.
double rel_rms(const std::vector<double>& a, const std::vector<double>& ref, std::size_t ratio) {
    double num = 0.0, den = 0.0;
    for (std::size_t k = 0; k < a.size() && (k + 1) * ratio - 1 < ref.size(); ++k) {
        const double r = ref[(k + 1) * ratio - 1];
        num += (a[k] - r) * (a[k] - r);
        den += r * r;
    }
    return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

std::size_t step_ratio(double coarse, double fine) {
    return static_cast<std::size_t>(std::lround(coarse / fine));
}

}  // namespace

int main() {
    std::cout << "T1 - engine comparison: explicit linearized state-space [4] vs\n"
                 "classical Newton-Raphson trapezoidal transient (identical circuit,\n"
                 "5-stage multiplier, 0.6 m/s^2 sine at resonance, 2 s transient;\n"
                 "walls are the median of "
              << kRepeats << " runs)\n\n";

    HarvesterCircuitParams p;
    p.storage_capacitance = 50e-6;
    HarvesterCircuit c(p);
    const double f_exc = p.generator.natural_freq_hz;
    const double t_end = 2.0;

    core::Table t("T1: CPU time and accuracy vs time step");
    t.headers({"h (s)", "NR wall", "NR newton-iters", "NR rhs-evals", "SS wall",
               "SS expm-builds", "speedup", "waveform dRMS"});

    std::ostringstream json;
    json << "{\"bench\": \"t1_engines\", \"timestamp\": " << std::time(nullptr)
         << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
         << ", \"repeats\": " << kRepeats << ", \"t_end\": " << t_end << ", \"steps\": [";
    const std::vector<double> steps = {2e-4, 1e-4, 5e-5};
    RunOutcome<sim::TransientStats> nr_equal;
    RunOutcome<sim::EngineStats> pwl_equal;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const double h = steps[i];
        const auto slow = run_slow(c, h, t_end, f_exc);
        const auto fast = run_fast(c, h, t_end, f_exc);
        // PWL against NR at the same step: mostly NR's own step error at
        // the larger steps (see the equal-accuracy table below).
        const double drms = rel_rms(fast.vout, slow.vout, 1);
        t.row()
            .cell(core::format_double(h, 0))
            .cell(core::format_seconds(slow.wall))
            .cell(slow.stats.newton_iterations)
            .cell(slow.stats.rhs_evaluations)
            .cell(core::format_seconds(fast.wall))
            .cell(fast.stats.cache_misses)
            .cell(slow.wall / fast.wall, 1)
            .cell(drms, 4);

        const sim::TransientStats& ns = slow.stats;
        const sim::EngineStats& ps = fast.stats;
        json << (i ? ", " : "") << "{\"h\": " << h << ", \"nr\": {" << walls_json(slow)
             << ", \"steps\": " << ns.steps << ", \"newton_iterations\": " << ns.newton_iterations
             << ", \"jacobian_builds\": " << ns.jacobian_builds
             << ", \"lu_factorizations\": " << ns.lu_factorizations
             << ", \"rhs_evaluations\": " << ns.rhs_evaluations
             << ", \"nonconverged_steps\": " << ns.nonconverged_steps
             << "}, \"pwl\": {" << walls_json(fast) << ", \"steps\": " << ps.steps
             << ", \"segment_changes\": " << ps.segment_changes
             << ", \"cache_hits\": " << ps.cache_hits << ", \"cache_misses\": " << ps.cache_misses
             << ", \"retried_steps\": " << ps.retried_steps << "}, \"speedup\": "
             << slow.wall / fast.wall << ", \"drms\": " << drms << "}";
        if (h == kNrEqualStep) nr_equal = slow;
        if (h == kPwlEqualStep) pwl_equal = fast;
    }
    t.print(std::cout);

    // Equal-accuracy comparison: the explicit engine is exact per segment, so
    // it tolerates a 4x larger step at the same waveform error — the fair
    // comparison [4] makes. Both errors are measured against NR at a step
    // small enough to be converged.
    const auto ref = run_slow(c, kRefStep, t_end, f_exc, 1);
    const double nr_error = rel_rms(nr_equal.vout, ref.vout, step_ratio(kNrEqualStep, kRefStep));
    const double pwl_error =
        rel_rms(pwl_equal.vout, ref.vout, step_ratio(kPwlEqualStep, kRefStep));
    const double ratio = nr_equal.wall / pwl_equal.wall;
    std::cout << "\nEqual-accuracy comparison (waveform error: relative RMS against NR @ h="
              << core::format_double(kRefStep, 1) << "):\n";
    core::Table t2;
    t2.headers({"engine", "h (s)", "wall", "waveform error", "speedup vs NR"});
    t2.row()
        .cell("Newton-Raphson")
        .cell(core::format_double(kNrEqualStep, 0))
        .cell(core::format_seconds(nr_equal.wall))
        .cell(nr_error, 4)
        .cell(1.0, 1);
    t2.row()
        .cell("state-space [4]")
        .cell(core::format_double(kPwlEqualStep, 0))
        .cell(core::format_seconds(pwl_equal.wall))
        .cell(pwl_error, 4)
        .cell(ratio, 1);
    t2.print(std::cout);
    std::cout << "\n";

    json << "], \"equal_accuracy\": {\"reference_h\": " << kRefStep
         << ", \"nr_h\": " << kNrEqualStep << ", \"pwl_h\": " << kPwlEqualStep
         << ", \"nr_wall_s\": " << nr_equal.wall << ", \"pwl_wall_s\": " << pwl_equal.wall
         << ", \"speedup\": " << ratio << ", \"nr_error\": " << nr_error
         << ", \"pwl_error\": " << pwl_error << "}}";
    core::append_history_or_warn("t1_engines.jsonl", json.str(), std::cout);
    return 0;
}
