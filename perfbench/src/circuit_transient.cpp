// circuit_transient: the harvester circuit (5-stage multiplier) on both
// engines of the paper. One unit draws a tuned resonance and an excitation
// offset from the seed, then runs
//   part a: the PWL state-space engine at the equal-accuracy step, retuned
//           once mid-transient (set_resonant_frequency + invalidate_cache,
//           so the expm discretizations are rebuilt), and
//   part b: the Newton-Raphson transient engine at its equal-accuracy step
//           on the same input,
// and checks the PWL waveform against the NR one.
#include <cmath>
#include <random>
#include <vector>

#include "harvester/harvester_system.hpp"
#include "numerics/expm.hpp"
#include "sim/state_space.hpp"
#include "sim/transient.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ehdoe;

namespace {

constexpr double kPwlStep = 2e-4;
constexpr double kNrStep = 5e-5;
constexpr double kAccel = 0.6;  // m/s^2
/// Relative RMS of the PWL output voltage against NR that the unit may not
/// exceed (PWL diodes against Shockley diodes).
constexpr double kDrmsBound = 0.1;
/// Segment matrices per traced unit whose ZOH discretization is timed.
constexpr std::size_t kTimedDiscretizations = 8;

double rel_rms(const std::vector<double>& pwl, const std::vector<double>& nr, std::size_t ratio) {
    double num = 0.0, den = 0.0;
    for (std::size_t k = 0; k < pwl.size() && (k + 1) * ratio - 1 < nr.size(); ++k) {
        const double ref = nr[(k + 1) * ratio - 1];
        num += (pwl[k] - ref) * (pwl[k] - ref);
        den += ref * ref;
    }
    return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

class CircuitTransient : public Workload {
public:
    explicit CircuitTransient(const Config& config)
        : config_(config),
          pwl_horizon_(config.tiny ? 0.2 : 2.0),
          nr_horizon_(config.tiny ? 0.02 : 0.2) {
        params_.storage_capacitance = 50e-6;
    }

    void setup() override {
        // First touch: one short transient on each engine.
        harvester::HarvesterCircuit c(params_);
        auto accel = [](double t) { return kAccel * std::sin(2.0 * M_PI * 65.0 * t); };
        sim::PwlEngineOptions po;
        po.step = kPwlStep;
        sim::PwlStateSpaceEngine pwl(c.make_pwl_system(), po);
        pwl.set_state(c.initial_state(0.5));
        pwl.run(0.01, c.make_input(accel));
        sim::TransientOptions no;
        no.step = kNrStep;
        sim::TransientEngine nr(c.make_nonlinear_rhs(accel), c.state_dim(), no);
        nr.set_state(c.initial_state(0.5));
        nr.run(0.002);
    }

    UnitResult run_unit(std::uint64_t index, Tracer* tracer) override {
        std::mt19937_64 rng(mix_seed(config_.seed, index));
        const double f_res = std::uniform_real_distribution<double>(58.0, 72.0)(rng);
        const double offset = std::uniform_real_distribution<double>(-1.5, 1.5)(rng);
        const double f_exc = f_res + offset;
        auto accel = [f_exc](double t) { return kAccel * std::sin(2.0 * M_PI * f_exc * t); };

        UnitResult result;
        std::vector<double> pwl_out, nr_out;
        pwl_out.reserve(static_cast<std::size_t>(nr_horizon_ / kPwlStep) + 2);
        nr_out.reserve(static_cast<std::size_t>(nr_horizon_ / kNrStep) + 2);

        // Part a: PWL, retuned to the excitation halfway (the tuning
        // controller closing the offset).
        std::uint64_t callbacks = 0;
        std::vector<std::pair<num::Matrix, num::Matrix>> assembled;
        sim::EngineStats pwl_stats;
        {
            ScopedLayer scope(tracer, "sim.pwl");
            harvester::HarvesterCircuit c(params_);
            c.set_resonant_frequency(f_res);
            sim::PwlSystem sys = c.make_pwl_system();
            std::function<num::Vector(double)> input = c.make_input(accel);
            if (tracer) {
                sys.assemble = [inner = sys.assemble, &callbacks, &assembled](
                                   std::uint32_t seg, num::Matrix& a, num::Matrix& b) {
                    ++callbacks;
                    inner(seg, a, b);
                    if (assembled.size() < kTimedDiscretizations) assembled.emplace_back(a, b);
                };
                sys.branch_voltage = [inner = sys.branch_voltage, &callbacks](
                                         std::size_t k, const num::Vector& x) {
                    ++callbacks;
                    return inner(k, x);
                };
                input = [inner = std::move(input), &callbacks](double t) {
                    ++callbacks;
                    return inner(t);
                };
            }
            sim::PwlEngineOptions po;
            po.step = kPwlStep;
            sim::PwlStateSpaceEngine engine(std::move(sys), po);
            engine.set_state(c.initial_state(0.5));
            const double keep_until = nr_horizon_ + 0.5 * kPwlStep;
            auto observe = [&](double t, const num::Vector& x) {
                if (t < keep_until) pwl_out.push_back(c.output_voltage(x));
            };
            engine.run(0.5 * pwl_horizon_, input, observe);
            c.set_resonant_frequency(f_exc);
            engine.invalidate_cache();
            engine.run(pwl_horizon_, input, observe);
            pwl_stats = engine.stats();
            result.part_a_s = scope.elapsed();
        }

        // Part b: Newton-Raphson on the same input, untuned.
        sim::TransientStats nr_stats;
        CallTally rhs_tally;
        {
            ScopedLayer scope(tracer, "sim.nr");
            harvester::HarvesterCircuit c(params_);
            c.set_resonant_frequency(f_res);
            num::OdeRhs rhs = c.make_nonlinear_rhs(accel);
            if (tracer) rhs = timed_rhs(std::move(rhs), rhs_tally);
            sim::TransientOptions no;
            no.step = kNrStep;
            sim::TransientEngine engine(std::move(rhs), c.state_dim(), no);
            engine.set_state(c.initial_state(0.5));
            engine.run(nr_horizon_,
                       [&](double, const num::Vector& x) { nr_out.push_back(c.output_voltage(x)); });
            nr_stats = engine.stats();
            result.part_b_s = scope.elapsed();
        }

        result.unit_s = result.part_a_s + result.part_b_s;
        const double drms =
            rel_rms(pwl_out, nr_out, static_cast<std::size_t>(std::lround(kPwlStep / kNrStep)));
        drms_.add(drms);
        if (!(drms < kDrmsBound))
            result.failure = "PWL waveform dRMS " + std::to_string(drms) + " against NR";
        if (pwl_stats.cache_misses < 2 && result.failure.empty())
            result.failure = "retune did not rebuild the discretization";
        result.work = static_cast<double>(pwl_stats.steps + pwl_stats.retried_steps +
                                          nr_stats.newton_iterations);

        if (tracer) {
            tracer->add_count("sim.pwl.steps", static_cast<double>(pwl_stats.steps));
            tracer->add_count("sim.pwl.retried_steps", static_cast<double>(pwl_stats.retried_steps));
            tracer->add_count("sim.pwl.segment_changes",
                              static_cast<double>(pwl_stats.segment_changes));
            tracer->add_count("sim.pwl.expm_builds", static_cast<double>(pwl_stats.cache_misses));
            tracer->add_count("harvester.pwl_callback_calls", static_cast<double>(callbacks));
            tracer->add_count("sim.nr.steps", static_cast<double>(nr_stats.steps));
            tracer->add_count("sim.nr.newton_iterations",
                              static_cast<double>(nr_stats.newton_iterations));
            tracer->add_count("sim.nr.jacobian_builds", static_cast<double>(nr_stats.jacobian_builds));
            tracer->add_count("sim.nr.lu_factorizations",
                              static_cast<double>(nr_stats.lu_factorizations));
            tracer->add_count("sim.nr.rhs_evaluations", static_cast<double>(nr_stats.rhs_evaluations));
            tracer->add_count("sim.nr.nonconverged_steps",
                              static_cast<double>(nr_stats.nonconverged_steps));
            tracer->add_time("harvester.rhs", rhs_tally.seconds);
            tracer->add_count("harvester.rhs_calls", static_cast<double>(rhs_tally.calls));
            // The expm kernel alone, on the segment matrices this unit
            // assembled.
            for (const auto& [a, b] : assembled) {
                const auto t0 = Clock::now();
                const num::Discretized d = num::discretize_zoh(a, b, kPwlStep);
                tracer->add_sample("numerics.discretize_zoh", seconds_since(t0));
                if (d.ad.rows() != a.rows() && result.failure.empty())
                    result.failure = "discretize_zoh shape";
            }
        }
        return result;
    }

    void named_results(const UnitSamples& untraced, MetricTable& out) const override {
        out.set("pwl_run_p50_ms", untraced.part_a_ms.median(), "ms");
        out.set("pwl_run_p90_ms", untraced.part_a_ms.quantile(0.9), "ms");
        out.set("nr_run_p50_ms", untraced.part_b_ms.median(), "ms");
        out.set("pwl_drms", drms_.quantile(1.0), "ratio");
    }

    double layer_metrics(const Tracer& t, std::size_t units, MetricTable& out) const override {
        const double n = static_cast<double>(units);
        const double pwl = t.time("sim.pwl");
        const double nr = t.time("sim.nr");
        const double rhs = t.time("harvester.rhs");
        const double pwl_steps = t.count("sim.pwl.steps");
        out.set("sim.pwl.steps", pwl_steps / n, "count");
        out.set("sim.pwl.retried_steps", t.count("sim.pwl.retried_steps") / n, "count");
        out.set("sim.pwl.segment_changes", t.count("sim.pwl.segment_changes") / n, "count");
        out.set("sim.pwl.expm_builds", t.count("sim.pwl.expm_builds") / n, "count");
        out.set("sim.pwl.ns_per_step", 1e9 * pwl / pwl_steps, "ns");
        out.set("sim.pwl.drms", drms_.quantile(1.0), "ratio");
        out.set("numerics.discretize_zoh_us", 1e6 * t.samples("numerics.discretize_zoh").median(),
                "us");
        out.set("harvester.pwl_callback_calls", t.count("harvester.pwl_callback_calls") / n,
                "count");
        for (const char* counter : {"newton_iterations", "jacobian_builds", "lu_factorizations",
                                    "rhs_evaluations", "nonconverged_steps"}) {
            const std::string name = std::string("sim.nr.") + counter;
            out.set(name, t.count(name) / n, "count");
        }
        out.set("sim.nr.ns_per_step", 1e9 * nr / t.count("sim.nr.steps"), "ns");
        out.set("harvester.rhs_ns", 1e9 * rhs / t.count("harvester.rhs_calls"), "ns");
        out.set("harvester.rhs_share", rhs / nr, "ratio");
        // The discretize timing runs after the unit, outside its wall.
        return pwl + nr;
    }

private:
    Config config_;
    harvester::HarvesterCircuitParams params_;
    double pwl_horizon_;
    double nr_horizon_;
    Samples drms_;
};

}  // namespace

std::unique_ptr<Workload> make_circuit_transient(const Config& config) {
    return std::make_unique<CircuitTransient>(config);
}

}  // namespace perfbench
