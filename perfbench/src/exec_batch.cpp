// exec_batch: seeded S1 design batches through exec::ExecBackend with two
// threads, one mock_hdl_sim process per point, against the same batch
// evaluated in-process. One unit is one batch:
//   part a: the batch through the exec backend (process launch dominates);
//   part b: the batch in-process — the single-threaded baseline the exec
//           results must equal bitwise.
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/scenario.hpp"
#include "doe/batch_runner.hpp"
#include "doe/lhs.hpp"
#include "exec/exec_backend.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ehdoe;

namespace {

constexpr std::size_t kThreads = 2;

class ExecBatch : public Workload {
public:
    explicit ExecBatch(const Config& config)
        : config_(config),
          horizon_(config.tiny ? 10.0 : 60.0),
          points_(config.tiny ? 4 : 16),
          scenario_(core::Scenario::make(core::ScenarioId::OfficeHvac, horizon_)),
          simulation_(scenario_.make_simulation()) {}

    /// Launching a simulator is fork, exec and loader work, which the
    /// host's speed levels move differently from user code; the in-process
    /// baseline is user code.
    Calibrated calibrated() const override {
        return {Speed::Launch, Speed::Launch, Speed::Cpu, Speed::Cpu};
    }

    void setup() override {
        runner_.reset();
        traced_runner_.reset();
        traced_exec_.reset();
        dir_.reset();
        dir_ = std::make_unique<ScratchDir>("perfbench-exec");
        recipe_file_ = dir_->file("s1.recipe");
        std::ofstream(recipe_file_) << recipe_text();

        doe::RunnerOptions o;
        o.recipe_file = recipe_file_;
        o.threads = kThreads;
        runner_ = std::make_unique<doe::BatchRunner>(doe::Simulation{}, o);
        core::BackendOptions bo;
        bo.threads = kThreads;
        traced_exec_ = std::make_shared<exec::ExecBackend>(
            exec::SimRecipe::parse_file(recipe_file_), bo);
        // First touch: one launch through each backend.
        const num::Vector centre = scenario_.design_space().to_natural(num::Vector(6));
        runner_->evaluate_point(centre);
        runner_->clear_cache();
        traced_exec_->evaluate({centre});
        production_ = dynamic_cast<const exec::ExecBackend*>(&runner_->backend());
        if (!production_) throw std::runtime_error("exec_batch: runner is not an exec stack");
        baseline_latency_ = production_->latency_histogram();
        traced_baseline_ = traced_exec_->latency_histogram();
        traced_launches_ = traced_exec_->launches();
        traced_relaunches_ = traced_exec_->relaunches();
        traced_timeouts_ = traced_exec_->timeouts();
    }

    UnitResult run_unit(std::uint64_t index, Tracer* tracer) override {
        const doe::DesignSpace space = scenario_.design_space();
        const doe::Design lhs =
            doe::latin_hypercube(points_, space.dimension(), mix_seed(config_.seed, index));
        std::vector<num::Vector> points;
        for (std::size_t i = 0; i < points_; ++i) points.push_back(space.to_natural(lhs.points.row(i)));

        UnitResult result;
        std::vector<core::ResponseMap> launched;
        const std::size_t launches_before = production_->launches() + traced_exec_->launches();
        {
            ScopedLayer scope(tracer, "doe.exec");
            if (tracer) {
                if (!traced_runner_) {
                    traced_runner_ = std::make_unique<doe::BatchRunner>(
                        std::make_shared<TimedBackend>("exec", traced_exec_, *tracer));
                }
                launched = traced_runner_->evaluate(points);
                traced_runner_->clear_cache();
            } else {
                launched = runner_->evaluate(points);
                runner_->clear_cache();
            }
            result.part_a_s = scope.elapsed();
        }
        std::vector<core::ResponseMap> reference;
        {
            ScopedLayer scope(tracer, "node");
            for (const num::Vector& p : points)
                reference.push_back(core::simulate_replicated(simulation_, p, 1));
            result.part_b_s = scope.elapsed();
        }
        result.unit_s = result.part_a_s + result.part_b_s;
        result.work = static_cast<double>(production_->launches() + traced_exec_->launches() -
                                          launches_before);
        if (!tracer) exec_points_.add(static_cast<double>(points_) / result.part_a_s);
        for (std::size_t i = 0; i < points_ && result.failure.empty(); ++i) {
            if (!bitwise_equal(launched[i], reference[i]))
                result.failure = "exec result differs from in-process at point " + std::to_string(i);
        }
        return result;
    }

    void named_results(const UnitSamples&, MetricTable& out) const override {
        core::telemetry::LatencyHistogram h = production_->latency_histogram();
        h.subtract(baseline_latency_);
        out.set("exec_points_per_s", exec_points_.median(), "1/s");
        out.set("exec_point_p90_ms", h.percentile_us(90.0) * 1e-3, "ms");
    }

    double layer_metrics(const Tracer& t, std::size_t units, MetricTable& out) const override {
        const double n = static_cast<double>(units);
        core::telemetry::LatencyHistogram h = traced_exec_->latency_histogram();
        h.subtract(traced_baseline_);
        out.set("exec.launches", static_cast<double>(traced_exec_->launches() - traced_launches_) / n,
                "count");
        out.set("exec.relaunches",
                static_cast<double>(traced_exec_->relaunches() - traced_relaunches_), "count");
        out.set("exec.timeouts", static_cast<double>(traced_exec_->timeouts() - traced_timeouts_),
                "count");
        out.set("exec.point_p50_us", h.percentile_us(50.0), "us");
        out.set("exec.point_p99_us", h.percentile_us(99.0), "us");
        // The memo layer's self time is the batch minus the backend call.
        const double exec = t.time("exec");
        return exec + (t.time("doe.exec") - exec) + t.time("node");
    }

private:
    std::string recipe_text() const {
        return "command: " + config_.mock_sim +
               " --deck {deck}\n"
               "input: deck\n"
               "deck-line: scenario S1\n"
               "deck-line: duration " +
               std::to_string(horizon_) +
               "\n"
               "deck-line: index {index}\n"
               "deck-line: point {point}\n"
               "output: stdout\n"
               "extract: E_harv regex ^E_harv=(\\S+)$\n"
               "extract: E_cons regex ^E_cons=(\\S+)$\n"
               "extract: E_tune regex ^E_tune=(\\S+)$\n"
               "extract: V_min column values 4\n"
               "extract: downtime column values 5\n"
               "extract: packets column values 6\n";
    }

    Config config_;
    double horizon_;
    std::size_t points_;
    core::Scenario scenario_;
    doe::Simulation simulation_;
    std::unique_ptr<ScratchDir> dir_;
    std::string recipe_file_;
    std::unique_ptr<doe::BatchRunner> runner_;
    const exec::ExecBackend* production_ = nullptr;
    std::shared_ptr<exec::ExecBackend> traced_exec_;
    std::unique_ptr<doe::BatchRunner> traced_runner_;
    core::telemetry::LatencyHistogram baseline_latency_;
    core::telemetry::LatencyHistogram traced_baseline_;
    std::size_t traced_launches_ = 0, traced_relaunches_ = 0, traced_timeouts_ = 0;
    Samples exec_points_;
};

}  // namespace

std::unique_ptr<Workload> make_exec_batch(const Config& config) {
    return std::make_unique<ExecBatch>(config);
}

}  // namespace perfbench
