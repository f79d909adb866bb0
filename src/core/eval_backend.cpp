#include "core/eval_backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/inprocess_backend.hpp"

namespace ehdoe::core {

Simulation Simulation::batched(std::size_t width, Batch batch) {
    if (width == 0) throw std::invalid_argument("Simulation::batched: width >= 1");
    Simulation sim;
    sim.batch_ = std::move(batch);
    sim.width_ = width;
    return sim;
}

Simulation Simulation::per_point(std::function<ResponseMap(const Vector&)> point) {
    if (!point) return {};
    return batched(1, [point = std::move(point)](const Vector* points, std::size_t n,
                                                 PointOutcome* out) {
        for (std::size_t i = 0; i < n; ++i) {
            try {
                out[i].responses = point(points[i]);
            } catch (...) {
                out[i].error = std::current_exception();
            }
        }
    });
}

void Simulation::evaluate(const Vector* points, std::size_t n, PointOutcome* out) const {
    try {
        batch_(points, n, out);
    } catch (...) {
        const std::exception_ptr error = std::current_exception();
        for (std::size_t i = 0; i < n; ++i)
            if (!out[i].error && out[i].responses.empty()) out[i].error = error;
    }
}

ResponseMap Simulation::operator()(const Vector& natural) const {
    PointOutcome outcome;
    evaluate(&natural, 1, &outcome);
    if (outcome.error) std::rethrow_exception(outcome.error);
    return std::move(outcome.responses);
}

void simulate_batch(const Simulation& sim, const Vector* points, std::size_t n,
                    PointOutcome* out) {
    sim.evaluate(points, n, out);
    for (std::size_t i = 0; i < n; ++i) {
        if (out[i].error) continue;
        if (out[i].responses.empty()) {
            out[i].error = std::make_exception_ptr(
                std::runtime_error("EvalBackend: simulation returned nothing"));
            continue;
        }
        for (auto& [k, v] : out[i].responses) v = 0.0 + v;
    }
}

std::size_t lane_batch(std::size_t width, std::size_t n, std::size_t workers) {
    return std::min(width, std::max<std::size_t>(1, (n + workers - 1) / workers));
}

ResponseMap simulate_replicated(const Simulation& sim, const Vector& natural,
                                std::size_t replicates) {
    ResponseMap acc;
    for (std::size_t r = 0; r < replicates; ++r) {
        PointOutcome one;
        simulate_batch(sim, &natural, 1, &one);
        if (one.error) std::rethrow_exception(one.error);
        for (const auto& [k, v] : one.responses) acc[k] += v;
    }
    for (auto& [k, v] : acc) v /= static_cast<double>(replicates);
    return acc;
}

std::shared_ptr<EvalBackend> make_backend(Simulation sim, BackendKind /*kind*/,
                                          const BackendOptions& options) {
    return std::make_shared<InProcessBackend>(std::move(sim), options);
}

}  // namespace ehdoe::core
