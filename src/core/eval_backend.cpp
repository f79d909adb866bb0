#include "core/eval_backend.hpp"

#include <stdexcept>

#include "core/inprocess_backend.hpp"

namespace ehdoe::core {

ResponseMap simulate_replicated(const Simulation& sim, const Vector& natural,
                                std::size_t replicates) {
    ResponseMap acc;
    for (std::size_t r = 0; r < replicates; ++r) {
        ResponseMap one = sim(natural);
        if (one.empty()) throw std::runtime_error("EvalBackend: simulation returned nothing");
        for (const auto& [k, v] : one) acc[k] += v;
    }
    for (auto& [k, v] : acc) v /= static_cast<double>(replicates);
    return acc;
}

std::shared_ptr<EvalBackend> make_backend(Simulation sim, BackendKind /*kind*/,
                                          const BackendOptions& options) {
    return std::make_shared<InProcessBackend>(std::move(sim), options);
}

}  // namespace ehdoe::core
