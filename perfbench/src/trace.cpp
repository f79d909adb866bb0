#include "trace.hpp"

namespace perfbench {

using namespace ehdoe;

void Tracer::add_time(const std::string& layer, double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    time_[layer] += seconds;
}

void Tracer::add_count(const std::string& name, double n) {
    std::lock_guard<std::mutex> lock(mutex_);
    count_[name] += n;
}

void Tracer::add_sample(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_[name].add(value);
}

double Tracer::time(const std::string& layer) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = time_.find(layer);
    return it == time_.end() ? 0.0 : it->second;
}

double Tracer::count(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = count_.find(name);
    return it == count_.end() ? 0.0 : it->second;
}

Samples Tracer::samples(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = samples_.find(name);
    return it == samples_.end() ? Samples{} : it->second;
}

ScopedLayer::ScopedLayer(Tracer* tracer, const char* layer)
    : tracer_(tracer), layer_(layer), t0_(Clock::now()) {
    if (tracer_) span_ = std::make_unique<core::telemetry::Span>(layer, "perfbench");
}

ScopedLayer::~ScopedLayer() {
    span_.reset();
    if (tracer_) tracer_->add_time(layer_, elapsed());
}

TimedBackend::TimedBackend(const char* layer, std::shared_ptr<core::EvalBackend> inner,
                           Tracer& tracer)
    : layer_(layer), inner_(std::move(inner)), tracer_(tracer) {}

std::vector<core::ResponseMap> TimedBackend::evaluate(const std::vector<core::Vector>& points) {
    ScopedLayer scope(&tracer_, layer_);
    return inner_->evaluate(points);
}

core::Simulation timed_simulation(core::Simulation sim, Tracer& tracer, const char* layer) {
    return [sim = std::move(sim), &tracer, layer](const core::Vector& x) {
        const auto t0 = Clock::now();
        core::ResponseMap out = sim(x);
        const double dt = seconds_since(t0);
        tracer.add_time(layer, dt);
        tracer.add_sample(layer, dt);
        return out;
    };
}

num::OdeRhs timed_rhs(num::OdeRhs rhs, CallTally& tally) {
    return [rhs = std::move(rhs), &tally](double t, const num::Vector& x) {
        const auto t0 = Clock::now();
        num::Vector dx = rhs(t, x);
        tally.seconds += seconds_since(t0);
        ++tally.calls;
        return dx;
    };
}

}  // namespace perfbench
