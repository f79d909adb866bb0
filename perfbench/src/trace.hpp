// The traced run's per-layer accounting. Everything here lives in the
// benchmark: spans and timers wrap the calls into each module's public
// functions (EvalBackend::evaluate, the Simulation/OdeRhs/PwlSystem
// closures, the DesignFlow phases). Spans also go to the core::telemetry
// recorder, held in memory and written as one Chrome trace at the end.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/eval_backend.hpp"
#include "core/telemetry.hpp"
#include "harness.hpp"
#include "numerics/ode.hpp"

namespace perfbench {

/// Accumulated busy time per layer and named counters of the traced units.
/// Thread-safe: closures may run on pool threads.
class Tracer {
public:
    void add_time(const std::string& layer, double seconds);
    void add_count(const std::string& name, double n = 1.0);
    void add_sample(const std::string& name, double value);

    double time(const std::string& layer) const;
    double count(const std::string& name) const;
    Samples samples(const std::string& name) const;

private:
    mutable std::mutex mutex_;
    std::map<std::string, double> time_;
    std::map<std::string, double> count_;
    std::map<std::string, Samples> samples_;
};

/// Times one scope into `tracer` (when non-null) under `layer`, and
/// records a telemetry span of the same name. `layer` must be a literal.
class ScopedLayer {
public:
    ScopedLayer(Tracer* tracer, const char* layer);
    ~ScopedLayer();
    ScopedLayer(const ScopedLayer&) = delete;
    ScopedLayer& operator=(const ScopedLayer&) = delete;
    /// Seconds since construction.
    double elapsed() const { return seconds_since(t0_); }

private:
    Tracer* tracer_;
    const char* layer_;
    Clock::time_point t0_;
    std::unique_ptr<ehdoe::core::telemetry::Span> span_;
};

/// EvalBackend decorator: every evaluate() of `inner` is one span and adds
/// its wall to `layer`. Counters forward to the wrapped backend.
class TimedBackend : public ehdoe::core::EvalBackend {
public:
    TimedBackend(const char* layer, std::shared_ptr<ehdoe::core::EvalBackend> inner,
                 Tracer& tracer);

    std::vector<ehdoe::core::ResponseMap> evaluate(
        const std::vector<ehdoe::core::Vector>& points) override;
    std::string name() const override { return inner_->name(); }
    std::size_t concurrency() const override { return inner_->concurrency(); }
    std::size_t simulations() const override { return inner_->simulations(); }
    std::size_t cache_hits() const override { return inner_->cache_hits(); }
    std::size_t batches() const override { return inner_->batches(); }

private:
    const char* layer_;
    std::shared_ptr<ehdoe::core::EvalBackend> inner_;
    Tracer& tracer_;
};

/// `sim` with every call timed into `layer` (busy time) and its
/// per-call latency into the `layer` samples.
ehdoe::core::Simulation timed_simulation(ehdoe::core::Simulation sim, Tracer& tracer,
                                         const char* layer);

/// Busy time and call count of a fine-grained closure, kept off the
/// Tracer's lock; the caller flushes it after the run.
struct CallTally {
    double seconds = 0.0;
    std::uint64_t calls = 0;
};

/// `rhs` with every call timed and counted into `tally`, which must
/// outlive the returned closure and is written from the caller's thread.
ehdoe::num::OdeRhs timed_rhs(ehdoe::num::OdeRhs rhs, CallTally& tally);

}  // namespace perfbench
