#include "doe/batch_runner.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/inprocess_backend.hpp"
#include "core/persistent_cache.hpp"
#include "core/telemetry.hpp"
#include "exec/exec_backend.hpp"
#include "net/remote_backend.hpp"
#include "store/store_backend.hpp"

namespace ehdoe::doe {

namespace {

/// Key a point by its exact coordinates: memoization must only ever fire on
/// bit-identical inputs (centre replicates and re-visits are exact copies).
std::vector<double> cache_key(const Vector& natural) {
    return std::vector<double>(natural.begin(), natural.end());
}

}  // namespace

BatchRunner::BatchRunner(Simulation sim, RunnerOptions options)
    : options_(std::move(options)) {
    // Remote and exec stacks own the simulation themselves (the servers /
    // the recipe's command); only local in-process execution needs the
    // closure.
    if (!sim && options_.endpoints.empty() && options_.recipe_file.empty())
        throw std::invalid_argument("BatchRunner: simulation required");

    // Tracing and the journal must be live before the backend stack is
    // built so construction-time work (remote handshakes, recipe parsing,
    // cache loads) lands in them too.
    open_sinks();

    // The recipe content hash joins the cache identity: responses cached
    // (or remotely served) under one recipe revision must never silently
    // satisfy another.
    std::string recipe_tag;
    if (!options_.endpoints.empty()) {
        // Remote sharded execution: the servers own the simulation; the
        // handshake identity is the same fingerprint the persistent cache
        // uses, so one string names the simulation everywhere.
        net::RemoteBackendOptions ro;
        ro.endpoints.reserve(options_.endpoints.size());
        for (const std::string& spec : options_.endpoints) {
            ro.endpoints.push_back(net::parse_endpoint(spec));
        }
        ro.fingerprint = options_.cache_fingerprint;
        backend_ = std::make_shared<net::RemoteBackend>(std::move(ro));
    } else if (!options_.recipe_file.empty()) {
        // Exec execution: the recipe owns the simulation (an external
        // co-simulator process per point).
        exec::SimRecipe recipe = exec::SimRecipe::parse_file(options_.recipe_file);
        recipe_tag = "/recipe=" + recipe.fingerprint();
        core::BackendOptions bo;
        bo.threads = options_.threads;
        backend_ = std::make_shared<exec::ExecBackend>(std::move(recipe), bo);
    } else {
        core::BackendOptions bo;
        bo.threads = options_.threads;
        backend_ = std::make_shared<core::InProcessBackend>(std::move(sim), bo);
    }
    // The result identity, which the store keys and the snapshot
    // fingerprint share. The recipe revision (exec stacks) is part of it:
    // a different simulator must never silently reuse these responses. The
    // "/replicates=1" suffix is a fixed literal: every store key and
    // snapshot written by earlier builds, which still took a replicate
    // count, ends with it, so keeping it keeps them warm.
    const std::string identity = options_.cache_fingerprint + recipe_tag + "/replicates=1";
    if (!options_.store_endpoint.empty()) {
        // The farm-wide tier sits between the local snapshot and
        // simulation: snapshot hits never touch the network, store hits
        // never touch a simulator.
        const net::Endpoint ep = net::parse_endpoint(options_.store_endpoint);
        store::StoreBackendOptions so;
        so.host = ep.host;
        so.port = ep.port;
        so.fingerprint = identity;
        backend_ = std::make_shared<store::StoreBackend>(std::move(backend_), std::move(so));
    }
    if (!options_.cache_file.empty()) {
        auto cached = std::make_shared<core::PersistentCache>(std::move(backend_),
                                                              options_.cache_file, identity);
        persistent_ = cached.get();
        backend_ = std::move(cached);
    }
}

BatchRunner::BatchRunner(std::shared_ptr<core::EvalBackend> backend)
    : backend_(std::move(backend)) {
    if (!backend_) throw std::invalid_argument("BatchRunner: backend required");
    persistent_ = dynamic_cast<core::PersistentCache*>(backend_.get());
}

BatchRunner::~BatchRunner() {
    if (!options_.trace_file.empty()) {
        core::telemetry::write_json(options_.trace_file);
    }
}

void BatchRunner::open_sinks() {
    if (options_.trace_file.empty() && options_.event_log_file.empty()) return;
    core::telemetry::set_process_label("ehdoe-client");
    if (!options_.trace_file.empty()) core::telemetry::enable();
    if (!options_.event_log_file.empty()) {
        journal_ = std::make_unique<core::telemetry::Journal>(options_.event_log_file);
    }
}

std::size_t BatchRunner::threads() const { return backend_->concurrency(); }

bool BatchRunner::save_cache() const { return persistent_ ? persistent_->save() : false; }

std::vector<ResponseMap> BatchRunner::evaluate_rows(const std::vector<Vector>& rows) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = rows.size();
    std::vector<ResponseMap> out(n);

    core::telemetry::Span batch_span("batch", "runner");

    // Phase 1: resolve every row to either a memoized result or a slot in
    // the pending work list. Duplicates within the call collapse onto one
    // slot, so centre replicates cost one simulation even on a cold cache.
    std::vector<Vector> pending;
    // Row -> (pending slot) or (direct result already placed in `out`).
    constexpr std::size_t kResolved = static_cast<std::size_t>(-1);
    std::vector<std::size_t> slot_of(n, kResolved);
    std::size_t call_hits = 0;

    {
        core::telemetry::Span dedup_span("dedup", "runner");
        std::map<std::vector<double>, std::size_t> seen;  // key -> pending slot
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<double> key = cache_key(rows[i]);
            if (const auto hit = cache_.find(key); hit != cache_.end()) {
                out[i] = hit->second;
                ++call_hits;
                continue;
            }
            if (const auto dup = seen.find(key); dup != seen.end()) {
                slot_of[i] = dup->second;
                ++call_hits;
                continue;
            }
            seen.emplace(std::move(key), pending.size());
            slot_of[i] = pending.size();
            pending.push_back(rows[i]);
        }
        dedup_span.arg("rows", static_cast<std::uint64_t>(n));
        dedup_span.arg("pending", static_cast<std::uint64_t>(pending.size()));
        dedup_span.arg("memo_hits", static_cast<std::uint64_t>(call_hits));
    }
    batch_span.arg("rows", static_cast<std::uint64_t>(n));
    batch_span.arg("pending", static_cast<std::uint64_t>(pending.size()));

    // Phase 2: hand the unique misses to the backend. Its lifetime ledgers
    // (simulations actually run, backend-level cache hits, batches) are read
    // as deltas around the call so the orchestrator's stats aggregate every
    // layer of the stack — including when the backend throws.
    const std::size_t sims_before = backend_->simulations();
    const std::size_t bhits_before = backend_->cache_hits();
    const std::size_t batches_before = backend_->batches();

    auto account = [&] {
        stats_.points += n;
        stats_.simulations += backend_->simulations() - sims_before;
        stats_.cache_hits += call_hits + (backend_->cache_hits() - bhits_before);
        stats_.batches += backend_->batches() - batches_before;
        stats_.wall_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    };

    std::vector<ResponseMap> fresh;
    try {
        fresh = backend_->evaluate(pending);
    } catch (...) {
        account();  // a failed run still spent simulator time
        throw;
    }
    account();

    // Phase 3: commit to the memo table and scatter into design order.
    {
        core::telemetry::Span commit_span("memo-commit", "runner");
        for (std::size_t s = 0; s < pending.size(); ++s) {
            cache_[cache_key(pending[s])] = fresh[s];
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (slot_of[i] != kResolved) out[i] = fresh[slot_of[i]];
        }
    }
    return out;
}

std::vector<ResponseMap> BatchRunner::evaluate(const std::vector<Vector>& natural) {
    return evaluate_rows(natural);
}

std::vector<ResponseMap> BatchRunner::evaluate(const Matrix& natural) {
    std::vector<Vector> rows;
    rows.reserve(natural.rows());
    for (std::size_t i = 0; i < natural.rows(); ++i) rows.push_back(natural.row(i));
    return evaluate_rows(rows);
}

ResponseMap BatchRunner::evaluate_point(const Vector& natural) {
    return evaluate_rows({natural})[0];
}

RunResults BatchRunner::run_points(const DesignSpace& space, const Matrix& coded_points) {
    if (coded_points.cols() != space.dimension())
        throw std::invalid_argument("run_points: dimension mismatch");

    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = coded_points.rows();
    const std::size_t sims_before = stats_.simulations;
    const std::size_t hits_before = stats_.cache_hits;

    RunResults out;
    out.design.kind = "explicit-points";
    out.design.points = coded_points;
    out.natural = Matrix(n, space.dimension());
    for (std::size_t i = 0; i < n; ++i) {
        out.natural.set_row(i, space.to_natural(coded_points.row(i)));
    }

    const std::vector<ResponseMap> rows = evaluate(out.natural);

    // Establish the response-name order from the first row and require
    // consistency (a simulation that sometimes drops a response is a bug).
    if (n > 0) {
        for (const auto& [k, v] : rows[0]) out.response_names.push_back(k);
    }
    out.responses = Matrix(n, out.response_names.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (rows[i].size() != out.response_names.size())
            throw std::runtime_error("run_points: inconsistent response sets across runs");
        for (std::size_t j = 0; j < out.response_names.size(); ++j) {
            const auto it = rows[i].find(out.response_names[j]);
            if (it == rows[i].end())
                throw std::runtime_error("run_points: response '" + out.response_names[j] +
                                         "' missing from run " + std::to_string(i));
            out.responses(i, j) = it->second;
        }
    }

    out.simulations = stats_.simulations - sims_before;
    out.cache_hits = stats_.cache_hits - hits_before;
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return out;
}

RunResults BatchRunner::run_design(const DesignSpace& space, const Design& design) {
    RunResults out = run_points(space, design.points);
    out.design = design;
    return out;
}

}  // namespace ehdoe::doe
