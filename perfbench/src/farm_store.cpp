// farm_store: the evaluation farm's reuse tiers. S1 at a short horizon, so a
// simulation is cheap and the farm path carries the time. Set-up starts one
// ehdoe-store-server and two one-worker ehdoe-eval-server shards on
// loopback. One unit is one round over a fresh seeded LHS batch:
//   cold     memo -> snapshot file -> store -> remote: every point misses,
//            is simulated remotely, put to the store and saved to the
//            round's snapshot file (part a);
//   warm     a fresh runner over the store only: every point is a get hit
//            (part b);
//   snapshot a fresh runner over the round's snapshot file only.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "core/persistent_cache.hpp"
#include "core/scenario.hpp"
#include "doe/batch_runner.hpp"
#include "doe/lhs.hpp"
#include "net/remote_backend.hpp"
#include "store/store_backend.hpp"
#include "store/store_client.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ehdoe;

namespace {

constexpr std::size_t kShards = 2;

core::telemetry::LatencyHistogram histogram_of(const net::ShardStats& stats) {
    core::telemetry::LatencyHistogram h;
    for (const auto& [index, count] : stats.latency_buckets) h.add_bucket(index, count);
    return h;
}

/// Summed eval time a histogram records, from its bucket floors.
double histogram_seconds(const core::telemetry::LatencyHistogram& h) {
    double us = 0.0;
    for (const auto& [index, count] : h.sparse()) {
        us += static_cast<double>(core::telemetry::LatencyHistogram::bucket_floor(index)) *
              static_cast<double>(count);
    }
    return us * 1e-6;
}

class FarmStore : public Workload {
public:
    explicit FarmStore(const Config& config)
        : config_(config),
          horizon_(config.tiny ? 10.0 : 60.0),
          points_(config.tiny ? 8 : 32),
          scenario_(core::Scenario::make(core::ScenarioId::OfficeHvac, horizon_)),
          simulation_(scenario_.make_simulation()),
          fingerprint_(scenario_.fingerprint()) {}

    /// The cold round waits on the store connection's delayed ACKs and
    /// set-up on daemon start, so both stay raw; the warm phase is socket
    /// work, the snapshot phase file and CPU work.
    Calibrated calibrated() const override {
        return {Speed::Raw, Speed::Raw, Speed::Kernel, Speed::Kernel};
    }

    void setup() override {
        eval_.clear();
        store_.reset();
        dir_.reset();
        dir_ = std::make_unique<ScratchDir>("perfbench-farm");
        store_ = std::make_unique<Daemon>(
            std::vector<std::string>{config_.store_server, "--dir", dir_->file("store"), "--port",
                                     "0"},
            dir_->file("store.log"));
        endpoints_.clear();
        char duration[32];
        std::snprintf(duration, sizeof duration, "%g", horizon_);
        for (std::size_t i = 0; i < kShards; ++i) {
            eval_.push_back(std::make_unique<Daemon>(
                std::vector<std::string>{config_.eval_server, "--scenario", "S1", "--duration",
                                         duration, "--port", "0", "--workers", "1"},
                dir_->file("eval-" + std::to_string(i) + ".log")));
            endpoints_.push_back(eval_.back()->endpoint());
        }
        // Handshakes and first touch: one round on a seed stream the
        // measured rounds never use.
        const UnitResult warmup = run_unit(~std::uint64_t{0}, nullptr);
        if (!warmup.failure.empty()) throw std::runtime_error("farm warm-up: " + warmup.failure);
        rounds_ = 0;
        cold_points_ = warm_points_ = snapshot_points_ = Samples{};
        baseline_shards_ = shard_stats();
        baseline_store_ = store_stats();
    }

    UnitResult run_unit(std::uint64_t index, Tracer* tracer) override {
        const doe::DesignSpace space = scenario_.design_space();
        const doe::Design lhs =
            doe::latin_hypercube(points_, space.dimension(), mix_seed(config_.seed, index));
        std::vector<num::Vector> points;
        for (std::size_t i = 0; i < points_; ++i) points.push_back(space.to_natural(lhs.points.row(i)));
        const std::string snapshot = dir_->file("round.ehcache");

        UnitResult result;
        std::vector<core::ResponseMap> cold, warm, snap;
        std::size_t cold_sims = 0, warm_sims = 0, snap_sims = 0;
        const auto t_cold = Clock::now();
        if (tracer) {
            cold = traced_cold(points, snapshot, *tracer, cold_sims);
        } else {
            doe::RunnerOptions o = tier_options();
            o.endpoints = endpoints_;
            o.store_endpoint = store_->endpoint();
            o.cache_file = snapshot;
            doe::BatchRunner runner(doe::Simulation{}, o);
            cold = runner.evaluate(points);
            cold_sims = runner.stats().simulations;
        }
        result.part_a_s = seconds_since(t_cold);

        const auto t_warm = Clock::now();
        if (tracer) {
            warm = traced_warm(points, *tracer, warm_sims);
        } else {
            doe::RunnerOptions o = tier_options();
            o.store_endpoint = store_->endpoint();
            doe::BatchRunner runner(simulation_, o);
            warm = runner.evaluate(points);
            warm_sims = runner.stats().simulations;
        }
        result.part_b_s = seconds_since(t_warm);

        const auto t_snap = Clock::now();
        if (tracer) {
            snap = traced_snapshot(points, snapshot, *tracer, snap_sims);
        } else {
            doe::RunnerOptions o = tier_options();
            o.cache_file = snapshot;
            doe::BatchRunner runner(simulation_, o);
            snap = runner.evaluate(points);
            snap_sims = runner.stats().simulations;
        }
        const double snap_s = seconds_since(t_snap);
        result.unit_s = result.part_a_s + result.part_b_s + snap_s;
        result.work = static_cast<double>(cold_sims + warm_sims + snap_sims);
        if (tracer) {
            tracer->add_sample("doe.batch.cold", result.part_a_s);
            tracer->add_sample("doe.batch.warm", result.part_b_s);
            tracer->add_sample("doe.batch.snapshot", snap_s);
            tracer->add_count("farm.rounds");
        }
        ++rounds_;
        cold_points_.add(static_cast<double>(points_) / result.part_a_s);
        warm_points_.add(static_cast<double>(points_) / result.part_b_s);
        snapshot_points_.add(static_cast<double>(points_) / snap_s);

        std::error_code ec;
        std::filesystem::remove(snapshot, ec);
        std::filesystem::remove(snapshot + ".lock", ec);

        // Checks: the reuse tiers are bitwise the cold results and
        // simulation-free; a sampled cold point is bitwise in-process.
        if (cold_sims != points_) result.failure = "cold round simulated " + std::to_string(cold_sims);
        if (warm_sims != 0 || snap_sims != 0)
            result.failure = "warm tiers simulated " + std::to_string(warm_sims + snap_sims);
        for (std::size_t i = 0; i < points_ && result.failure.empty(); ++i) {
            if (!bitwise_equal(warm[i], cold[i])) result.failure = "warm differs from cold";
            if (!bitwise_equal(snap[i], cold[i])) result.failure = "snapshot differs from cold";
        }
        const std::size_t probe = index % points_;
        if (result.failure.empty() &&
            !bitwise_equal(core::simulate_replicated(simulation_, points[probe], 1), cold[probe]))
            result.failure = "remote result differs from in-process";
        return result;
    }

    void named_results(const UnitSamples&, MetricTable& out) const override {
        out.set("cold_points_per_s", cold_points_.median(), "1/s");
        out.set("warm_points_per_s", warm_points_.median(), "1/s");
        out.set("snapshot_points_per_s", snapshot_points_.median(), "1/s");
    }

    double layer_metrics(const Tracer& t, std::size_t units, MetricTable& out) const override {
        const double n = static_cast<double>(units);
        out.set("doe.batch_ms.cold", 1e3 * t.samples("doe.batch.cold").median(), "ms");
        out.set("doe.batch_ms.warm", 1e3 * t.samples("doe.batch.warm").median(), "ms");
        out.set("doe.batch_ms.snapshot", 1e3 * t.samples("doe.batch.snapshot").median(), "ms");

        // Server side: stats-frame histogram deltas over every round of
        // the run (the servers do not know which rounds were traced).
        core::telemetry::LatencyHistogram served;
        double points_served = 0.0;
        const std::vector<net::ShardStats> now = shard_stats();
        for (std::size_t i = 0; i < now.size() && i < baseline_shards_.size(); ++i) {
            core::telemetry::LatencyHistogram h = histogram_of(now[i]);
            h.subtract(histogram_of(baseline_shards_[i]));
            served.merge(h);
            points_served += static_cast<double>(now[i].points_served -
                                                 baseline_shards_[i].points_served);
        }
        const double remote = t.time("net.remote");
        const double eval_per_point =
            served.total() > 0 ? histogram_seconds(served) / static_cast<double>(served.total())
                               : 0.0;
        const double traced_points = n * static_cast<double>(points_);
        out.set("net.remote.batch_ms", 1e3 * remote / n, "ms");
        out.set("net.server.eval_p50_us", served.percentile_us(50.0), "us");
        out.set("net.server.eval_p99_us", served.percentile_us(99.0), "us");
        out.set("net.server.points_served",
                rounds_ > 0 ? points_served / static_cast<double>(rounds_) : 0.0, "count");
        out.set("net.remote.wait_share",
                remote > 0 ? 1.0 - eval_per_point * traced_points / remote : 0.0, "ratio");

        const net::StoreStats store_now = store_stats();
        const double hits = t.count("store.hits");
        const double gets = t.count("store.gets");
        const double store_cold = t.time("store.cold") - remote + t.time("store.connect.cold");
        const double store_warm =
            t.time("store.warm") - t.time("node.inner") + t.time("store.connect.warm");
        out.set("store.self_us.cold", 1e6 * store_cold / n, "us");
        out.set("store.self_us.warm", 1e6 * store_warm / n, "us");
        out.set("store.hits", hits / n, "count");
        out.set("store.puts", t.count("store.puts") / n, "count");
        out.set("store.hit_ratio", gets > 0 ? hits / gets : 0.0, "ratio");
        out.set("store.server.records_appended",
                rounds_ > 0 ? static_cast<double>(store_now.records_appended -
                                                  baseline_store_.records_appended) /
                                  static_cast<double>(rounds_)
                            : 0.0,
                "count");
        out.set("store.server.segments", static_cast<double>(store_now.segments), "count");

        const double snapshot_self = t.time("snapshot.cold") - t.time("store.cold") +
                                     t.time("snapshot.warm") - t.time("node.inner.snapshot") +
                                     t.time("snapshot.load") + t.time("snapshot.save");
        out.set("core.snapshot.self_us", 1e6 * snapshot_self / n, "us");
        out.set("core.snapshot.hits", t.count("snapshot.hits") / n, "count");
        out.set("core.snapshot.save_ms", 1e3 * t.samples("snapshot.save").median(), "ms");

        // The memo layer above the tiers, and the connect/teardown of the
        // remote stack, complete the rounds' self times.
        const double memo = t.time("doe.cold") - t.time("snapshot.cold") + t.time("doe.warm") -
                            t.time("store.warm") + t.time("doe.snapshot") -
                            t.time("snapshot.warm");
        return remote + t.time("net.connect") + t.time("net.teardown") + store_cold + store_warm +
               t.time("node.inner") + t.time("node.inner.snapshot") + snapshot_self + memo;
    }

private:
    doe::RunnerOptions tier_options() const {
        doe::RunnerOptions o;
        o.threads = 1;
        o.cache_fingerprint = fingerprint_;
        return o;
    }

    /// The identity BatchRunner derives from tier_options().
    std::string identity() const { return fingerprint_ + "/replicates=1"; }

    store::StoreBackendOptions store_options() const {
        const net::Endpoint ep = net::parse_endpoint(store_->endpoint());
        store::StoreBackendOptions so;
        so.host = ep.host;
        so.port = ep.port;
        so.fingerprint = identity();
        return so;
    }

    std::shared_ptr<core::EvalBackend> in_process(Tracer& tracer, const char* layer) const {
        core::BackendOptions bo;
        bo.threads = 1;
        return std::make_shared<TimedBackend>(
            layer, core::make_backend(simulation_, core::BackendKind::InProcess, bo), tracer);
    }

    /// The cold stack of RunnerOptions{endpoints, store, cache_file}, with
    /// a timing decorator at each EvalBackend boundary.
    std::vector<core::ResponseMap> traced_cold(const std::vector<num::Vector>& points,
                                               const std::string& snapshot, Tracer& tracer,
                                               std::size_t& sims) {
        std::shared_ptr<net::RemoteBackend> remote;
        std::shared_ptr<store::StoreBackend> store;
        std::shared_ptr<core::PersistentCache> cache;
        std::vector<core::ResponseMap> out;
        {
            ScopedLayer scope(&tracer, "net.connect");
            net::RemoteBackendOptions ro;
            for (const std::string& e : endpoints_) ro.endpoints.push_back(net::parse_endpoint(e));
            ro.fingerprint = fingerprint_;
            remote = std::make_shared<net::RemoteBackend>(std::move(ro));
        }
        {
            ScopedLayer scope(&tracer, "store.connect.cold");
            store = std::make_shared<store::StoreBackend>(
                std::make_shared<TimedBackend>("net.remote", remote, tracer), store_options());
        }
        {
            ScopedLayer scope(&tracer, "snapshot.load");
            cache = std::make_shared<core::PersistentCache>(
                std::make_shared<TimedBackend>("store.cold", store, tracer), snapshot, identity(),
                /*autosave=*/false);
        }
        {
            doe::BatchRunner runner(std::make_shared<TimedBackend>("snapshot.cold", cache, tracer));
            ScopedLayer scope(&tracer, "doe.cold");
            out = runner.evaluate(points);
        }
        {
            ScopedLayer scope(&tracer, "snapshot.save");
            const auto t0 = Clock::now();
            cache->save();
            tracer.add_sample("snapshot.save", seconds_since(t0));
        }
        sims = remote->simulations();
        tracer.add_count("store.gets", static_cast<double>(points.size()));
        tracer.add_count("store.hits", static_cast<double>(store->store_hits()));
        tracer.add_count("store.puts", static_cast<double>(store->store_puts()));
        ScopedLayer scope(&tracer, "net.teardown");
        cache.reset();
        store.reset();
        remote.reset();
        return out;
    }

    std::vector<core::ResponseMap> traced_warm(const std::vector<num::Vector>& points,
                                               Tracer& tracer, std::size_t& sims) {
        std::shared_ptr<core::EvalBackend> inner = in_process(tracer, "node.inner");
        std::shared_ptr<store::StoreBackend> store;
        {
            ScopedLayer scope(&tracer, "store.connect.warm");
            store = std::make_shared<store::StoreBackend>(inner, store_options());
        }
        doe::BatchRunner runner(std::make_shared<TimedBackend>("store.warm", store, tracer));
        std::vector<core::ResponseMap> out;
        {
            ScopedLayer scope(&tracer, "doe.warm");
            out = runner.evaluate(points);
        }
        sims = store->simulations();
        tracer.add_count("store.gets", static_cast<double>(points.size()));
        tracer.add_count("store.hits", static_cast<double>(store->store_hits()));
        return out;
    }

    std::vector<core::ResponseMap> traced_snapshot(const std::vector<num::Vector>& points,
                                                   const std::string& snapshot, Tracer& tracer,
                                                   std::size_t& sims) {
        std::shared_ptr<core::PersistentCache> cache;
        {
            ScopedLayer scope(&tracer, "snapshot.load");
            cache = std::make_shared<core::PersistentCache>(
                in_process(tracer, "node.inner.snapshot"), snapshot, identity(),
                /*autosave=*/false);
        }
        std::vector<core::ResponseMap> out;
        {
            doe::BatchRunner runner(std::make_shared<TimedBackend>("snapshot.warm", cache, tracer));
            ScopedLayer scope(&tracer, "doe.snapshot");
            out = runner.evaluate(points);
        }
        {
            // The production runner saves its snapshot on destruction.
            ScopedLayer scope(&tracer, "snapshot.save");
            cache->save();
        }
        sims = cache->simulations();
        tracer.add_count("snapshot.hits", static_cast<double>(cache->cache_hits()));
        return out;
    }

    std::vector<net::ShardStats> shard_stats() const {
        std::vector<net::ShardStats> out;
        for (const std::string& e : endpoints_) {
            net::ShardStats s;
            std::string error;
            if (!net::query_shard_stats(net::parse_endpoint(e), s, error))
                throw std::runtime_error("shard stats " + e + ": " + error);
            out.push_back(std::move(s));
        }
        return out;
    }

    net::StoreStats store_stats() const {
        net::StoreStats s;
        std::string error;
        if (!store::query_store_stats(store_->endpoint(), s, error))
            throw std::runtime_error("store stats: " + error);
        return s;
    }

    Config config_;
    double horizon_;
    std::size_t points_;
    core::Scenario scenario_;
    doe::Simulation simulation_;
    std::string fingerprint_;
    // Declared before the daemons: destroyed after them, so the store
    // directory outlives its server.
    std::unique_ptr<ScratchDir> dir_;
    std::unique_ptr<Daemon> store_;
    std::vector<std::unique_ptr<Daemon>> eval_;
    std::vector<std::string> endpoints_;
    std::vector<net::ShardStats> baseline_shards_;
    net::StoreStats baseline_store_;
    std::size_t rounds_ = 0;
    Samples cold_points_, warm_points_, snapshot_points_;
};

}  // namespace

std::unique_ptr<Workload> make_farm_store(const Config& config) {
    return std::make_unique<FarmStore>(config);
}

}  // namespace perfbench
