#include "net/eval_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <future>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/telemetry.hpp"
#include "core/thread_pool.hpp"
#include "exec/exec_runner.hpp"

namespace ehdoe::net {

namespace {

/// The refusal a hello or stats request at any version other than
/// kProtocolVersion gets.
std::string version_mismatch(std::uint32_t client_version) {
    return "protocol version mismatch: server speaks " + std::to_string(kProtocolVersion) +
           ", client sent " + std::to_string(client_version);
}

}  // namespace

EvalServer::EvalServer(core::Simulation sim, EvalServerOptions options)
    : sim_(std::move(sim)), options_(std::move(options)) {
    if (!sim_ && !options_.recipe)
        throw std::invalid_argument("EvalServer: simulation or exec recipe required");
    if (options_.workers == 0) options_.workers = core::ThreadPool::hardware_threads();
}

EvalServer::~EvalServer() { stop(); }

void EvalServer::start() {
    if (running_.load()) throw std::logic_error("EvalServer: already started");

    // Exec mode spawns a fresh simulator process per point.
    if (options_.recipe) exec_runner_ = std::make_unique<exec::ExecRunner>(*options_.recipe);
    pool_ = std::make_unique<core::ThreadPool>(options_.workers);

    int listen_fd = -1;
    try {
        listen_fd = listen_tcp(options_.host, options_.port, port_);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string("EvalServer: ") + e.what());
    }
    started_at_ = std::chrono::steady_clock::now();
    setup_metrics();
    running_.store(true);
    server_.start(listen_fd, [this](int fd, std::atomic<bool>& handshaken) {
        serve_connection(fd, handshaken);
    });
}

void EvalServer::setup_metrics() {
    if (!(options_.metrics_interval_seconds > 0.0)) return;
    metrics_ = std::make_unique<core::metrics::Registry>();

    // Interval percentiles come from histogram *deltas*: the pre-sample
    // hook subtracts the previous snapshot once per sample; the three
    // percentile probes then read the shared interval histogram.
    auto prev = std::make_shared<core::telemetry::LatencyHistogram>();
    auto interval = std::make_shared<core::telemetry::LatencyHistogram>();
    metrics_->set_pre_sample([this, prev, interval] {
        const core::telemetry::LatencyHistogram now = latency_histogram();
        *interval = now;
        interval->subtract(*prev);
        *prev = now;
    });
    metrics_->register_series(
        "served", [this] { return static_cast<double>(served_.load()); });
    metrics_->register_series(
        "failed", [this] { return static_cast<double>(failed_.load()); });
    metrics_->register_series(
        "timed_out", [this] { return static_cast<double>(points_timed_out()); });
    metrics_->register_series(
        "in_flight", [this] { return static_cast<double>(in_flight_.load()); });
    metrics_->register_series("p50_us",
                              [interval] { return interval->percentile_us(50.0); });
    metrics_->register_series("p95_us",
                              [interval] { return interval->percentile_us(95.0); });
    metrics_->register_series("p99_us",
                              [interval] { return interval->percentile_us(99.0); });
    metrics_sampler_ = std::make_unique<core::metrics::Sampler>(
        *metrics_, options_.metrics_interval_seconds);
}

void EvalServer::sample_metrics_now() {
    if (metrics_) metrics_->sample_now(core::telemetry::now_us());
}

core::metrics::RingSnapshot EvalServer::metrics_snapshot() const {
    return metrics_ ? metrics_->snapshot() : core::metrics::RingSnapshot{};
}

std::size_t EvalServer::worker_respawns() const {
    return exec_runner_ ? exec_runner_->relaunches() : 0;
}

std::size_t EvalServer::points_timed_out() const {
    return exec_runner_ ? exec_runner_->timeouts() : 0;
}

core::telemetry::LatencyHistogram EvalServer::latency_histogram() const {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    return latency_;
}

ShardStats EvalServer::stats() const {
    ShardStats s;
    s.version = kProtocolVersion;
    s.points_served = points_served();
    s.points_failed = points_failed();
    s.handshakes_rejected = handshakes_rejected();
    s.worker_respawns = worker_respawns();
    s.points_timed_out = points_timed_out();
    s.in_flight = points_in_flight();
    s.connections_accepted = connections_accepted();
    s.uptime_seconds =
        started_at_.time_since_epoch().count() == 0
            ? 0.0
            : std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at_)
                  .count();
    const core::telemetry::LatencyHistogram hist = latency_histogram();
    s.latency_buckets = hist.sparse();
    s.latency_p50_us = hist.percentile_us(50.0);
    s.latency_p95_us = hist.percentile_us(95.0);
    s.latency_p99_us = hist.percentile_us(99.0);
    s.metrics = metrics_snapshot();
    return s;
}

void EvalServer::stop() {
    if (!running_.exchange(false)) return;
    // Every connection thread returns once the points of its frame that had
    // started are evaluated (the rest see running_ false and skip), so the
    // pool is idle after this.
    server_.stop();
    // Stop sampling before the counters' owners tear down; the registry
    // (and its last ring) stays readable after stop().
    metrics_sampler_.reset();
    pool_.reset();
    exec_runner_.reset();  // removes the (now empty) scratch root
}

void EvalServer::evaluate_task(const Vector* points, std::size_t count, EvalResult* results) {
    // Occupancy for the stats frame: the points of the tasks running now.
    struct InFlight {
        std::atomic<std::size_t>& n;
        std::size_t k;
        InFlight(std::atomic<std::size_t>& counter, std::size_t points) : n(counter), k(points) {
            n.fetch_add(k);
        }
        ~InFlight() { n.fetch_sub(k); }
    } occupancy(in_flight_, count);

    // One eval span and one latency sample per point, each the task's wall
    // time: the task's points run interleaved, so none has a wall of its
    // own. The histogram is always on (monitoring state, like the
    // counters); the spans record only when tracing is enabled.
    std::vector<std::optional<core::telemetry::Span>> spans(count);
    for (auto& span : spans) span.emplace("eval", "server");
    const std::uint64_t eval_start = core::telemetry::now_us();
    struct LatencyProbe {
        EvalServer& server;
        std::uint64_t start;
        std::size_t points;
        ~LatencyProbe() {
            const std::uint64_t end = core::telemetry::now_us();
            std::lock_guard<std::mutex> lock(server.latency_mutex_);
            for (std::size_t k = 0; k < points; ++k)
                server.latency_.record_us(end > start ? end - start : 0);
        }
    } probe{*this, eval_start, count};

    if (exec_runner_) {  // one point per task
        exec::ExecOutcome outcome =
            exec_runner_->run_point(points[0], exec_seq_.fetch_add(1));
        results[0].ok = outcome.ok;
        results[0].responses = std::move(outcome.responses);
        results[0].error = std::move(outcome.error);
        return;
    }
    std::vector<core::PointOutcome> outcomes(count);
    core::simulate_batch(sim_, points, count, outcomes.data());
    for (std::size_t k = 0; k < count; ++k) {
        EvalResult& result = results[k];
        result.ok = !outcomes[k].error;
        if (result.ok) {
            result.responses = std::move(outcomes[k].responses);
            continue;
        }
        try {
            std::rethrow_exception(outcomes[k].error);
        } catch (const std::exception& e) {
            result.error = e.what();
        } catch (...) {
            result.error = "unknown exception in server simulation";
        }
    }
}

void EvalServer::serve_connection(int fd, std::atomic<bool>& handshaken) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    core::telemetry::instant("accept", "server");
    Reader in(fd);

    // A peer that vanishes before a full magic is NOT counted as a
    // rejection: load-balancer/liveness TCP probes connect and close all
    // day, and the rejects counter must keep meaning "a peer spoke and was
    // refused" for farm monitoring to stay readable.
    ConnectionKind kind = ConnectionKind::Unknown;
    if (!read_connection_magic(in, kind)) return;
    if (kind == ConnectionKind::Stats) {
        std::uint32_t version = 0;
        if (!read_version(in, version)) {
            rejected_.fetch_add(1);
        } else if (version != kProtocolVersion) {
            rejected_.fetch_add(1);
            write_stats_reply(fd, kStatusError, ShardStats{}, version_mismatch(version));
        } else {
            stats_served_.fetch_add(1);
            write_stats_reply(fd, kStatusOk, stats(), "");
        }
        return;
    }
    Hello hello;
    if (kind != ConnectionKind::Eval || !read_hello_body(in, hello)) {
        rejected_.fetch_add(1);  // an alien magic, or a hello cut short
        return;
    }

    // Handshake: reject mismatched peers with a message, then close. The
    // rejection is counted *before* the welcome frame goes out, so a
    // client that has observed the refusal also observes the counter.
    std::string refusal;
    if (hello.version != kProtocolVersion) {
        refusal = version_mismatch(hello.version);
    } else if (hello.fingerprint != options_.fingerprint) {
        refusal = "scenario fingerprint mismatch: server evaluates '" +
                  options_.fingerprint + "', client wants '" + hello.fingerprint + "'";
    }
    if (!refusal.empty()) {
        rejected_.fetch_add(1);
        write_welcome(fd, kStatusError, refusal);
        return;
    }
    // The welcome carries a sample of this process's telemetry clock,
    // taken here at encode time — the anchor ehdoe-trace uses to shift
    // this server's trace onto the client's timeline.
    if (!write_welcome(fd, kStatusOk, "", core::telemetry::now_us())) return;
    core::telemetry::instant("handshake", "server");
    handshaken.store(true);  // lifts the pre-handshake deadline

    std::vector<Vector> points;
    std::vector<EvalResult> results;
    std::vector<unsigned char> scratch;
    while (read_batch_request(in, points)) {
        evaluate_frame(points, results);
        // Once stop() has begun, points may have been skipped: the frame
        // gets no answer, so the client fails it instead of reading holes.
        if (!running_.load() || !write_batch_result(fd, results, scratch)) return;
    }
}

void EvalServer::evaluate_frame(const std::vector<Vector>& points,
                                std::vector<EvalResult>& results) {
    // One pool task per `width` consecutive points: core::lane_batch() of
    // the model's width in process (1 in exec mode), so a frame runs as at
    // least min(its points, workers) tasks. Tasks share the one pool, so
    // `workers` bounds the evaluations of every connection together.
    const std::size_t width =
        exec_runner_ ? 1 : core::lane_batch(sim_.width(), points.size(), options_.workers);
    results.assign(points.size(), EvalResult{});
    std::vector<std::future<void>> tasks;
    tasks.reserve((points.size() + width - 1) / width);
    for (std::size_t begin = 0; begin < points.size(); begin += width) {
        const std::size_t count = std::min(width, points.size() - begin);
        tasks.push_back(pool_->submit([this, &points, &results, begin, count] {
            if (!running_.load()) return;  // stop() has begun
            evaluate_task(&points[begin], count, &results[begin]);
            for (std::size_t k = begin; k < begin + count; ++k)
                (results[k].ok ? served_ : failed_).fetch_add(1);
        }));
    }
    // Every task references `points` and `results`, so all of them finish
    // before get() may rethrow. The last task tends to finish last: waiting
    // on it first parks this thread about once per frame.
    for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) it->wait();
    for (std::future<void>& task : tasks) task.get();
}

}  // namespace ehdoe::net
