#include "net/eval_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "core/telemetry.hpp"
#include "core/thread_pool.hpp"
#include "exec/exec_runner.hpp"

namespace ehdoe::net {

namespace {

/// A peer that connects and then stalls (a crashed monitor, a half-open
/// connection after a partition) is closed after this bound; an accepted
/// eval connection is exempt, since between batches it legitimately idles.
constexpr std::chrono::seconds kHandshakeDeadline{10};

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The refusal a hello or stats request at any version other than
/// kProtocolVersion gets.
std::string version_mismatch(std::uint32_t client_version) {
    return "protocol version mismatch: server speaks " + std::to_string(kProtocolVersion) +
           ", client sent " + std::to_string(client_version);
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-connection state. Owned and touched by the event thread only; worker
// tasks see nothing but the shared_ptr'd PendingFrame they fill in.
// ---------------------------------------------------------------------------

/// One request frame awaiting its response: result slots (one per point, in
/// request order) plus the countdown of points still evaluating. Shared
/// between the event thread (FIFO) and the pool tasks (slots), so a closed
/// connection can drop its FIFO while straggler tasks complete harmlessly
/// into the orphaned storage.
struct EvalServer::PendingFrame {
    std::vector<EvalResult> results;
    std::atomic<std::size_t> remaining{0};
    std::uint64_t conn_id = 0;
};

struct EvalServer::ConnState {
    /// Magic -> {HelloBody | StatsBody} -> {Eval | Drain}: the incremental
    /// parser's position in the connection's life. Drain = a terminal reply
    /// (stats answer, handshake refusal) is queued; only flushing remains.
    enum class Phase { Magic, HelloBody, StatsBody, Eval, Drain };

    int fd = -1;
    std::uint64_t id = 0;
    Phase phase = Phase::Magic;
    std::chrono::steady_clock::time_point opened_at{};
    /// Gathered input not yet consumed by the parser. `in_pos` marks the
    /// parsed prefix; the buffer is compacted after each parse pass.
    std::vector<unsigned char> in;
    std::size_t in_pos = 0;
    /// Encoded response bytes awaiting a writable socket.
    std::vector<unsigned char> out;
    std::size_t out_pos = 0;
    std::uint32_t armed = 0;       ///< epoll event mask currently registered
    bool input_closed = false;     ///< peer EOF'd; answer what's owed, then close
    bool close_after_flush = false;
    /// Response FIFO: frames answer in request order no matter how the pool
    /// schedules their points.
    std::deque<std::shared_ptr<PendingFrame>> fifo;
};

// ---------------------------------------------------------------------------
// EvalServer
// ---------------------------------------------------------------------------

EvalServer::EvalServer(core::Simulation sim, EvalServerOptions options)
    : sim_(std::move(sim)), options_(std::move(options)) {
    if (!sim_ && !options_.recipe)
        throw std::invalid_argument("EvalServer: simulation or exec recipe required");
    if (options_.replicates == 0) throw std::invalid_argument("EvalServer: replicates >= 1");
    if (options_.workers == 0) options_.workers = core::ThreadPool::hardware_threads();
}

EvalServer::~EvalServer() { stop(); }

void EvalServer::start() {
    if (running_.load()) throw std::logic_error("EvalServer: already started");
    stopping_.store(false);

    // Exec mode spawns a fresh simulator process per point.
    if (options_.recipe) {
        exec_runner_ = std::make_unique<exec::ExecRunner>(*options_.recipe,
                                                          options_.replicates);
    }
    pool_ = std::make_unique<core::ThreadPool>(options_.workers);

    try {
        listen_fd_ = listen_tcp(options_.host, options_.port, port_);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string("EvalServer: ") + e.what());
    }
    set_nonblocking(listen_fd_);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        if (epoll_fd_ >= 0) ::close(epoll_fd_);
        if (wake_fd_ >= 0) ::close(wake_fd_);
        epoll_fd_ = wake_fd_ = -1;
        throw std::runtime_error("EvalServer: epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = 0;  // listener
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
    ev.data.u64 = 1;  // wake eventfd
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

    started_at_ = std::chrono::steady_clock::now();
    setup_metrics();
    running_.store(true);
    event_thread_ = std::thread([this] { event_loop(); });
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
    stopping_.store(true);

    // Wake the event loop; it closes every connection and returns.
    if (wake_fd_ >= 0) {
        std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
    }
    if (event_thread_.joinable()) event_thread_.join();

    // Stop sampling before the counters' owners tear down; the registry
    // (and its last ring) stays readable after stop().
    metrics_sampler_.reset();

    // Drain in-flight evaluations *before* the wake fd closes: straggler
    // tasks still signal completions into it (into the void, harmlessly).
    pool_.reset();

    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (wake_fd_ >= 0) {
        ::close(wake_fd_);
        wake_fd_ = -1;
    }
    if (epoll_fd_ >= 0) {
        ::close(epoll_fd_);
        epoll_fd_ = -1;
    }
    exec_runner_.reset();  // removes the (now empty) scratch root
}

EvalResult EvalServer::evaluate_one(const Vector& point) {
    // Occupancy for the stats frame: points inside this call right now.
    struct InFlight {
        std::atomic<std::size_t>& n;
        explicit InFlight(std::atomic<std::size_t>& counter) : n(counter) { n.fetch_add(1); }
        ~InFlight() { n.fetch_sub(1); }
    } occupancy(in_flight_);

    // Wall time per point feeds the lifetime latency histogram the stats
    // reply serves (always on — monitoring state, like the
    // counters); the span only records when tracing is enabled.
    core::telemetry::Span span("eval", "server");
    const std::uint64_t eval_start = core::telemetry::now_us();
    struct LatencyProbe {
        EvalServer& server;
        std::uint64_t start;
        ~LatencyProbe() {
            const std::uint64_t end = core::telemetry::now_us();
            std::lock_guard<std::mutex> lock(server.latency_mutex_);
            server.latency_.record_us(end > start ? end - start : 0);
        }
    } probe{*this, eval_start};

    if (exec_runner_) {
        exec::ExecOutcome outcome =
            exec_runner_->run_point(point, exec_seq_.fetch_add(1));
        EvalResult result;
        result.ok = outcome.ok;
        result.responses = std::move(outcome.responses);
        result.error = std::move(outcome.error);
        return result;
    }
    EvalResult result;
    try {
        result.responses = core::simulate_replicated(sim_, point, options_.replicates);
        result.ok = true;
    } catch (const std::exception& e) {
        result.error = e.what();
    } catch (...) {
        result.error = "unknown exception in server simulation";
    }
    return result;
}

void EvalServer::notify_frame_done(std::uint64_t conn_id) {
    {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_conns_.push_back(conn_id);
    }
    std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void EvalServer::dispatch_frame(ConnState& conn, std::vector<Vector> points) {
    auto frame = std::make_shared<PendingFrame>();
    frame->results.resize(points.size());
    frame->remaining.store(points.size(), std::memory_order_relaxed);
    frame->conn_id = conn.id;
    conn.fifo.push_back(frame);
    for (std::size_t j = 0; j < points.size(); ++j) {
        pool_->submit([this, frame, j, point = std::move(points[j])] {
            EvalResult r = evaluate_one(point);
            if (r.ok) {
                served_.fetch_add(1);
            } else {
                failed_.fetch_add(1);
            }
            frame->results[j] = std::move(r);
            // acq_rel: the last task's decrement publishes every slot to the
            // event thread that observes remaining == 0.
            if (frame->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
                notify_frame_done(frame->conn_id);
        });
    }
}

bool EvalServer::process_hello(ConnState& conn, const Hello& hello) {
    // Handshake: reject mismatched peers with a message, then close. The
    // rejection is counted *before* the welcome frame goes out, so a
    // client that has observed the refusal also observes the counter.
    std::string refusal;
    if (hello.version != kProtocolVersion) {
        refusal = version_mismatch(hello.version);
    } else if (hello.fingerprint != options_.fingerprint) {
        refusal = "scenario fingerprint mismatch: server evaluates '" +
                  options_.fingerprint + "', client wants '" + hello.fingerprint + "'";
    } else if (hello.replicates != options_.replicates) {
        refusal = "replicates mismatch: server averages " +
                  std::to_string(options_.replicates) + ", client wants " +
                  std::to_string(hello.replicates);
    }
    if (!refusal.empty()) {
        rejected_.fetch_add(1);
        encode_welcome(conn.out, kStatusError, refusal);
        conn.phase = ConnState::Phase::Drain;
        conn.close_after_flush = true;
        return true;
    }
    // The welcome carries a sample of this process's telemetry clock,
    // taken here at encode time — the anchor ehdoe-trace uses to shift
    // this server's trace onto the client's timeline.
    encode_welcome(conn.out, kStatusOk, "", core::telemetry::now_us());
    core::telemetry::instant("handshake", "server");
    conn.phase = ConnState::Phase::Eval;  // lifts the pre-handshake deadline
    return true;
}

void EvalServer::process_stats_request(ConnState& conn, std::uint32_t version) {
    if (version != kProtocolVersion) {
        rejected_.fetch_add(1);
        encode_stats_reply(conn.out, kStatusError, ShardStats{}, version_mismatch(version));
    } else {
        stats_served_.fetch_add(1);
        encode_stats_reply(conn.out, kStatusOk, stats(), "");
    }
    conn.phase = ConnState::Phase::Drain;
    conn.close_after_flush = true;
}

bool EvalServer::parse_input(ConnState& conn) {
    auto available = [&] { return conn.in.size() - conn.in_pos; };
    auto peek_u64 = [&](std::size_t offset) {
        std::uint64_t v = 0;
        std::memcpy(&v, conn.in.data() + conn.in_pos + offset, sizeof v);
        return v;
    };
    auto peek_u32 = [&](std::size_t offset) {
        std::uint32_t v = 0;
        std::memcpy(&v, conn.in.data() + conn.in_pos + offset, sizeof v);
        return v;
    };

    bool ok = true;
    for (bool progress = true; ok && progress;) {
        progress = false;
        switch (conn.phase) {
            case ConnState::Phase::Magic: {
                if (available() < sizeof kHandshakeMagic) break;
                ConnectionKind kind = ConnectionKind::Unknown;
                if (std::memcmp(conn.in.data() + conn.in_pos, kHandshakeMagic,
                                sizeof kHandshakeMagic) == 0) {
                    kind = ConnectionKind::Eval;
                } else if (std::memcmp(conn.in.data() + conn.in_pos, kStatsMagic,
                                       sizeof kStatsMagic) == 0) {
                    kind = ConnectionKind::Stats;
                }
                conn.in_pos += sizeof kHandshakeMagic;
                if (kind == ConnectionKind::Unknown) {
                    rejected_.fetch_add(1);  // alien magic: close without a reply
                    ok = false;
                    break;
                }
                conn.phase = kind == ConnectionKind::Eval ? ConnState::Phase::HelloBody
                                                          : ConnState::Phase::StatsBody;
                progress = true;
                break;
            }
            case ConnState::Phase::HelloBody: {
                // u32 version, u64 fp_len, fp bytes, u64 replicates.
                if (available() < 4 + 8) break;
                const std::uint64_t fp_len = peek_u64(4);
                if (fp_len > kSaneLimit) {
                    rejected_.fetch_add(1);
                    ok = false;
                    break;
                }
                if (available() < 4 + 8 + fp_len + 8) break;
                Hello hello;
                hello.version = peek_u32(0);
                hello.fingerprint.assign(
                    reinterpret_cast<const char*>(conn.in.data() + conn.in_pos + 12),
                    static_cast<std::size_t>(fp_len));
                hello.replicates = peek_u64(12 + static_cast<std::size_t>(fp_len));
                conn.in_pos += 4 + 8 + static_cast<std::size_t>(fp_len) + 8;
                ok = process_hello(conn, hello);
                progress = true;
                break;
            }
            case ConnState::Phase::StatsBody: {
                if (available() < 4) break;
                const std::uint32_t version = peek_u32(0);
                conn.in_pos += 4;
                process_stats_request(conn, version);
                progress = true;
                break;
            }
            case ConnState::Phase::Eval: {
                // batch request := u64 count, u64 dim, count*dim x f64. Each
                // length validates the moment its bytes arrive, so a
                // hostile header dies before the peer sends (or we buffer)
                // another byte.
                if (available() < 8) break;
                const std::uint64_t count = peek_u64(0);
                if (count == 0 || count > kSaneLimit) {
                    ok = false;  // corrupt or hostile framing
                    break;
                }
                if (available() < 16) break;
                const std::uint64_t dim = peek_u64(8);
                if (dim > kSaneLimit || count * dim > kSaneLimit) {
                    ok = false;
                    break;
                }
                const std::size_t body = static_cast<std::size_t>(count * dim) * 8;
                if (available() < 16 + body) break;
                std::vector<Vector> pts(static_cast<std::size_t>(count),
                                        Vector(static_cast<std::size_t>(dim)));
                const unsigned char* src = conn.in.data() + conn.in_pos + 16;
                for (Vector& p : pts) {
                    std::memcpy(p.data(), src, sizeof(double) * p.size());
                    src += sizeof(double) * p.size();
                }
                conn.in_pos += 16 + body;
                dispatch_frame(conn, std::move(pts));
                progress = true;
                break;
            }
            case ConnState::Phase::Drain:
                // Terminal reply queued: any further input is ignored.
                conn.in_pos = conn.in.size();
                break;
        }
    }
    // Compact the parsed prefix so the buffer never grows across frames.
    if (conn.in_pos > 0) {
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_pos));
        conn.in_pos = 0;
    }
    return ok;
}

bool EvalServer::handle_readable(ConnState& conn) {
    for (;;) {
        const std::size_t old = conn.in.size();
        conn.in.resize(old + 64 * 1024);
        const ssize_t n = ::recv(conn.fd, conn.in.data() + old, conn.in.size() - old, 0);
        if (n > 0) {
            conn.in.resize(old + static_cast<std::size_t>(n));
            continue;
        }
        conn.in.resize(old);
        if (n == 0) {
            conn.input_closed = true;  // half-close: answer what's owed first
            break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;  // hard transport error
    }
    if (!parse_input(conn)) return false;
    flush_ready_frames(conn);
    if (!try_flush(conn)) return false;
    // A peer that vanished before completing its magic is NOT counted as a
    // rejection: load-balancer/liveness TCP probes connect and close all
    // day, and the rejects counter must keep meaning "a peer spoke and was
    // refused" for farm monitoring to stay readable.
    if (conn.input_closed && conn.fifo.empty() && conn.out_pos == conn.out.size())
        return false;
    return true;
}

void EvalServer::flush_ready_frames(ConnState& conn) {
    while (!conn.fifo.empty() &&
           conn.fifo.front()->remaining.load(std::memory_order_acquire) == 0) {
        const std::shared_ptr<PendingFrame> frame = conn.fifo.front();
        conn.fifo.pop_front();
        encode_batch_result(conn.out, frame->results);
    }
}

bool EvalServer::try_flush(ConnState& conn) {
    while (conn.out_pos < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_pos += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;  // peer gone mid-write
    }
    if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
        if (conn.close_after_flush && conn.fifo.empty()) return false;
    }
    update_interest(conn);
    return true;
}

void EvalServer::update_interest(ConnState& conn) {
    // A half-closed input must disarm EPOLLIN (level-triggered EOF would
    // spin the loop while the fifo drains); pending output arms EPOLLOUT.
    const std::uint32_t want = (conn.input_closed ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                               (conn.out_pos < conn.out.size()
                                    ? static_cast<std::uint32_t>(EPOLLOUT)
                                    : 0u);
    if (want == conn.armed) return;
    conn.armed = want;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EvalServer::close_conn(std::uint64_t id) {
    const auto it = conn_states_.find(id);
    if (it == conn_states_.end()) return;
    const int fd = it->second->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    // Frames the pool is still filling stay alive through their shared_ptr
    // and complete into discarded storage.
    conn_states_.erase(it);
}

void EvalServer::handle_accept() {
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            // Transient failures must not kill a long-lived daemon: a peer
            // that RSTs before we accept (ECONNABORTED), a signal, or a
            // momentary fd shortage (back off and let connections close).
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR || errno == ECONNABORTED) continue;
            return;  // EMFILE/ENFILE etc: retry on the next loop wake
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        connections_.fetch_add(1);
        core::telemetry::instant("accept", "server");

        auto conn = std::make_unique<ConnState>();
        conn->fd = fd;
        conn->id = next_conn_id_++;
        conn->opened_at = std::chrono::steady_clock::now();
        conn->armed = EPOLLIN;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
        conn_states_.emplace(conn->id, std::move(conn));
    }
}

void EvalServer::event_loop() {
    std::vector<epoll_event> events(64);
    for (;;) {
        // Bounded wait only while pre-handshake deadlines are pending; an
        // idle server with accepted eval connections sleeps until woken.
        int timeout_ms = -1;
        for (const auto& [id, conn] : conn_states_) {
            if (conn->phase != ConnState::Phase::Eval) {
                timeout_ms = 250;
                break;
            }
        }
        const int n = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()), timeout_ms);
        if (n < 0 && errno != EINTR) break;
        if (stopping_.load()) break;

        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[i].data.u64;
            if (id == 0) {
                handle_accept();
                continue;
            }
            if (id == 1) {
                std::uint64_t drained = 0;
                [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &drained, sizeof drained);
                if (stopping_.load()) break;
                std::vector<std::uint64_t> ready;
                {
                    std::lock_guard<std::mutex> lock(done_mutex_);
                    ready.swap(done_conns_);
                }
                for (const std::uint64_t conn_id : ready) {
                    const auto it = conn_states_.find(conn_id);
                    if (it == conn_states_.end()) continue;  // conn died first
                    ConnState& conn = *it->second;
                    flush_ready_frames(conn);
                    if (!try_flush(conn) ||
                        (conn.input_closed && conn.fifo.empty() &&
                         conn.out_pos == conn.out.size())) {
                        close_conn(conn_id);
                    }
                }
                continue;
            }
            const auto it = conn_states_.find(id);
            if (it == conn_states_.end()) continue;
            ConnState& conn = *it->second;
            bool alive = true;
            if (events[i].events & (EPOLLERR | EPOLLHUP)) {
                // Peer reset. Frames already owed could never be delivered.
                alive = false;
            }
            if (alive && (events[i].events & EPOLLOUT)) alive = try_flush(conn);
            if (alive && (events[i].events & EPOLLIN)) alive = handle_readable(conn);
            if (!alive) close_conn(id);
        }
        if (stopping_.load()) break;

        // Expire stalled pre-handshake connections. Post-magic stalls count
        // as rejections (the peer spoke and was refused); a silent
        // connect-and-idle does not.
        if (timeout_ms >= 0) {
            const auto now = std::chrono::steady_clock::now();
            std::vector<std::uint64_t> expired;
            for (const auto& [id, conn] : conn_states_) {
                if (conn->phase == ConnState::Phase::Eval) continue;
                if (now - conn->opened_at < kHandshakeDeadline) continue;
                if (conn->phase == ConnState::Phase::HelloBody ||
                    conn->phase == ConnState::Phase::StatsBody)
                    rejected_.fetch_add(1);
                expired.push_back(id);
            }
            for (const std::uint64_t id : expired) close_conn(id);
        }
    }

    // Shutdown: drop every connection so blocked peers see EOF.
    std::vector<std::uint64_t> ids;
    ids.reserve(conn_states_.size());
    for (const auto& [id, conn] : conn_states_) ids.push_back(id);
    for (const std::uint64_t id : ids) close_conn(id);
}

}  // namespace ehdoe::net
