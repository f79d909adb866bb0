// ehdoe-metrics-export — Prometheus text exposition for the farm.
//
// Polls eval-server and store-server endpoints with their native stats
// frames (net/wire.hpp) and renders everything as Prometheus text
// exposition format 0.0.4, so the daemons themselves stay HTTP-free: this
// one process is the scrape target (or the node-exporter textfile writer)
// for a whole farm.
//
//   ehdoe-metrics-export --eval :4217 --eval :4218 --store :4230 --port 9109
//   ehdoe-metrics-export --eval :4217 --textfile /var/lib/node_exporter/ehdoe.prom
//   ehdoe-metrics-export --eval :4217            # one exposition to stdout
//
// Flags:
//   --eval HOST:PORT    an eval-server to poll (repeatable)
//   --store HOST:PORT   a store-server to poll (repeatable)
//   --port P            serve mode: answer every HTTP request on this port
//                       with a fresh poll (0 picks an ephemeral port);
//                       prints one "serving on HOST:PORT" line at startup
//   --host ADDR         serve-mode bind interface (default 127.0.0.1)
//   --textfile FILE     write mode: one poll, written atomically
//                       (tmp + rename) for the node-exporter textfile
//                       collector, then exit
//
// Without --port/--textfile one exposition goes to stdout. Every family
// carries an `endpoint` label; `ehdoe_up` says which endpoints answered.
// Daemons sampling a metrics ring add windowed gauges (ehdoe_eval_window_*)
// computed from ring deltas. Diagnostics go to stderr.
//
// Exit status (stdout/textfile modes): 0 when every endpoint answered,
// 1 when any was down, 2 on usage errors.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "net/remote_backend.hpp"
#include "store/store_client.hpp"
#include "flag_parse.hpp"

using namespace ehdoe;
namespace metrics = ehdoe::core::metrics;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--eval host:port ...] [--store host:port ...]\n"
                 "       [--port p [--host addr] | --textfile file]\n";
    return 2;
}

struct EvalPoll {
    std::string label;
    net::Endpoint endpoint;
    bool up = false;
    net::ShardStats stats;
    std::string error;
};

struct StorePoll {
    std::string label;
    bool up = false;
    net::StoreStats stats;
    std::string error;
};

/// Poll every endpoint concurrently (a down endpoint costs one timeout for
/// the whole poll, not one each).
void poll_all(std::vector<EvalPoll>& evals, std::vector<StorePoll>& stores) {
    std::vector<std::thread> pollers;
    pollers.reserve(evals.size() + stores.size());
    for (EvalPoll& e : evals) {
        pollers.emplace_back([&e] {
            e.up = net::query_shard_stats(e.endpoint, e.stats, e.error);
        });
    }
    for (StorePoll& s : stores) {
        pollers.emplace_back(
            [&s] { s.up = store::query_store_stats(s.label, s.stats, s.error); });
    }
    for (std::thread& p : pollers) p.join();
    for (const EvalPoll& e : evals) {
        if (!e.up)
            std::cerr << "[ehdoe-metrics-export] eval " << e.label << " down: " << e.error
                      << "\n";
    }
    for (const StorePoll& s : stores) {
        if (!s.up)
            std::cerr << "[ehdoe-metrics-export] store " << s.label << " down: " << s.error
                      << "\n";
    }
}

std::vector<std::pair<std::string, std::string>> endpoint_labels(const std::string& label) {
    return {{"endpoint", label}};
}

/// Render one exposition over the polled endpoints. Families are grouped
/// (one HELP/TYPE header, then every endpoint's sample) as the format
/// requires.
std::string render(const std::vector<EvalPoll>& evals, const std::vector<StorePoll>& stores) {
    std::string out;

    metrics::append_exposition_header(out, "ehdoe_up",
                                      "Whether the endpoint answered the stats poll.",
                                      "gauge");
    for (const EvalPoll& e : evals) {
        metrics::append_sample(out, "ehdoe_up",
                               {{"role", "eval"}, {"endpoint", e.label}}, e.up ? 1.0 : 0.0);
    }
    for (const StorePoll& s : stores) {
        metrics::append_sample(out, "ehdoe_up",
                               {{"role", "store"}, {"endpoint", s.label}}, s.up ? 1.0 : 0.0);
    }

    struct EvalFamily {
        const char* name;
        const char* help;
        const char* type;
        double (*get)(const net::ShardStats&);
    };
    static const EvalFamily kEvalFamilies[] = {
        {"ehdoe_eval_points_served_total", "Points answered with a result frame.", "counter",
         [](const net::ShardStats& s) { return static_cast<double>(s.points_served); }},
        {"ehdoe_eval_points_failed_total", "Points answered with an error frame.", "counter",
         [](const net::ShardStats& s) { return static_cast<double>(s.points_failed); }},
        {"ehdoe_eval_points_timed_out_total", "Points whose simulator hit the exec timeout.",
         "counter",
         [](const net::ShardStats& s) { return static_cast<double>(s.points_timed_out); }},
        {"ehdoe_eval_worker_respawns_total",
         "Crashed workers replaced / exec simulators relaunched.", "counter",
         [](const net::ShardStats& s) { return static_cast<double>(s.worker_respawns); }},
        {"ehdoe_eval_handshakes_rejected_total", "Handshakes refused at the door.", "counter",
         [](const net::ShardStats& s) { return static_cast<double>(s.handshakes_rejected); }},
        {"ehdoe_eval_connections_total", "Connections accepted.", "counter",
         [](const net::ShardStats& s) { return static_cast<double>(s.connections_accepted); }},
        {"ehdoe_eval_in_flight", "Points being evaluated right now.", "gauge",
         [](const net::ShardStats& s) { return static_cast<double>(s.in_flight); }},
        {"ehdoe_eval_uptime_seconds", "Server uptime.", "gauge",
         [](const net::ShardStats& s) { return s.uptime_seconds; }},
    };
    for (const EvalFamily& f : kEvalFamilies) {
        metrics::append_exposition_header(out, f.name, f.help, f.type);
        for (const EvalPoll& e : evals) {
            if (e.up) metrics::append_sample(out, f.name, endpoint_labels(e.label), f.get(e.stats));
        }
    }

    // Lifetime latency percentiles (shards that served something).
    struct LatencyFamily {
        const char* name;
        const char* help;
        double net::ShardStats::*member;
    };
    static const LatencyFamily kLatencyFamilies[] = {
        {"ehdoe_eval_latency_p50_us", "Lifetime per-point latency p50 (us).",
         &net::ShardStats::latency_p50_us},
        {"ehdoe_eval_latency_p95_us", "Lifetime per-point latency p95 (us).",
         &net::ShardStats::latency_p95_us},
        {"ehdoe_eval_latency_p99_us", "Lifetime per-point latency p99 (us).",
         &net::ShardStats::latency_p99_us},
    };
    for (const LatencyFamily& f : kLatencyFamilies) {
        metrics::append_exposition_header(out, f.name, f.help, "gauge");
        for (const EvalPoll& e : evals) {
            if (e.up && !e.stats.latency_buckets.empty())
                metrics::append_sample(out, f.name, endpoint_labels(e.label), e.stats.*f.member);
        }
    }

    // Windowed gauges from the metrics ring: the shard's typical recent
    // p99 and its last-interval throughput — trend, not lifetime.
    metrics::append_exposition_header(out, "ehdoe_eval_window_p99_us",
                                      "Windowed per-point latency p99 (us; median of the "
                                      "ring's positive samples).",
                                      "gauge");
    for (const EvalPoll& e : evals) {
        if (!e.up || e.stats.metrics.empty()) continue;
        const int col = metrics::find_series(e.stats.metrics, "p99_us");
        if (col < 0) continue;
        const double v = metrics::window_value(e.stats.metrics, static_cast<std::size_t>(col));
        if (v > 0.0) metrics::append_sample(out, "ehdoe_eval_window_p99_us",
                                            endpoint_labels(e.label), v);
    }
    metrics::append_exposition_header(out, "ehdoe_eval_points_per_second",
                                      "Serve rate over the last sampled interval.", "gauge");
    for (const EvalPoll& e : evals) {
        if (!e.up || e.stats.metrics.rows.size() < 2 || e.stats.metrics.interval_us == 0)
            continue;
        const int col = metrics::find_series(e.stats.metrics, "served");
        if (col < 0) continue;
        const double delta =
            metrics::last_delta(e.stats.metrics, static_cast<std::size_t>(col));
        metrics::append_sample(
            out, "ehdoe_eval_points_per_second", endpoint_labels(e.label),
            delta / (static_cast<double>(e.stats.metrics.interval_us) / 1e6));
    }

    struct StoreFamily {
        const char* name;
        const char* help;
        const char* type;
        double (*get)(const net::StoreStats&);
    };
    static const StoreFamily kStoreFamilies[] = {
        {"ehdoe_store_keys", "Distinct keys in the live table.", "gauge",
         [](const net::StoreStats& s) { return static_cast<double>(s.keys); }},
        {"ehdoe_store_segments", "Live segment files.", "gauge",
         [](const net::StoreStats& s) { return static_cast<double>(s.segments); }},
        {"ehdoe_store_quarantined_segments", "Segments set aside as corrupt.", "gauge",
         [](const net::StoreStats& s) { return static_cast<double>(s.quarantined_segments); }},
        {"ehdoe_store_gets_served_total", "Keys looked up.", "counter",
         [](const net::StoreStats& s) { return static_cast<double>(s.gets_served); }},
        {"ehdoe_store_get_hits_total", "Lookups that found a record.", "counter",
         [](const net::StoreStats& s) { return static_cast<double>(s.get_hits); }},
        {"ehdoe_store_puts_received_total", "Records offered by clients.", "counter",
         [](const net::StoreStats& s) { return static_cast<double>(s.puts_received); }},
        {"ehdoe_store_records_appended_total", "Records newly appended.", "counter",
         [](const net::StoreStats& s) { return static_cast<double>(s.records_appended); }},
        {"ehdoe_store_hit_rate", "get_hits / gets_served (0 before any get).", "gauge",
         [](const net::StoreStats& s) {
             return s.gets_served > 0
                        ? static_cast<double>(s.get_hits) / static_cast<double>(s.gets_served)
                        : 0.0;
         }},
        {"ehdoe_store_uptime_seconds", "Server uptime.", "gauge",
         [](const net::StoreStats& s) { return s.uptime_seconds; }},
    };
    for (const StoreFamily& f : kStoreFamilies) {
        metrics::append_exposition_header(out, f.name, f.help, f.type);
        for (const StorePoll& s : stores) {
            if (s.up) metrics::append_sample(out, f.name, endpoint_labels(s.label), f.get(s.stats));
        }
    }
    return out;
}

bool all_up(const std::vector<EvalPoll>& evals, const std::vector<StorePoll>& stores) {
    for (const EvalPoll& e : evals) {
        if (!e.up) return false;
    }
    for (const StorePoll& s : stores) {
        if (!s.up) return false;
    }
    return true;
}

/// Atomic textfile write: the node-exporter collector must never read a
/// half-written exposition, so write beside the target and rename over it.
bool write_textfile(const std::string& path, const std::string& body) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << body;
        out.flush();
        if (!out) return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Minimal serve mode: any HTTP request on the port gets one fresh poll as
/// a text/plain exposition. Enough for a Prometheus scrape_config; not a
/// general web server.
int serve(const std::string& host, std::uint16_t port, std::vector<EvalPoll>& evals,
          std::vector<StorePoll>& stores) {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        std::cerr << "ehdoe-metrics-export: socket failed\n";
        return 1;
    }
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd, 16) != 0) {
        std::cerr << "ehdoe-metrics-export: cannot listen on " << host << ":" << port << "\n";
        ::close(listen_fd);
        return 1;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    std::uint16_t bound_port = port;
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
        bound_port = ntohs(bound.sin_port);
    std::cout << "serving on " << host << ":" << bound_port << std::endl;

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop) {
        pollfd pfd{listen_fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200);
        if (ready <= 0) continue;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) continue;
        // Drain the request line + headers (best effort; we answer any
        // request the same way).
        char buf[1024];
        ::recv(fd, buf, sizeof buf, 0);

        poll_all(evals, stores);
        const std::string body = render(evals, stores);
        std::string reply =
            "HTTP/1.0 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            "Content-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
        std::size_t sent = 0;
        while (sent < reply.size()) {
            const ssize_t n = ::send(fd, reply.data() + sent, reply.size() - sent, 0);
            if (n <= 0) break;
            sent += static_cast<std::size_t>(n);
        }
        ::close(fd);
    }
    ::close(listen_fd);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<EvalPoll> evals;
    std::vector<StorePoll> stores;
    std::string textfile;
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    bool serve_mode = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--eval") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            EvalPoll e;
            try {
                e.endpoint = net::parse_endpoint(v);
            } catch (const std::exception& ex) {
                std::cerr << "ehdoe-metrics-export: " << ex.what() << "\n";
                return 2;
            }
            e.label = e.endpoint.host + ":" + std::to_string(e.endpoint.port);
            evals.push_back(std::move(e));
        } else if (arg == "--store") {
            const char* v = next();
            if (!v || *v == '\0') return usage(argv[0]);
            StorePoll s;
            s.label = v;
            stores.push_back(std::move(s));
        } else if (arg == "--textfile") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            textfile = v;
        } else if (arg == "--host") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            host = v;
        } else if (arg == "--port") {
            const char* v = next();
            if (!v || !tools::parse_port_arg(v, port)) return usage(argv[0]);
            serve_mode = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (evals.empty() && stores.empty()) return usage(argv[0]);
    if (serve_mode && !textfile.empty()) {
        std::cerr << "ehdoe-metrics-export: --port and --textfile are exclusive\n";
        return 2;
    }

    if (serve_mode) return serve(host, port, evals, stores);

    poll_all(evals, stores);
    const std::string body = render(evals, stores);
    if (!textfile.empty()) {
        if (!write_textfile(textfile, body)) {
            std::cerr << "ehdoe-metrics-export: cannot write '" << textfile << "'\n";
            return 1;
        }
    } else {
        std::cout << body;
        std::cout.flush();
    }
    return all_up(evals, stores) ? 0 : 1;
}
