// ehdoe-farm-top — live terminal dashboard for an evaluation farm.
//
// Polls eval-server shards (and optionally store daemons) every interval
// and redraws one screen: per-shard throughput, occupancy and latency
// *trends* computed from the metrics ring (core/metrics.hpp) rather
// than lifetime counters — the rate column is the last sampled interval's
// serve rate, the spark column the ring's recent serve deltas, and the
// p99 column the windowed (median-of-ring) percentile. Shards that speak
// an older protocol (no ring) degrade to lifetime numbers with a '~' mark.
//
//   ehdoe-farm-top :4217 :4218 --store :4230
//   ehdoe-farm-top --interval 5 --count 12 :4217   # one minute, then exit
//
// Flags:
//   --interval S      redraw interval in seconds (default 2)
//   --count N         exit after N polls (default: run until SIGINT)
//   --store HOST:PORT also show this store daemon (repeatable): keys,
//                     segments, hit-rate (lifetime + last-interval)
//   --no-clear        append screens instead of ANSI clear (logs, CI)
//
// Exit status: 0 (SIGINT included), 2 on usage errors. A down endpoint is
// shown DOWN in the table; the dashboard keeps polling it.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/report.hpp"
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
              << " [--interval s] [--count n] [--store host:port ...] [--no-clear]\n"
                 "       host:port [host:port ...]\n";
    return 2;
}

/// The ring's recent per-interval serve deltas as a block-character spark
/// line (oldest left), scaled to the window's own maximum.
std::string sparkline(const metrics::RingSnapshot& ring, int col, std::size_t width) {
    static const char* kBlocks[] = {" ", "▁", "▂", "▃",
                                    "▄", "▅", "▆", "▇", "█"};
    if (col < 0 || ring.rows.size() < 2) return "";
    std::vector<double> deltas;
    const std::size_t first =
        ring.rows.size() > width + 1 ? ring.rows.size() - (width + 1) : 0;
    for (std::size_t i = first + 1; i < ring.rows.size(); ++i) {
        const double d = ring.rows[i].values[static_cast<std::size_t>(col)] -
                         ring.rows[i - 1].values[static_cast<std::size_t>(col)];
        deltas.push_back(d > 0.0 ? d : 0.0);
    }
    double max = 0.0;
    for (const double d : deltas) max = std::max(max, d);
    std::string out;
    for (const double d : deltas) {
        const std::size_t idx =
            max > 0.0 ? static_cast<std::size_t>(d / max * 8.0 + 0.5) : 0;
        out += kBlocks[idx > 8 ? 8 : idx];
    }
    return out;
}

std::string fmt1(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return buf;
}

void draw(const std::vector<net::Endpoint>& endpoints,
          const std::vector<std::string>& store_endpoints, long tick, bool clear) {
    std::vector<net::ShardStats> stats(endpoints.size());
    std::vector<std::string> errors(endpoints.size());
    std::vector<char> reachable(endpoints.size(), 0);
    std::vector<net::StoreStats> store_stats(store_endpoints.size());
    std::vector<std::string> store_errors(store_endpoints.size());
    std::vector<char> store_reachable(store_endpoints.size(), 0);
    std::vector<std::thread> pollers;
    pollers.reserve(endpoints.size() + store_endpoints.size());
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        pollers.emplace_back([&, i] {
            reachable[i] = net::query_shard_stats(endpoints[i], stats[i], errors[i]) ? 1 : 0;
        });
    }
    for (std::size_t i = 0; i < store_endpoints.size(); ++i) {
        pollers.emplace_back([&, i] {
            store_reachable[i] = store::query_store_stats(store_endpoints[i], store_stats[i],
                                                          store_errors[i])
                                     ? 1
                                     : 0;
        });
    }
    for (std::thread& p : pollers) p.join();

    std::string screen;
    if (clear) screen += "\x1b[2J\x1b[H";  // clear + home

    core::Table t("ehdoe-farm-top  poll " + std::to_string(tick) + "  (" +
                  std::to_string(endpoints.size()) + " shards)");
    t.headers({"endpoint", "state", "rate/s", "spark", "inflight", "p50ms", "p99ms",
               "served", "failed", "respawns"});
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        const std::string label =
            endpoints[i].host + ":" + std::to_string(endpoints[i].port);
        if (!reachable[i]) {
            t.row().cell(label).cell("DOWN").cell("-").cell("").cell("-").cell("-").cell(
                "-").cell("-").cell("-").cell("-");
            continue;
        }
        const net::ShardStats& s = stats[i];
        const metrics::RingSnapshot& ring = s.metrics;
        const int served_col = metrics::find_series(ring, "served");
        const int p50_col = metrics::find_series(ring, "p50_us");
        const int p99_col = metrics::find_series(ring, "p99_us");
        const bool ringed = !ring.empty() && ring.interval_us > 0;

        std::string rate = "-";
        if (ringed && served_col >= 0 && ring.rows.size() >= 2) {
            const double delta =
                metrics::last_delta(ring, static_cast<std::size_t>(served_col));
            rate = fmt1(delta / (static_cast<double>(ring.interval_us) / 1e6));
        } else if (!ringed && s.uptime_seconds > 0.0) {
            // Ringless shard (sampling off): lifetime average, marked as such.
            rate = "~" + fmt1(static_cast<double>(s.points_served) / s.uptime_seconds);
        }
        auto pct_cell = [&](int col, double lifetime_us) -> std::string {
            double v = col >= 0 && ringed
                           ? metrics::window_value(ring, static_cast<std::size_t>(col))
                           : 0.0;
            std::string mark;
            if (v <= 0.0) {
                if (s.latency_buckets.empty()) return "-";
                v = lifetime_us;
                mark = "~";
            }
            return mark + fmt1(v / 1000.0);
        };
        t.row()
            .cell(label)
            .cell("up")
            .cell(rate)
            .cell(sparkline(ring, served_col, 20))
            .cell(static_cast<std::size_t>(s.in_flight))
            .cell(pct_cell(p50_col, s.latency_p50_us))
            .cell(pct_cell(p99_col, s.latency_p99_us))
            .cell(static_cast<std::size_t>(s.points_served))
            .cell(static_cast<std::size_t>(s.points_failed))
            .cell(static_cast<std::size_t>(s.worker_respawns));
    }
    std::ostringstream body;
    t.print(body);

    if (!store_endpoints.empty()) {
        core::Table st("Stores");
        st.headers({"endpoint", "state", "keys", "segments", "hitrate", "recent", "gets"});
        for (std::size_t i = 0; i < store_endpoints.size(); ++i) {
            if (!store_reachable[i]) {
                st.row().cell(store_endpoints[i]).cell("DOWN").cell("-").cell("-").cell(
                    "-").cell("-").cell("-");
                continue;
            }
            const net::StoreStats& s = store_stats[i];
            const std::string lifetime =
                s.gets_served > 0
                    ? fmt1(100.0 * static_cast<double>(s.get_hits) /
                           static_cast<double>(s.gets_served)) + "%"
                    : "-";
            // Last-interval hit rate from the ring's counter deltas.
            std::string recent = "-";
            const int gets_col = metrics::find_series(s.metrics, "gets_served");
            const int hits_col = metrics::find_series(s.metrics, "get_hits");
            if (gets_col >= 0 && hits_col >= 0 && s.metrics.rows.size() >= 2) {
                const double dg =
                    metrics::last_delta(s.metrics, static_cast<std::size_t>(gets_col));
                const double dh =
                    metrics::last_delta(s.metrics, static_cast<std::size_t>(hits_col));
                if (dg > 0.0) recent = fmt1(100.0 * dh / dg) + "%";
            }
            st.row()
                .cell(store_endpoints[i])
                .cell("up")
                .cell(static_cast<std::size_t>(s.keys))
                .cell(static_cast<std::size_t>(s.segments))
                .cell(lifetime)
                .cell(recent)
                .cell(static_cast<std::size_t>(s.gets_served));
        }
        st.print(body);
    }
    screen += body.str();
    std::cout << screen;
    std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
    double interval_seconds = 2.0;
    long count = -1;
    bool no_clear = false;
    std::vector<net::Endpoint> endpoints;
    std::vector<std::string> store_endpoints;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--interval") {
            const char* v = next();
            if (!v || !tools::parse_double_arg(v, interval_seconds) || interval_seconds <= 0.0)
                return usage(argv[0]);
        } else if (arg == "--count") {
            const char* v = next();
            if (!v || !tools::parse_long_arg(v, count) || count <= 0) return usage(argv[0]);
        } else if (arg == "--store") {
            const char* v = next();
            if (!v || *v == '\0') return usage(argv[0]);
            store_endpoints.push_back(v);
        } else if (arg == "--no-clear") {
            no_clear = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            try {
                endpoints.push_back(net::parse_endpoint(arg));
            } catch (const std::exception& e) {
                std::cerr << "ehdoe-farm-top: " << e.what() << "\n";
                return 2;
            }
        }
    }
    if (endpoints.empty() && store_endpoints.empty()) return usage(argv[0]);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    for (long tick = 0; (count < 0 || tick < count) && !g_stop; ++tick) {
        draw(endpoints, store_endpoints, tick, !no_clear);
        if (count >= 0 && tick + 1 >= count) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(interval_seconds));
    }
    return 0;
}
