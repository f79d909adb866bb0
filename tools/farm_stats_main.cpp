// ehdoe-farm-stats — live monitoring of a distributed evaluation farm.
//
// Polls every named eval-server endpoint with the stats frame of the wire
// protocol (net/wire.hpp, "EHDOES" connection kind) and prints one table
// row per shard: points served/failed, handshake rejects, worker respawns
// (exec mode: simulator relaunches), timed-out points, in-flight points
// (worker occupancy), connections, uptime, and the p50/p95/p99 of the
// shard's lifetime per-point eval latency (ms; "-" on a shard that has
// served nothing yet). The stats path is
// served outside the FIFO eval pipeline, so polling a loaded farm never
// delays evaluation traffic; everything shown is display-only and stays
// outside the determinism contract.
//
//   ehdoe-farm-stats 10.0.0.5:4217 10.0.0.6:4217
//   ehdoe-farm-stats --watch 5 :4217 :4218        # re-poll every 5 s
//   ehdoe-farm-stats --json :4217 | jq .          # dashboards
//   ehdoe-farm-stats --store 10.0.0.9:4300 :4217  # + store-daemon stats
//
// Flags:
//   --watch SECONDS   keep polling at this interval (default: poll once)
//   --count N         stop after N polls; without --watch, polls every
//                     2 seconds
//   --store HOST:PORT also poll this ehdoe-store-server's stats frame
//                     (repeatable): keys/segments/quarantined/hit-rate
//                     columns, and a "stores" array under --json
//   --straggler-k K   flag a shard as a straggler when its windowed p99
//                     (the metrics ring; lifetime p99 on ringless shards)
//                     exceeds K x the farm median (default 2.0, >= 2
//                     shards required)
//   --csv             emit CSV instead of the aligned table
//   --json            emit one JSON object per poll (single line), with a
//                     per-shard array — machine consumption without
//                     table/CSV scraping. Schema documented in README.md
//                     ("Observability"); shards that served points add
//                     latency percentiles and the sparse histogram
//                     buckets. stdout carries
//                     ONLY the JSON objects; a down shard mid-watch is
//                     diagnosed on stderr.
//
// Exit status: 0 when every endpoint answered the last poll, 1 when any
// was unreachable or rejected the request, 2 on usage errors.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/report.hpp"
#include "net/remote_backend.hpp"
#include "store/store_client.hpp"
#include "flag_parse.hpp"

using namespace ehdoe;

namespace {

enum class Format { Table, Csv, Json };

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--watch seconds] [--count n] [--store host:port ...] [--straggler-k k]"
                 " [--csv | --json] host:port [host:port ...]\n";
    return 2;
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) for
/// the error diagnoses we embed; endpoint specs are already clean.
std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// The straggler signal the future occupancy-aware scheduler will consume:
/// a shard whose windowed p99 (median of the positive p99 samples in its
/// metrics ring; lifetime p99 when the shard has no ring) exceeds k x
/// the farm median. Needs >= 2 shards with a latency signal — one shard
/// has no farm to straggle behind.
std::vector<char> straggler_flags(const std::vector<net::ShardStats>& stats,
                                  const std::vector<char>& reachable, double k) {
    std::vector<char> flags(stats.size(), 0);
    std::vector<double> p99(stats.size(), 0.0);
    std::vector<double> positive;
    for (std::size_t i = 0; i < stats.size(); ++i) {
        if (!reachable[i]) continue;
        const int col = core::metrics::find_series(stats[i].metrics, "p99_us");
        double v = col >= 0 ? core::metrics::window_value(stats[i].metrics, col) : 0.0;
        if (v <= 0.0) v = stats[i].latency_p99_us;
        p99[i] = v;
        if (v > 0.0) positive.push_back(v);
    }
    if (positive.size() < 2) return flags;
    const double median = core::metrics::median_positive(positive);
    if (median <= 0.0) return flags;
    for (std::size_t i = 0; i < stats.size(); ++i) {
        if (p99[i] > k * median) flags[i] = 1;
    }
    return flags;
}

/// One poll over every endpoint; prints per `format`, returns true when
/// all endpoints answered. Endpoints are queried concurrently so down
/// shards cost one query timeout for the whole poll, not one each.
bool poll_once(const std::vector<net::Endpoint>& endpoints,
               const std::vector<std::string>& store_endpoints, Format format,
               long poll_index, double straggler_k) {
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

    bool all_ok = true;
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        if (!reachable[i]) all_ok = false;
    }
    for (std::size_t i = 0; i < store_endpoints.size(); ++i) {
        if (!store_reachable[i]) all_ok = false;
    }
    const std::vector<char> stragglers = straggler_flags(stats, reachable, straggler_k);

    // Diagnostics go to stderr in every format: under --json, stdout must
    // stay one parseable object per poll for whatever is piping it.
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        if (!reachable[i]) {
            std::cerr << "[ehdoe-farm-stats] shard " << endpoints[i].host << ":"
                      << endpoints[i].port << " down: " << errors[i] << "\n";
        }
    }
    for (std::size_t i = 0; i < store_endpoints.size(); ++i) {
        if (!store_reachable[i]) {
            std::cerr << "[ehdoe-farm-stats] store " << store_endpoints[i]
                      << " down: " << store_errors[i] << "\n";
        }
    }

    if (format == Format::Json) {
        std::string out = "{\"poll\":" + std::to_string(poll_index) + ",\"shards\":[";
        for (std::size_t i = 0; i < endpoints.size(); ++i) {
            const net::Endpoint& e = endpoints[i];
            const net::ShardStats& s = stats[i];
            if (i > 0) out += ",";
            out += "{\"endpoint\":\"" + json_escape(e.host + ":" + std::to_string(e.port)) +
                   "\",\"up\":" + (reachable[i] ? "true" : "false");
            if (reachable[i]) {
                char uptime[32];
                std::snprintf(uptime, sizeof uptime, "%.3f", s.uptime_seconds);
                out += ",\"served\":" + std::to_string(s.points_served) +
                       ",\"failed\":" + std::to_string(s.points_failed) +
                       ",\"rejects\":" + std::to_string(s.handshakes_rejected) +
                       ",\"respawns\":" + std::to_string(s.worker_respawns) +
                       ",\"timeouts\":" + std::to_string(s.points_timed_out) +
                       ",\"in_flight\":" + std::to_string(s.in_flight) +
                       ",\"connections\":" + std::to_string(s.connections_accepted) +
                       ",\"uptime_seconds\":" + uptime;
                out += std::string(",\"straggler\":") + (stragglers[i] ? "true" : "false");
                // Latency fields only when the shard reported a histogram
                // (a shard that served nothing omits them).
                if (!s.latency_buckets.empty()) {
                    char p50[32], p95[32], p99[32];
                    std::snprintf(p50, sizeof p50, "%.1f", s.latency_p50_us);
                    std::snprintf(p95, sizeof p95, "%.1f", s.latency_p95_us);
                    std::snprintf(p99, sizeof p99, "%.1f", s.latency_p99_us);
                    out += std::string(",\"latency_p50_us\":") + p50 +
                           ",\"latency_p95_us\":" + p95 + ",\"latency_p99_us\":" + p99 +
                           ",\"latency_buckets\":[";
                    for (std::size_t b = 0; b < s.latency_buckets.size(); ++b) {
                        if (b > 0) out += ",";
                        out += "[" + std::to_string(s.latency_buckets[b].first) + "," +
                               std::to_string(s.latency_buckets[b].second) + "]";
                    }
                    out += "]";
                }
            } else {
                out += ",\"error\":\"" + json_escape(errors[i]) + "\"";
            }
            out += "}";
        }
        out += "]";
        if (!store_endpoints.empty()) {
            out += ",\"stores\":[";
            for (std::size_t i = 0; i < store_endpoints.size(); ++i) {
                const net::StoreStats& s = store_stats[i];
                if (i > 0) out += ",";
                out += "{\"endpoint\":\"" + json_escape(store_endpoints[i]) +
                       "\",\"up\":" + (store_reachable[i] ? "true" : "false");
                if (store_reachable[i]) {
                    char uptime[32], hit_rate[32];
                    std::snprintf(uptime, sizeof uptime, "%.3f", s.uptime_seconds);
                    std::snprintf(hit_rate, sizeof hit_rate, "%.4f",
                                  s.gets_served > 0
                                      ? static_cast<double>(s.get_hits) /
                                            static_cast<double>(s.gets_served)
                                      : 0.0);
                    out += ",\"keys\":" + std::to_string(s.keys) +
                           ",\"segments\":" + std::to_string(s.segments) +
                           ",\"quarantined\":" + std::to_string(s.quarantined_segments) +
                           ",\"gets_served\":" + std::to_string(s.gets_served) +
                           ",\"get_hits\":" + std::to_string(s.get_hits) +
                           ",\"hit_rate\":" + hit_rate +
                           ",\"puts_received\":" + std::to_string(s.puts_received) +
                           ",\"records_appended\":" + std::to_string(s.records_appended) +
                           ",\"uptime_seconds\":" + uptime;
                } else {
                    out += ",\"error\":\"" + json_escape(store_errors[i]) + "\"";
                }
                out += "}";
            }
            out += "]";
        }
        out += ",\"all_up\":";
        out += all_ok ? "true" : "false";
        out += "}";
        std::cout << out << std::endl;
        return all_ok;
    }

    core::Table t("Farm stats (" + std::to_string(endpoints.size()) + " shards)");
    t.headers({"endpoint", "state", "served", "failed", "rejects", "respawns", "timeouts",
               "inflight", "conns", "uptime", "p50ms", "p95ms", "p99ms", "flag"});
    auto ms_cell = [](double us, bool have) -> std::string {
        if (!have) return "-";
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f", us / 1000.0);
        return buf;
    };
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        const net::Endpoint& e = endpoints[i];
        const net::ShardStats& s = stats[i];
        const std::string label = e.host + ":" + std::to_string(e.port);
        if (reachable[i]) {
            const bool have_latency = !s.latency_buckets.empty();
            t.row()
                .cell(label)
                .cell("up")
                .cell(static_cast<std::size_t>(s.points_served))
                .cell(static_cast<std::size_t>(s.points_failed))
                .cell(static_cast<std::size_t>(s.handshakes_rejected))
                .cell(static_cast<std::size_t>(s.worker_respawns))
                .cell(static_cast<std::size_t>(s.points_timed_out))
                .cell(static_cast<std::size_t>(s.in_flight))
                .cell(static_cast<std::size_t>(s.connections_accepted))
                .cell(core::format_seconds(s.uptime_seconds))
                .cell(ms_cell(s.latency_p50_us, have_latency))
                .cell(ms_cell(s.latency_p95_us, have_latency))
                .cell(ms_cell(s.latency_p99_us, have_latency))
                .cell(stragglers[i] ? "STRAGGLER" : "");
        } else {
            t.row().cell(label).cell("DOWN: " + errors[i]).cell("-").cell("-").cell("-").cell(
                "-").cell("-").cell("-").cell("-").cell("-").cell("-").cell("-").cell("-").cell(
                "-");
        }
    }
    if (format == Format::Csv) {
        t.print_csv(std::cout);
    } else {
        t.print(std::cout);
    }

    if (!store_endpoints.empty()) {
        core::Table st("Store stats (" + std::to_string(store_endpoints.size()) + " stores)");
        st.headers({"endpoint", "state", "keys", "segments", "quarantined", "gets", "hitrate",
                    "puts", "appended", "uptime"});
        for (std::size_t i = 0; i < store_endpoints.size(); ++i) {
            const net::StoreStats& s = store_stats[i];
            if (store_reachable[i]) {
                char hit_rate[32];
                std::snprintf(hit_rate, sizeof hit_rate, "%.1f%%",
                              s.gets_served > 0 ? 100.0 * static_cast<double>(s.get_hits) /
                                                      static_cast<double>(s.gets_served)
                                                : 0.0);
                st.row()
                    .cell(store_endpoints[i])
                    .cell("up")
                    .cell(static_cast<std::size_t>(s.keys))
                    .cell(static_cast<std::size_t>(s.segments))
                    .cell(static_cast<std::size_t>(s.quarantined_segments))
                    .cell(static_cast<std::size_t>(s.gets_served))
                    .cell(hit_rate)
                    .cell(static_cast<std::size_t>(s.puts_received))
                    .cell(static_cast<std::size_t>(s.records_appended))
                    .cell(core::format_seconds(s.uptime_seconds));
            } else {
                st.row().cell(store_endpoints[i]).cell("DOWN: " + store_errors[i]).cell("-")
                    .cell("-").cell("-").cell("-").cell("-").cell("-").cell("-").cell("-");
            }
        }
        if (format == Format::Csv) {
            st.print_csv(std::cout);
        } else {
            st.print(std::cout);
        }
    }
    std::cout.flush();
    return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
    double watch_seconds = -1.0;
    long count = -1;
    double straggler_k = 2.0;
    Format format = Format::Table;
    std::vector<net::Endpoint> endpoints;
    std::vector<std::string> store_endpoints;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--watch") {
            // Strict parse: "--watch 5x" must be a usage error, not 5.
            const char* v = next();
            if (!v || !tools::parse_double_arg(v, watch_seconds) || watch_seconds <= 0.0)
                return usage(argv[0]);
        } else if (arg == "--count") {
            const char* v = next();
            if (!v || !tools::parse_long_arg(v, count) || count <= 0) return usage(argv[0]);
        } else if (arg == "--store") {
            const char* v = next();
            if (!v || *v == '\0') return usage(argv[0]);
            store_endpoints.push_back(v);
        } else if (arg == "--straggler-k") {
            const char* v = next();
            if (!v || !tools::parse_double_arg(v, straggler_k) || straggler_k <= 0.0)
                return usage(argv[0]);
        } else if (arg == "--csv") {
            format = Format::Csv;
        } else if (arg == "--json") {
            format = Format::Json;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            try {
                endpoints.push_back(net::parse_endpoint(arg));
            } catch (const std::exception& e) {
                std::cerr << "ehdoe-farm-stats: " << e.what() << "\n";
                return 2;
            }
        }
    }
    if (endpoints.empty() && store_endpoints.empty()) return usage(argv[0]);
    // --count alone still means "poll repeatedly": give it a sane cadence
    // instead of silently ignoring it.
    if (count > 0 && watch_seconds <= 0.0) watch_seconds = 2.0;

    bool all_ok = poll_once(endpoints, store_endpoints, format, 0, straggler_k);
    if (watch_seconds > 0.0) {
        for (long polls = 1; count < 0 || polls < count; ++polls) {
            std::this_thread::sleep_for(std::chrono::duration<double>(watch_seconds));
            if (format != Format::Json) std::cout << "\n";
            all_ok = poll_once(endpoints, store_endpoints, format, polls, straggler_k);
        }
    }
    return all_ok ? 0 : 1;
}
