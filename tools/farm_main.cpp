// ehdoe-farm — the one client of an evaluation farm's stats frames.
//
// Every view polls each named eval-server (the stats connection kind of
// net/wire.hpp) and each --store daemon concurrently, derives the numbers
// the views share from that one poll (windowed percentiles from the
// metrics ring, the serve rate, the store hit rate, the straggler flag),
// and renders it:
//
//   ehdoe-farm stats 10.0.0.5:4217 10.0.0.6:4217   # table; exit 1 if any is down
//   ehdoe-farm stats --json --store :4300 :4217    # one JSON object per poll
//   ehdoe-farm stats --interval 5 --csv :4217      # re-poll every 5 s
//   ehdoe-farm top :4217 :4218 --store :4300       # dashboard, redrawn every 2 s
//   ehdoe-farm top --interval 5 --count 12 :4217   # one minute, then exit
//   ehdoe-farm export :4217 --store :4300          # Prometheus text to stdout
//   ehdoe-farm export :4217 --textfile ehdoe.prom  # node-exporter textfile
//   ehdoe-farm export :4217 --port 9109            # scrape target
//
// Flags (a flag the chosen view does not take is a usage error):
//   --store HOST:PORT  also poll this ehdoe-store-server (repeatable)
//   --interval S       stats, top: re-poll every S seconds (stats polls
//                      once by default, top every 2 s)
//   --count N          stats, top: stop after N polls (alone: every 2 s)
//   --csv | --json     stats: CSV instead of the aligned table, or one
//                      single-line JSON object per poll (schema in
//                      README.md, "Observability")
//   --port P           export: answer every HTTP request on this port with
//                      a fresh poll (0 = ephemeral); prints one
//                      "serving on HOST:PORT" line at startup
//   --host ADDR        export: the interface --port binds (default
//                      127.0.0.1)
//   --textfile FILE    export: write one exposition atomically (tmp +
//                      rename) for the node-exporter textfile collector
//
// Eval-servers answer stats outside their eval pipeline, so polling a
// loaded farm never delays evaluation; everything shown is display-only
// and outside the determinism contract. stdout carries only the view:
// every endpoint that is down gets one stderr line per poll.
//
// Exit status: 2 on usage errors, a malformed HOST:PORT included. stats,
// and export to stdout or a textfile: 0 when every endpoint answered the
// last poll, 1 when any did not. top: 0. export --port: 0 after
// SIGINT/SIGTERM, 1 when it cannot listen.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/perf_gate.hpp"
#include "core/report.hpp"
#include "net/remote_backend.hpp"
#include "net/tcp_server.hpp"
#include "store/store_client.hpp"
#include "flag_parse.hpp"

using namespace ehdoe;
namespace metrics = ehdoe::core::metrics;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage() {
    std::cerr << "usage: ehdoe-farm stats  [--csv | --json] [--interval s] [--count n]\n"
                 "                         [--store host:port ...] [host:port ...]\n"
                 "       ehdoe-farm top    [--interval s] [--count n] [--store host:port ...]\n"
                 "                         [host:port ...]\n"
                 "       ehdoe-farm export [--port p [--host addr] | --textfile file]\n"
                 "                         [--store host:port ...] [host:port ...]\n";
    return 2;
}

std::string fixed(double v, int digits) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

// ---------------------------------------------------------------------------
// One poll and the numbers every view derives from it.
// ---------------------------------------------------------------------------

/// A shard straggles when its windowed p99 exceeds this many times the
/// farm median.
constexpr double kStragglerK = 2.0;

struct Farm {
    std::vector<net::Endpoint> shards;
    std::vector<std::string> stores;  ///< as given on the command line
};

struct Shard {
    std::string label;  ///< host:port
    bool up = false;
    std::string error;  ///< why the poll failed, when !up
    net::ShardStats stats;
    bool ringed = false;  ///< the shard samples a metrics ring
    /// Median of the ring's positive p50 / p99 samples: the shard's
    /// typical recent latency, robust to idle rows. 0 = no signal.
    double window_p50_us = 0.0;
    double window_p99_us = 0.0;
    std::optional<double> rate;  ///< points/s over the ring's last interval
    bool straggler = false;
};

struct Store {
    std::string label;
    bool up = false;
    std::string error;
    net::StoreStats stats;
    double hit_rate = 0.0;  ///< lifetime get_hits / gets_served; 0 before any get
    std::optional<double> recent_hit_rate;  ///< the same over the ring's last interval
};

struct Poll {
    std::vector<Shard> shards;
    std::vector<Store> stores;

    bool all_up() const {
        return std::all_of(shards.begin(), shards.end(), [](const Shard& s) { return s.up; }) &&
               std::all_of(stores.begin(), stores.end(), [](const Store& s) { return s.up; });
    }
};

double window(const metrics::RingSnapshot& ring, const char* series) {
    const int col = metrics::find_series(ring, series);
    return col >= 0 ? metrics::window_value(ring, static_cast<std::size_t>(col)) : 0.0;
}

/// The latency the straggler test compares: the windowed p99, or the
/// lifetime p99 on a shard without a ring.
double straggler_signal(const Shard& s) {
    return s.window_p99_us > 0.0 ? s.window_p99_us : s.stats.latency_p99_us;
}

/// Query every endpoint concurrently (a down endpoint costs one timeout
/// for the whole poll, not one each), then derive what the views share.
Poll poll_farm(const Farm& farm) {
    Poll p;
    p.shards.resize(farm.shards.size());
    p.stores.resize(farm.stores.size());
    {
        std::vector<std::thread> pollers;
        pollers.reserve(farm.shards.size() + farm.stores.size());
        for (std::size_t i = 0; i < farm.shards.size(); ++i) {
            Shard& s = p.shards[i];
            const net::Endpoint& e = farm.shards[i];
            s.label = e.host + ":" + std::to_string(e.port);
            pollers.emplace_back([&s, &e] { s.up = net::query_shard_stats(e, s.stats, s.error); });
        }
        for (std::size_t i = 0; i < farm.stores.size(); ++i) {
            Store& s = p.stores[i];
            s.label = farm.stores[i];
            pollers.emplace_back(
                [&s] { s.up = store::query_store_stats(s.label, s.stats, s.error); });
        }
        for (std::thread& t : pollers) t.join();
    }

    std::vector<double> signals;
    for (Shard& s : p.shards) {
        if (!s.up) {
            std::cerr << "[ehdoe-farm] shard " << s.label << " down: " << s.error << "\n";
            continue;
        }
        const metrics::RingSnapshot& ring = s.stats.metrics;
        s.ringed = !ring.empty() && ring.interval_us > 0;
        s.window_p50_us = window(ring, "p50_us");
        s.window_p99_us = window(ring, "p99_us");
        const int served = metrics::find_series(ring, "served");
        if (s.ringed && served >= 0 && ring.rows.size() >= 2) {
            s.rate = metrics::last_delta(ring, static_cast<std::size_t>(served)) /
                     (static_cast<double>(ring.interval_us) / 1e6);
        }
        if (straggler_signal(s) > 0.0) signals.push_back(straggler_signal(s));
    }
    // One shard has no farm to straggle behind: it takes two latency signals.
    const double median = signals.size() >= 2 ? metrics::median_positive(signals) : 0.0;
    if (median > 0.0) {
        for (Shard& s : p.shards) s.straggler = s.up && straggler_signal(s) > kStragglerK * median;
    }

    for (Store& s : p.stores) {
        if (!s.up) {
            std::cerr << "[ehdoe-farm] store " << s.label << " down: " << s.error << "\n";
            continue;
        }
        const net::StoreStats& st = s.stats;
        if (st.gets_served > 0) {
            s.hit_rate =
                static_cast<double>(st.get_hits) / static_cast<double>(st.gets_served);
        }
        const int gets = metrics::find_series(st.metrics, "gets_served");
        const int hits = metrics::find_series(st.metrics, "get_hits");
        if (gets >= 0 && hits >= 0 && st.metrics.rows.size() >= 2) {
            const double dg = metrics::last_delta(st.metrics, static_cast<std::size_t>(gets));
            const double dh = metrics::last_delta(st.metrics, static_cast<std::size_t>(hits));
            if (dg > 0.0) s.recent_hit_rate = dh / dg;
        }
    }
    return p;
}

// ---------------------------------------------------------------------------
// stats: the table, CSV, or one JSON object per poll.
// ---------------------------------------------------------------------------

enum class Format { Table, Csv, Json };

/// One shards[] or stores[] entry: the endpoint and whether it answered,
/// then `fields` when it did or its error when it did not.
void append_entry(std::string& out, const std::string& label, bool up, const std::string& error,
                  const std::string& fields) {
    out += "{\"endpoint\":\"";
    core::append_json_escaped(out, label);
    out += std::string("\",\"up\":") + (up ? "true" : "false");
    if (up) {
        out += fields;
    } else {
        out += ",\"error\":\"";
        core::append_json_escaped(out, error);
        out += "\"";
    }
    out += "}";
}

std::string stats_json(const Poll& p, long poll_index) {
    std::string out = "{\"poll\":" + std::to_string(poll_index) + ",\"shards\":[";
    for (std::size_t i = 0; i < p.shards.size(); ++i) {
        const Shard& sh = p.shards[i];
        const net::ShardStats& s = sh.stats;
        std::string fields;
        if (sh.up) {
            fields = ",\"served\":" + std::to_string(s.points_served) +
                     ",\"failed\":" + std::to_string(s.points_failed) +
                     ",\"rejects\":" + std::to_string(s.handshakes_rejected) +
                     ",\"respawns\":" + std::to_string(s.worker_respawns) +
                     ",\"timeouts\":" + std::to_string(s.points_timed_out) +
                     ",\"in_flight\":" + std::to_string(s.in_flight) +
                     ",\"connections\":" + std::to_string(s.connections_accepted) +
                     ",\"uptime_seconds\":" + fixed(s.uptime_seconds, 3) +
                     ",\"straggler\":" + (sh.straggler ? "true" : "false");
            // Latency fields only once the shard has served (a histogram).
            if (!s.latency_buckets.empty()) {
                fields += ",\"latency_p50_us\":" + fixed(s.latency_p50_us, 1) +
                          ",\"latency_p95_us\":" + fixed(s.latency_p95_us, 1) +
                          ",\"latency_p99_us\":" + fixed(s.latency_p99_us, 1) +
                          ",\"latency_buckets\":[";
                for (std::size_t b = 0; b < s.latency_buckets.size(); ++b) {
                    if (b > 0) fields += ",";
                    fields += "[" + std::to_string(s.latency_buckets[b].first) + "," +
                              std::to_string(s.latency_buckets[b].second) + "]";
                }
                fields += "]";
            }
        }
        if (i > 0) out += ",";
        append_entry(out, sh.label, sh.up, sh.error, fields);
    }
    out += "]";
    if (!p.stores.empty()) {
        out += ",\"stores\":[";
        for (std::size_t i = 0; i < p.stores.size(); ++i) {
            const Store& st = p.stores[i];
            const net::StoreStats& s = st.stats;
            std::string fields;
            if (st.up) {
                fields = ",\"keys\":" + std::to_string(s.keys) +
                         ",\"segments\":" + std::to_string(s.segments) +
                         ",\"quarantined\":" + std::to_string(s.quarantined_segments) +
                         ",\"gets_served\":" + std::to_string(s.gets_served) +
                         ",\"get_hits\":" + std::to_string(s.get_hits) +
                         ",\"hit_rate\":" + fixed(st.hit_rate, 4) +
                         ",\"puts_received\":" + std::to_string(s.puts_received) +
                         ",\"records_appended\":" + std::to_string(s.records_appended) +
                         ",\"uptime_seconds\":" + fixed(s.uptime_seconds, 3);
            }
            if (i > 0) out += ",";
            append_entry(out, st.label, st.up, st.error, fields);
        }
        out += "]";
    }
    out += std::string(",\"all_up\":") + (p.all_up() ? "true" : "false") + "}";
    return out;
}

/// A row for an endpoint that did not answer: its label, `state`, and "-"
/// in every other column.
void down_row(core::Table& t, const std::string& label, const std::string& state) {
    t.row().cell(label).cell(state);
    for (std::size_t j = 2; j < t.columns(); ++j) t.cell("-");
}

void print_stats(const Poll& p, Format format) {
    auto print = [format](const core::Table& t) {
        format == Format::Csv ? t.print_csv(std::cout) : t.print(std::cout);
    };
    core::Table t("Farm stats (" + std::to_string(p.shards.size()) + " shards)");
    t.headers({"endpoint", "state", "served", "failed", "rejects", "respawns", "timeouts",
               "inflight", "conns", "uptime", "p50ms", "p95ms", "p99ms", "flag"});
    for (const Shard& sh : p.shards) {
        if (!sh.up) {
            down_row(t, sh.label, "DOWN: " + sh.error);
            continue;
        }
        const net::ShardStats& s = sh.stats;
        auto ms = [&s](double us) {
            return s.latency_buckets.empty() ? std::string("-") : fixed(us / 1000.0, 1);
        };
        t.row()
            .cell(sh.label)
            .cell("up")
            .cell(static_cast<std::size_t>(s.points_served))
            .cell(static_cast<std::size_t>(s.points_failed))
            .cell(static_cast<std::size_t>(s.handshakes_rejected))
            .cell(static_cast<std::size_t>(s.worker_respawns))
            .cell(static_cast<std::size_t>(s.points_timed_out))
            .cell(static_cast<std::size_t>(s.in_flight))
            .cell(static_cast<std::size_t>(s.connections_accepted))
            .cell(core::format_seconds(s.uptime_seconds))
            .cell(ms(s.latency_p50_us))
            .cell(ms(s.latency_p95_us))
            .cell(ms(s.latency_p99_us))
            .cell(sh.straggler ? "STRAGGLER" : "");
    }
    print(t);

    if (!p.stores.empty()) {
        core::Table st("Store stats (" + std::to_string(p.stores.size()) + " stores)");
        st.headers({"endpoint", "state", "keys", "segments", "quarantined", "gets", "hitrate",
                    "puts", "appended", "uptime"});
        for (const Store& store : p.stores) {
            if (!store.up) {
                down_row(st, store.label, "DOWN: " + store.error);
                continue;
            }
            const net::StoreStats& s = store.stats;
            st.row()
                .cell(store.label)
                .cell("up")
                .cell(static_cast<std::size_t>(s.keys))
                .cell(static_cast<std::size_t>(s.segments))
                .cell(static_cast<std::size_t>(s.quarantined_segments))
                .cell(static_cast<std::size_t>(s.gets_served))
                .cell(fixed(100.0 * store.hit_rate, 1) + "%")
                .cell(static_cast<std::size_t>(s.puts_received))
                .cell(static_cast<std::size_t>(s.records_appended))
                .cell(core::format_seconds(s.uptime_seconds));
        }
        print(st);
    }
    std::cout.flush();
}

// ---------------------------------------------------------------------------
// top: one dashboard frame of trends from the metrics rings.
// ---------------------------------------------------------------------------

/// The ring's recent per-interval serve deltas as a block-character spark
/// line (oldest left), scaled to the window's own maximum.
std::string sparkline(const metrics::RingSnapshot& ring, std::size_t width) {
    static const char* kBlocks[] = {" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
    const int col = metrics::find_series(ring, "served");
    if (col < 0 || ring.rows.size() < 2) return "";
    const auto c = static_cast<std::size_t>(col);
    std::vector<double> deltas;
    const std::size_t first = ring.rows.size() > width + 1 ? ring.rows.size() - (width + 1) : 0;
    for (std::size_t i = first + 1; i < ring.rows.size(); ++i) {
        const double d = ring.rows[i].values[c] - ring.rows[i - 1].values[c];
        deltas.push_back(d > 0.0 ? d : 0.0);
    }
    const double max = *std::max_element(deltas.begin(), deltas.end());
    std::string out;
    for (const double d : deltas) {
        const std::size_t idx = max > 0.0 ? static_cast<std::size_t>(d / max * 8.0 + 0.5) : 0;
        out += kBlocks[idx > 8 ? 8 : idx];
    }
    return out;
}

void print_top(const Poll& p, long tick) {
    // Clear + home on a terminal; logs and pipes get frames appended.
    if (::isatty(STDOUT_FILENO)) std::cout << "\x1b[2J\x1b[H";
    core::Table t("ehdoe-farm top  poll " + std::to_string(tick) + "  (" +
                  std::to_string(p.shards.size()) + " shards)");
    t.headers({"endpoint", "state", "rate/s", "spark", "inflight", "p50ms", "p99ms", "served",
               "failed", "respawns"});
    for (const Shard& sh : p.shards) {
        if (!sh.up) {
            t.row().cell(sh.label).cell("DOWN").cell("-").cell("").cell("-").cell("-").cell(
                "-").cell("-").cell("-").cell("-");
            continue;
        }
        const net::ShardStats& s = sh.stats;
        // Without a ring, lifetime numbers stand in, marked '~'.
        std::string rate = "-";
        if (sh.rate) {
            rate = fixed(*sh.rate, 1);
        } else if (!sh.ringed && s.uptime_seconds > 0.0) {
            rate = "~" + fixed(static_cast<double>(s.points_served) / s.uptime_seconds, 1);
        }
        auto pct = [&s](double window_us, double lifetime_us) -> std::string {
            if (window_us > 0.0) return fixed(window_us / 1000.0, 1);
            if (s.latency_buckets.empty()) return "-";
            return "~" + fixed(lifetime_us / 1000.0, 1);
        };
        t.row()
            .cell(sh.label)
            .cell("up")
            .cell(rate)
            .cell(sparkline(s.metrics, 20))
            .cell(static_cast<std::size_t>(s.in_flight))
            .cell(pct(sh.window_p50_us, s.latency_p50_us))
            .cell(pct(sh.window_p99_us, s.latency_p99_us))
            .cell(static_cast<std::size_t>(s.points_served))
            .cell(static_cast<std::size_t>(s.points_failed))
            .cell(static_cast<std::size_t>(s.worker_respawns));
    }
    t.print(std::cout);

    if (!p.stores.empty()) {
        core::Table st("Stores");
        st.headers({"endpoint", "state", "keys", "segments", "hitrate", "recent", "gets"});
        for (const Store& store : p.stores) {
            if (!store.up) {
                down_row(st, store.label, "DOWN");
                continue;
            }
            const net::StoreStats& s = store.stats;
            st.row()
                .cell(store.label)
                .cell("up")
                .cell(static_cast<std::size_t>(s.keys))
                .cell(static_cast<std::size_t>(s.segments))
                .cell(s.gets_served > 0 ? fixed(100.0 * store.hit_rate, 1) + "%" : "-")
                .cell(store.recent_hit_rate ? fixed(100.0 * *store.recent_hit_rate, 1) + "%"
                                            : "-")
                .cell(static_cast<std::size_t>(s.gets_served));
        }
        st.print(std::cout);
    }
    std::cout.flush();
}

// ---------------------------------------------------------------------------
// export: Prometheus text exposition format 0.0.4.
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> endpoint_labels(const std::string& label) {
    return {{"endpoint", label}};
}

/// Families are grouped (one HELP/TYPE header, then every endpoint's
/// sample) as the format requires; every sample carries an `endpoint`
/// label.
std::string exposition(const Poll& p) {
    std::string out;

    metrics::append_exposition_header(out, "ehdoe_up",
                                      "Whether the endpoint answered the stats poll.", "gauge");
    for (const Shard& s : p.shards) {
        metrics::append_sample(out, "ehdoe_up", {{"role", "eval"}, {"endpoint", s.label}},
                               s.up ? 1.0 : 0.0);
    }
    for (const Store& s : p.stores) {
        metrics::append_sample(out, "ehdoe_up", {{"role", "store"}, {"endpoint", s.label}},
                               s.up ? 1.0 : 0.0);
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
        for (const Shard& s : p.shards) {
            if (s.up) metrics::append_sample(out, f.name, endpoint_labels(s.label), f.get(s.stats));
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
        for (const Shard& s : p.shards) {
            if (s.up && !s.stats.latency_buckets.empty())
                metrics::append_sample(out, f.name, endpoint_labels(s.label), s.stats.*f.member);
        }
    }

    // Windowed gauges from the metrics ring: trend, not lifetime.
    metrics::append_exposition_header(out, "ehdoe_eval_window_p99_us",
                                      "Windowed per-point latency p99 (us; median of the "
                                      "ring's positive samples).",
                                      "gauge");
    for (const Shard& s : p.shards) {
        if (s.window_p99_us > 0.0)
            metrics::append_sample(out, "ehdoe_eval_window_p99_us", endpoint_labels(s.label),
                                   s.window_p99_us);
    }
    metrics::append_exposition_header(out, "ehdoe_eval_points_per_second",
                                      "Serve rate over the last sampled interval.", "gauge");
    for (const Shard& s : p.shards) {
        if (s.rate)
            metrics::append_sample(out, "ehdoe_eval_points_per_second",
                                   endpoint_labels(s.label), *s.rate);
    }

    struct StoreFamily {
        const char* name;
        const char* help;
        const char* type;
        double (*get)(const Store&);
    };
    static const StoreFamily kStoreFamilies[] = {
        {"ehdoe_store_keys", "Distinct keys in the live table.", "gauge",
         [](const Store& s) { return static_cast<double>(s.stats.keys); }},
        {"ehdoe_store_segments", "Live segment files.", "gauge",
         [](const Store& s) { return static_cast<double>(s.stats.segments); }},
        {"ehdoe_store_quarantined_segments", "Segments set aside as corrupt.", "gauge",
         [](const Store& s) { return static_cast<double>(s.stats.quarantined_segments); }},
        {"ehdoe_store_gets_served_total", "Keys looked up.", "counter",
         [](const Store& s) { return static_cast<double>(s.stats.gets_served); }},
        {"ehdoe_store_get_hits_total", "Lookups that found a record.", "counter",
         [](const Store& s) { return static_cast<double>(s.stats.get_hits); }},
        {"ehdoe_store_puts_received_total", "Records offered by clients.", "counter",
         [](const Store& s) { return static_cast<double>(s.stats.puts_received); }},
        {"ehdoe_store_records_appended_total", "Records newly appended.", "counter",
         [](const Store& s) { return static_cast<double>(s.stats.records_appended); }},
        {"ehdoe_store_hit_rate", "get_hits / gets_served (0 before any get).", "gauge",
         [](const Store& s) { return s.hit_rate; }},
        {"ehdoe_store_uptime_seconds", "Server uptime.", "gauge",
         [](const Store& s) { return s.stats.uptime_seconds; }},
    };
    for (const StoreFamily& f : kStoreFamilies) {
        metrics::append_exposition_header(out, f.name, f.help, f.type);
        for (const Store& s : p.stores) {
            if (s.up) metrics::append_sample(out, f.name, endpoint_labels(s.label), f.get(s));
        }
    }
    return out;
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
int serve(const std::string& host, std::uint16_t port, const Farm& farm) {
    // Connections are answered one at a time, so a client that connects
    // and sends nothing may hold the loop this long, not forever.
    constexpr int kRequestWaitMs = 1000;
    int listen_fd = -1;
    std::uint16_t bound_port = 0;
    try {
        listen_fd = net::listen_tcp(host, port, bound_port);
    } catch (const std::runtime_error&) {
        std::cerr << "ehdoe-farm: cannot listen on " << host << ":" << port << "\n";
        return 1;
    }
    std::cout << "serving on " << host << ":" << bound_port << std::endl;

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop) {
        pollfd pfd{listen_fd, POLLIN, 0};
        if (::poll(&pfd, 1, 200) <= 0) continue;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) continue;
        pollfd request{fd, POLLIN, 0};
        if (::poll(&request, 1, kRequestWaitMs) == 1) {
            // Drain the request line + headers (best effort; every request
            // gets the same answer).
            char buf[1024];
            ::recv(fd, buf, sizeof buf, 0);
            const std::string body = exposition(poll_farm(farm));
            const std::string reply =
                "HTTP/1.0 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                "Content-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body;
            std::size_t sent = 0;
            while (sent < reply.size()) {
                // MSG_NOSIGNAL: a scraper that gave up must not kill the exporter.
                const ssize_t n =
                    ::send(fd, reply.data() + sent, reply.size() - sent, MSG_NOSIGNAL);
                if (n <= 0) break;
                sent += static_cast<std::size_t>(n);
            }
        }
        ::close(fd);
    }
    ::close(listen_fd);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    enum class View { Stats, Top, Export };
    if (argc < 2) return usage();
    const std::string view_name = argv[1];
    View view;
    if (view_name == "stats") {
        view = View::Stats;
    } else if (view_name == "top") {
        view = View::Top;
    } else if (view_name == "export") {
        view = View::Export;
    } else {
        return usage();
    }

    Farm farm;
    double interval = 0.0;  // 0: the view's default
    long count = 0;         // 0: unbounded (stats: one poll unless repeating)
    Format format = Format::Table;
    std::optional<std::uint16_t> port;
    std::string host = "127.0.0.1";
    std::string textfile;
    const bool repeats = view != View::Export;  // stats and top; export polls once
    // A malformed endpoint, a shard's or a --store's, is a usage error.
    auto parse = [](const std::string& spec) -> std::optional<net::Endpoint> {
        try {
            return net::parse_endpoint(spec);
        } catch (const std::exception& e) {
            std::cerr << "ehdoe-farm: " << e.what() << "\n";
            return std::nullopt;
        }
    };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--store") {
            const char* v = next();
            if (!v) return usage();
            if (!parse(v)) return 2;
            farm.stores.push_back(v);
        } else if (arg == "--interval" && repeats) {
            // Strict parse: "--interval 5x" must be a usage error, not 5.
            const char* v = next();
            if (!v || !tools::parse_double_arg(v, interval) || interval <= 0.0) return usage();
        } else if (arg == "--count" && repeats) {
            const char* v = next();
            if (!v || !tools::parse_long_arg(v, count) || count <= 0) return usage();
        } else if (arg == "--csv" && view == View::Stats) {
            format = Format::Csv;
        } else if (arg == "--json" && view == View::Stats) {
            format = Format::Json;
        } else if (arg == "--port" && !repeats) {
            const char* v = next();
            std::uint16_t p = 0;
            if (!v || !tools::parse_port_arg(v, p)) return usage();
            port = p;
        } else if (arg == "--host" && !repeats) {
            const char* v = next();
            if (!v) return usage();
            host = v;
        } else if (arg == "--textfile" && !repeats) {
            const char* v = next();
            if (!v) return usage();
            textfile = v;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            const std::optional<net::Endpoint> endpoint = parse(arg);
            if (!endpoint) return 2;
            farm.shards.push_back(*endpoint);
        }
    }
    if (farm.shards.empty() && farm.stores.empty()) return usage();

    if (view == View::Export) {
        if (port && !textfile.empty()) {
            std::cerr << "ehdoe-farm: --port and --textfile are exclusive\n";
            return 2;
        }
        if (port) return serve(host, *port, farm);
        const Poll p = poll_farm(farm);
        const std::string body = exposition(p);
        if (textfile.empty()) {
            std::cout << body;
            std::cout.flush();
        } else if (!write_textfile(textfile, body)) {
            std::cerr << "ehdoe-farm: cannot write '" << textfile << "'\n";
            return 1;
        }
        return p.all_up() ? 0 : 1;
    }

    // stats polls once unless --interval or --count asks for more; --count
    // alone, and top by default, repeat every 2 s.
    if (view == View::Stats && interval == 0.0 && count == 0) count = 1;
    if (interval == 0.0) interval = 2.0;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    bool all_up = true;
    for (long n = 0; !g_stop; ++n) {
        if (n > 0 && view == View::Stats && format != Format::Json) std::cout << "\n";
        const Poll p = poll_farm(farm);
        all_up = p.all_up();
        if (view == View::Top) {
            print_top(p, n);
        } else if (format == Format::Json) {
            std::cout << stats_json(p, n) << std::endl;
        } else {
            print_stats(p, format);
        }
        if (count > 0 && n + 1 >= count) break;
        std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
    return view == View::Stats && !all_up ? 1 : 0;
}
