#include "core/trace_merge.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/perf_gate.hpp"

namespace ehdoe::core {

namespace {

void append_number(std::string& out, double v) {
    // Integers (timestamps, counts) print without an exponent or trailing
    // zeros; everything else keeps full double precision.
    if (v == std::floor(v) && std::abs(v) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void append_json(std::string& out, const JsonValue& v) {
    switch (v.kind) {
        case JsonValue::Kind::Null: out += "null"; break;
        case JsonValue::Kind::Bool: out += v.boolean ? "true" : "false"; break;
        case JsonValue::Kind::Number: append_number(out, v.number); break;
        case JsonValue::Kind::String:
            out += '"';
            append_json_escaped(out, v.string);
            out += '"';
            break;
        case JsonValue::Kind::Array:
            out += '[';
            for (std::size_t i = 0; i < v.array.size(); ++i) {
                if (i) out += ',';
                append_json(out, v.array[i]);
            }
            out += ']';
            break;
        case JsonValue::Kind::Object:
            out += '{';
            for (std::size_t i = 0; i < v.object.size(); ++i) {
                if (i) out += ',';
                out += '"';
                append_json_escaped(out, v.object[i].first);
                out += "\":";
                append_json(out, v.object[i].second);
            }
            out += '}';
            break;
    }
}

JsonValue* find_mut(JsonValue& v, const std::string& key) {
    if (v.kind != JsonValue::Kind::Object) return nullptr;
    for (auto& [k, member] : v.object) {
        if (k == key) return &member;
    }
    return nullptr;
}

std::string get_string(const JsonValue& obj, const char* key) {
    const JsonValue* v = obj.find(key);
    return v && v->kind == JsonValue::Kind::String ? v->string : std::string();
}

double get_number(const JsonValue& obj, const char* key, double fallback = 0.0) {
    const JsonValue* v = obj.find(key);
    return v && v->kind == JsonValue::Kind::Number ? v->number : fallback;
}

void set_number(JsonValue& obj, const std::string& key, double value) {
    if (JsonValue* v = find_mut(obj, key)) {
        v->kind = JsonValue::Kind::Number;
        v->number = value;
        return;
    }
    JsonValue n;
    n.kind = JsonValue::Kind::Number;
    n.number = value;
    obj.object.emplace_back(key, std::move(n));
}

/// The traceEvents array of one parsed trace; throws naming `label`.
std::vector<JsonValue> take_events(JsonValue&& root, const std::string& label) {
    JsonValue* events = find_mut(root, "traceEvents");
    if (!events || events->kind != JsonValue::Kind::Array)
        throw std::runtime_error("trace " + label + ": no traceEvents array");
    return std::move(events->array);
}

/// ":port" suffix of an endpoint label ("" when there is none).
std::string port_suffix(const std::string& endpoint) {
    const auto colon = endpoint.rfind(':');
    return colon == std::string::npos ? std::string() : endpoint.substr(colon);
}

std::string format_ms(double us) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.1f", us / 1000.0);
    return buf;
}

/// Look an endpoint up in the client's handshake anchors: exact label
/// first, then a unique ":port" suffix match (a 0.0.0.0 bind dialled via a
/// concrete address).
std::int64_t anchor_offset(const std::map<std::string, std::int64_t>& offset_of,
                           const std::string& endpoint, bool& anchored) {
    anchored = false;
    if (const auto exact = offset_of.find(endpoint); exact != offset_of.end()) {
        anchored = true;
        return exact->second;
    }
    if (const std::string port = port_suffix(endpoint); !port.empty()) {
        std::int64_t offset = 0;
        std::size_t matches = 0;
        for (const auto& [ep, off] : offset_of) {
            if (port_suffix(ep) == port) {
                offset = off;
                ++matches;
            }
        }
        if (matches == 1) {
            anchored = true;
            return offset;
        }
    }
    return 0;
}

}  // namespace

TraceMergeResult merge_traces(const std::string& client_json,
                              const std::vector<std::string>& server_jsons) {
    TraceMergeResult result;

    std::vector<JsonValue> client_events =
        take_events(parse_json(client_json), "client");
    result.client_events = client_events.size();

    // Clock anchors: the client handshake span per endpoint (the last one
    // wins — a re-dialled shard's newest sample is the freshest anchor).
    std::map<std::string, std::int64_t> offset_of;  // endpoint -> offset_us
    struct BatchWindow {
        std::int64_t start, end;
    };
    std::vector<BatchWindow> batch_windows;
    struct EvalSpan {
        std::int64_t start, dur, pid;
    };
    std::vector<EvalSpan> evals;
    struct ReceiveSpan {
        std::int64_t start, dur;
    };
    std::vector<ReceiveSpan> receives;

    for (JsonValue& ev : client_events) {
        set_number(ev, "pid", 1.0);
        const std::string name = get_string(ev, "name");
        const JsonValue* a = ev.find("args");
        if (name == "handshake" && a) {
            const std::string endpoint = get_string(*a, "endpoint");
            if (const JsonValue* off = a->find("offset_us");
                !endpoint.empty() && off && off->kind == JsonValue::Kind::Number) {
                offset_of[endpoint] = static_cast<std::int64_t>(std::llround(off->number));
            }
        } else if (name == "batch") {
            const auto ts = static_cast<std::int64_t>(std::llround(get_number(ev, "ts")));
            const auto dur = static_cast<std::int64_t>(std::llround(get_number(ev, "dur")));
            batch_windows.push_back({ts, ts + dur});
            ++result.batches;
        } else if (name == "receive") {
            const auto ts = static_cast<std::int64_t>(std::llround(get_number(ev, "ts")));
            const auto dur = static_cast<std::int64_t>(std::llround(get_number(ev, "dur")));
            receives.push_back({ts, dur});
        }
    }

    std::vector<JsonValue> merged = std::move(client_events);

    for (std::size_t k = 0; k < server_jsons.size(); ++k) {
        const std::string label = "server #" + std::to_string(k);
        std::vector<JsonValue> events = take_events(parse_json(server_jsons[k]), label);
        result.server_events += events.size();

        // Which client endpoint is this server? Its "listening" instant
        // says what it bound.
        std::string endpoint;
        for (const JsonValue& ev : events) {
            if (get_string(ev, "name") == "listening") {
                if (const JsonValue* a = ev.find("args")) endpoint = get_string(*a, "endpoint");
                if (!endpoint.empty()) break;
            }
        }
        bool anchored = false;
        const std::int64_t offset = anchor_offset(offset_of, endpoint, anchored);
        if (!anchored) {
            result.warnings.push_back(
                label + (endpoint.empty() ? "" : " (" + endpoint + ")") +
                ": no clock anchor in the client trace (no \"listening\" instant, or "
                "an endpoint the client never dialled) — merged unshifted");
        }

        const double pid = static_cast<double>(2 + k);
        for (JsonValue& ev : events) {
            set_number(ev, "pid", pid);
            if (const JsonValue* ts = ev.find("ts"); ts && ts->kind == JsonValue::Kind::Number) {
                set_number(ev, "ts", ts->number + static_cast<double>(offset));
            }
            if (get_string(ev, "name") == "eval" && get_string(ev, "ph") == "X") {
                evals.push_back(
                    {static_cast<std::int64_t>(std::llround(get_number(ev, "ts"))),
                     static_cast<std::int64_t>(std::llround(get_number(ev, "dur"))),
                     static_cast<std::int64_t>(pid)});
                ++result.eval_spans;
            }
            merged.push_back(std::move(ev));
        }
    }

    std::stable_sort(merged.begin(), merged.end(), [](const JsonValue& a, const JsonValue& b) {
        return get_number(a, "ts") < get_number(b, "ts");
    });

    result.json.reserve(merged.size() * 96 + 32);
    result.json += "{\"traceEvents\":[";
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (i) result.json += ',';
        append_json(result.json, merged[i]);
    }
    result.json += "]}\n";

    // Per-batch critical path: what each client batch span covered. The
    // busiest shard's busy time is the lower bound a perfect overlap could
    // reach; the longest receive is what the client actually waited on.
    std::sort(batch_windows.begin(), batch_windows.end(),
              [](const BatchWindow& a, const BatchWindow& b) { return a.start < b.start; });
    std::ostringstream summary;
    for (std::size_t b = 0; b < batch_windows.size(); ++b) {
        const BatchWindow& w = batch_windows[b];
        std::map<std::int64_t, std::int64_t> busy_of;  // pid -> summed eval us
        std::size_t n_evals = 0;
        for (const EvalSpan& e : evals) {
            if (e.start >= w.start && e.start < w.end) {
                busy_of[e.pid] += e.dur;
                ++n_evals;
            }
        }
        std::int64_t busiest = 0;
        for (const auto& [pid, busy] : busy_of) busiest = std::max(busiest, busy);
        std::int64_t max_receive = 0;
        for (const ReceiveSpan& r : receives) {
            if (r.start >= w.start && r.start < w.end) max_receive = std::max(max_receive, r.dur);
        }
        summary << "batch " << b << ": " << format_ms(static_cast<double>(w.end - w.start))
                << " ms wall, " << n_evals << " server evals";
        if (!busy_of.empty()) {
            summary << " across " << busy_of.size() << " shard(s), busiest shard "
                    << format_ms(static_cast<double>(busiest)) << " ms busy";
        }
        if (max_receive > 0) {
            summary << ", longest receive " << format_ms(static_cast<double>(max_receive))
                    << " ms";
        }
        summary << "\n";
    }
    result.summary = summary.str();
    return result;
}

TraceMergeResult merge_trace_files(const std::string& client_path,
                                   const std::vector<std::string>& server_paths) {
    auto slurp = [](const std::string& path) {
        std::ifstream in(path, std::ios::binary);
        if (!in) throw std::runtime_error("cannot read trace file '" + path + "'");
        std::ostringstream body;
        body << in.rdbuf();
        return body.str();
    };
    std::vector<std::string> servers;
    servers.reserve(server_paths.size());
    for (const std::string& path : server_paths) servers.push_back(slurp(path));
    return merge_traces(slurp(client_path), servers);
}

}  // namespace ehdoe::core
