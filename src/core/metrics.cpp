#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ehdoe::core::metrics {

namespace {

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n % 2 == 1) return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

std::vector<bool> stragglers(const std::vector<std::optional<double>>& signals, double k) {
    std::vector<bool> flags(signals.size(), false);
    std::vector<double> others;
    for (std::size_t i = 0; i < signals.size(); ++i) {
        if (!signals[i]) continue;
        others.clear();
        for (std::size_t j = 0; j < signals.size(); ++j) {
            if (j != i && signals[j]) others.push_back(*signals[j]);
        }
        flags[i] = !others.empty() && *signals[i] > k * median(others);
    }
    return flags;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

namespace {

/// %.17g (round-trip exact); exposition has no NaN/Inf story a scraper
/// must accept, so non-finite collapses to 0 like the telemetry JSON.
std::string format_value(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

std::string escape_label_value(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\') {
            out += "\\\\";
        } else if (c == '"') {
            out += "\\\"";
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

void append_exposition_header(std::string& out, const std::string& name,
                              const std::string& help, const std::string& type) {
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " " + type + "\n";
}

void append_sample(std::string& out, const std::string& name,
                   const std::vector<std::pair<std::string, std::string>>& labels,
                   double value) {
    out += name;
    if (!labels.empty()) {
        out += '{';
        bool first = true;
        for (const auto& [key, label_value] : labels) {
            if (!first) out += ',';
            first = false;
            out += key + "=\"" + escape_label_value(label_value) + "\"";
        }
        out += '}';
    }
    out += ' ';
    out += format_value(value);
    out += '\n';
}

}  // namespace ehdoe::core::metrics
