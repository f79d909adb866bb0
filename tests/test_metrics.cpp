// The farm health plane's reductions: the straggler test `ehdoe-farm`
// runs over its shards' latency signals, and the Prometheus
// text-exposition helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"

namespace metrics = ehdoe::core::metrics;

TEST(MetricsAlgebra, StragglersCompareEachShardWithTheOthersMedian) {
    using Signals = std::vector<std::optional<double>>;
    using Flags = std::vector<bool>;
    // A sub-microsecond shard reads 0 and still counts: the slow shard is
    // compared with the median of 6 and 0, the fast ones with the slow one.
    EXPECT_EQ(metrics::stragglers(Signals{6.0, 0.0, 49152.0}, 2.0), (Flags{false, false, true}));
    // Two shards: each against the other alone.
    EXPECT_EQ(metrics::stragglers(Signals{3.0, 49152.0}, 2.0), (Flags{false, true}));
    EXPECT_EQ(metrics::stragglers(Signals{0.0, 100.0}, 2.0), (Flags{false, true}));
    EXPECT_EQ(metrics::stragglers(Signals{0.0, 0.0}, 2.0), (Flags{false, false}));
    EXPECT_EQ(metrics::stragglers(Signals{40.0, 20.0}, 2.0), (Flags{false, false}))
        << "exactly twice the other is not more than twice";
    // No signal (down, or no points served) is neither flagged nor a peer.
    EXPECT_EQ(metrics::stragglers(Signals{std::nullopt, 10.0, 100.0}, 2.0),
              (Flags{false, false, true}));
    EXPECT_EQ(metrics::stragglers(Signals{500.0, std::nullopt}, 2.0), (Flags{false, false}))
        << "a single shard has no farm to straggle behind";
    EXPECT_EQ(metrics::stragglers(Signals{}, 2.0), Flags{});
    // Two others average: 70 against the mean of 10 and 30.
    EXPECT_EQ(metrics::stragglers(Signals{10.0, 30.0, 70.0}, 2.0), (Flags{false, false, true}));
    EXPECT_EQ(metrics::stragglers(Signals{10.0, 10.0, 10.0}, 2.0), (Flags{false, false, false}));
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------
TEST(MetricsExposition, EscapesLabelValues) {
    EXPECT_EQ(metrics::escape_label_value("plain"), "plain");
    EXPECT_EQ(metrics::escape_label_value("a\\b"), "a\\\\b");
    EXPECT_EQ(metrics::escape_label_value("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(metrics::escape_label_value("line\nbreak"), "line\\nbreak");
}

TEST(MetricsExposition, RendersHeadersAndSamples) {
    std::string out;
    metrics::append_exposition_header(out, "ehdoe_eval_points_served_total",
                                      "Result frames answered.", "counter");
    metrics::append_sample(out, "ehdoe_eval_points_served_total",
                           {{"endpoint", "127.0.0.1:4217"}}, 42.0);
    metrics::append_sample(out, "ehdoe_up", {}, 1.0);
    EXPECT_EQ(out,
              "# HELP ehdoe_eval_points_served_total Result frames answered.\n"
              "# TYPE ehdoe_eval_points_served_total counter\n"
              "ehdoe_eval_points_served_total{endpoint=\"127.0.0.1:4217\"} 42\n"
              "ehdoe_up 1\n");
}

TEST(MetricsExposition, NonFiniteValuesRenderAsZero) {
    std::string out;
    metrics::append_sample(out, "m", {}, std::nan(""));
    EXPECT_EQ(out, "m 0\n");
}
