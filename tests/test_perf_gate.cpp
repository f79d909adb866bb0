// The CI performance gate: the JSON-subset parser, dotted/indexed path
// lookup, and the gate checker itself — including the mandatory proof that
// a synthetic regressed ledger line actually FAILS the tracked thresholds
// (a gate that cannot fail guards nothing).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/perf_gate.hpp"

using namespace ehdoe::core;

namespace {

/// A synthetic gate spec in the shape of the tracked remote-x1 checks: two
/// contract bits, a row anchor and a speedup floor.
const char* kT8Gates = R"({
  "t8_remote.jsonl": {
    "require_true": ["contract_ok", "hetero.identical"],
    "require_eq": {"sweep[1].backend": "remote x1"},
    "min": {"sweep[1].speedup": 0.95}
  }
})";

/// A healthy line for kT8Gates, with the remote-x1 row at index 1.
std::string t8_line(double remote_x1_speedup, bool contract_ok = true,
                    bool identical = true) {
    return std::string("{\"bench\": \"t8_remote\", \"contract_ok\": ") +
           (contract_ok ? "true" : "false") +
           ", \"sweep\": ["
           "{\"backend\": \"in-process x1 (reference)\", \"speedup\": 1}, "
           "{\"backend\": \"remote x1\", \"speedup\": " +
           std::to_string(remote_x1_speedup) +
           "}], \"hetero\": {\"identical\": " + (identical ? "true" : "false") + "}}";
}

}  // namespace

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------
TEST(JsonParser, ParsesScalarsArraysAndObjects) {
    const JsonValue v = parse_json(
        R"({"s": "a\"b", "n": -2.5e2, "b": true, "z": null, "a": [1, 2, 3]})");
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    EXPECT_EQ(v.find("s")->string, "a\"b");
    EXPECT_EQ(v.find("n")->number, -250.0);
    EXPECT_TRUE(v.find("b")->boolean);
    EXPECT_EQ(v.find("z")->kind, JsonValue::Kind::Null);
    ASSERT_EQ(v.find("a")->array.size(), 3u);
    EXPECT_EQ(v.find("a")->array[2].number, 3.0);
}

TEST(JsonParser, RejectsMalformedInput) {
    EXPECT_THROW(parse_json("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parse_json("{\"a\": 1} trailing"), std::runtime_error);
    EXPECT_THROW(parse_json("[1, 2"), std::runtime_error);
    EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
    // Nesting deeper than the stack guard allows.
    std::string deep;
    for (int i = 0; i < 100; ++i) deep += "[";
    EXPECT_THROW(parse_json(deep), std::runtime_error);
}

TEST(JsonLookup, ResolvesDottedAndIndexedPaths) {
    const JsonValue v =
        parse_json(R"({"sweep": [{"speedup": 1.0}, {"speedup": 0.97}], "a": {"b": 7}})");
    ASSERT_NE(json_lookup(v, "sweep[1].speedup"), nullptr);
    EXPECT_EQ(json_lookup(v, "sweep[1].speedup")->number, 0.97);
    EXPECT_EQ(json_lookup(v, "a.b")->number, 7.0);
    EXPECT_EQ(json_lookup(v, "sweep[2].speedup"), nullptr);
    EXPECT_EQ(json_lookup(v, "a.missing"), nullptr);
    EXPECT_EQ(json_lookup(v, "a[0]"), nullptr);  // object indexed as array
}

// ---------------------------------------------------------------------------
// Gate checker
// ---------------------------------------------------------------------------
TEST(PerfGate, HealthyLedgerPasses) {
    const JsonValue gates = parse_json(kT8Gates);
    const GateReport report =
        check_gates(gates, {{"t8_remote.jsonl", t8_line(0.99)}});
    EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                     ? ""
                                     : report.violations[0].message);
    EXPECT_EQ(report.checks, 4u);
}

TEST(PerfGate, RegressedSpeedupFailsTheGate) {
    // The acceptance case: a synthetic regressed line (remote x1 at half the
    // in-process throughput) must trip the tracked 0.95 threshold.
    const JsonValue gates = parse_json(kT8Gates);
    const GateReport report =
        check_gates(gates, {{"t8_remote.jsonl", t8_line(0.5)}});
    ASSERT_FALSE(report.ok());
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].path, "sweep[1].speedup");
    EXPECT_NE(report.violations[0].message.find("below the gate threshold"),
              std::string::npos);
}

TEST(PerfGate, BrokenContractFailsTheGate) {
    const JsonValue gates = parse_json(kT8Gates);
    const GateReport broken_contract =
        check_gates(gates, {{"t8_remote.jsonl", t8_line(0.99, false)}});
    ASSERT_EQ(broken_contract.violations.size(), 1u);
    EXPECT_EQ(broken_contract.violations[0].path, "contract_ok");

    const GateReport divergent =
        check_gates(gates, {{"t8_remote.jsonl", t8_line(0.99, true, false)}});
    ASSERT_EQ(divergent.violations.size(), 1u);
    EXPECT_EQ(divergent.violations[0].path, "hetero.identical");
}

TEST(PerfGate, ReorderedSweepRowIsCaughtByTheAnchor) {
    // If the bench ever reorders its sweep, the positional speedup path
    // would silently gate the wrong row — the require_eq anchor catches it.
    const JsonValue gates = parse_json(kT8Gates);
    const std::string line =
        "{\"contract_ok\": true, \"sweep\": ["
        "{\"backend\": \"remote x1\", \"speedup\": 0.97}, "
        "{\"backend\": \"in-process x1 (reference)\", \"speedup\": 1}], "
        "\"hetero\": {\"identical\": true}}";
    const GateReport report = check_gates(gates, {{"t8_remote.jsonl", line}});
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.violations[0].path, "sweep[1].backend");
}

TEST(PerfGate, MaxCheckGatesLatencyCeilings) {
    // The `max` kind is the mirror of `min`: percentile latency ledger
    // fields must stay BELOW a ceiling. At the threshold passes, above
    // fails, and a missing field is a violation of its own.
    const JsonValue gates = parse_json(
        R"({"t8_remote.jsonl": {"max": {"latency.p99_us": 5000}}})");

    const GateReport healthy = check_gates(
        gates, {{"t8_remote.jsonl", "{\"latency\": {\"p99_us\": 5000}}"}});
    EXPECT_TRUE(healthy.ok()) << (healthy.violations.empty()
                                      ? ""
                                      : healthy.violations[0].message);
    EXPECT_EQ(healthy.checks, 1u);

    const GateReport regressed = check_gates(
        gates, {{"t8_remote.jsonl", "{\"latency\": {\"p99_us\": 5000.5}}"}});
    ASSERT_EQ(regressed.violations.size(), 1u);
    EXPECT_EQ(regressed.violations[0].path, "latency.p99_us");
    EXPECT_NE(regressed.violations[0].message.find("above the gate threshold"),
              std::string::npos);

    const GateReport missing =
        check_gates(gates, {{"t8_remote.jsonl", "{\"latency\": {}}"}});
    ASSERT_EQ(missing.violations.size(), 1u);
    EXPECT_EQ(missing.violations[0].path, "latency.p99_us");
}

TEST(PerfGate, MissingLedgerIsItselfAViolation) {
    const JsonValue gates = parse_json(kT8Gates);
    const GateReport report = check_gates(gates, {});
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].ledger, "t8_remote.jsonl");
    EXPECT_NE(report.violations[0].message.find("missing"), std::string::npos);
}

TEST(PerfGate, UnparseableLedgerLineIsAViolation) {
    const JsonValue gates = parse_json(kT8Gates);
    const GateReport report =
        check_gates(gates, {{"t8_remote.jsonl", "not json at all"}});
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_NE(report.violations[0].message.find("does not parse"),
              std::string::npos);
}

TEST(PerfGate, MissingFieldsAreViolations) {
    const JsonValue gates = parse_json(kT8Gates);
    const GateReport report =
        check_gates(gates, {{"t8_remote.jsonl", "{\"bench\": \"t8_remote\"}"}});
    // All four checks fail: two require_true, the anchor, and the min.
    EXPECT_EQ(report.violations.size(), 4u);
}

#ifdef EHDOE_TRACKED_GATES
// The tracked bench/history/gates.json itself must parse and name only
// well-formed specs — a bad gate file must never reach CI green.
TEST(PerfGate, TrackedGateFileParses) {
    std::ifstream in(EHDOE_TRACKED_GATES);
    ASSERT_TRUE(in) << "cannot open " << EHDOE_TRACKED_GATES;
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue gates = parse_json(text.str());
    ASSERT_EQ(gates.kind, JsonValue::Kind::Object);
    const JsonValue* t1 = gates.find("t1_engines.jsonl");
    ASSERT_NE(t1, nullptr);
    // T1's equal-accuracy errors are bit-deterministic: capped at their
    // committed values, any change that moves them fails the gate.
    const JsonValue* t1_caps = t1->find("max");
    ASSERT_NE(t1_caps, nullptr);
    for (const char* path : {"equal_accuracy.nr_error", "equal_accuracy.pwl_error"}) {
        const JsonValue* cap = t1_caps->find(path);
        ASSERT_NE(cap, nullptr) << path;
        EXPECT_EQ(cap->kind, JsonValue::Kind::Number) << path;
    }
    EXPECT_NE(gates.find("t5_optim.jsonl"), nullptr);

    // T3's hold-out accuracy is bit-deterministic too: each of its 18 rows
    // (three scenarios, six responses in name order) pins its scenario and
    // response, caps its NRMSE/range and floors its hold-out R2.
    const JsonValue* t3 = gates.find("t3_accuracy.jsonl");
    ASSERT_NE(t3, nullptr);
    const JsonValue* t3_eq = t3->find("require_eq");
    const JsonValue* t3_max = t3->find("max");
    const JsonValue* t3_min = t3->find("min");
    ASSERT_TRUE(t3_eq && t3_max && t3_min);
    const char* scenarios[] = {"S1-office-hvac", "S2-industrial", "S3-transport"};
    const char* responses[] = {"E_cons", "E_harv", "E_tune", "V_min", "downtime", "packets"};
    for (std::size_t i = 0; i < 18; ++i) {
        const std::string row = "rows[" + std::to_string(i) + "].";
        const JsonValue* scenario = t3_eq->find(row + "scenario");
        const JsonValue* response = t3_eq->find(row + "response");
        ASSERT_TRUE(scenario && response) << row;
        EXPECT_EQ(scenario->string, scenarios[i / 6]) << row;
        EXPECT_EQ(response->string, responses[i % 6]) << row;
        const JsonValue* cap = t3_max->find(row + "nrmse_range");
        const JsonValue* floor = t3_min->find(row + "val_r2");
        EXPECT_TRUE(cap && cap->kind == JsonValue::Kind::Number) << row;
        EXPECT_TRUE(floor && floor->kind == JsonValue::Kind::Number) << row;
    }

    // The farm bench's block: both contract bits, the remote-x1 floor and
    // the latency ceilings at their bounds, and every row's label and exact
    // counters. The ledgers it retired are no longer gated.
    const JsonValue* farm = gates.find("farm.jsonl");
    ASSERT_NE(farm, nullptr);
    const JsonValue* bits = farm->find("require_true");
    ASSERT_NE(bits, nullptr);
    ASSERT_EQ(bits->array.size(), 2u);
    EXPECT_EQ(bits->array[0].string, "contract_ok");
    EXPECT_EQ(bits->array[1].string, "hetero.identical");
    auto number = [&](const char* kind, const std::string& path) {
        const JsonValue* checks = farm->find(kind);
        const JsonValue* v = checks ? checks->find(path) : nullptr;
        EXPECT_TRUE(v && v->kind == JsonValue::Kind::Number) << kind << " " << path;
        return v && v->kind == JsonValue::Kind::Number ? v->number : -1.0;
    };
    EXPECT_EQ(number("min", "sweep[2].speedup"), 0.95);
    EXPECT_EQ(number("max", "sweep[2].latency_p99_us"), 500000.0);
    EXPECT_EQ(number("max", "sweep[5].latency_p99_us"), 1000000.0);
    const struct {
        const char* label;
        std::map<std::string, double> counters;
    } rows[] = {
        {"in-process x1 (reference)", {{"simulations", 45}, {"cache_hits", 3}}},
        {"in-process xN", {{"simulations", 45}, {"cache_hits", 3}}},
        {"remote x1", {{"simulations", 45}, {"points_served", 45}}},
        {"remote x2", {{"simulations", 45}, {"points_served", 45}}},
        {"remote x4", {{"simulations", 45}, {"points_served", 45}}},
        {"exec", {{"simulations", 45}, {"launches", 45}}},
        {"exec over remote", {{"simulations", 45}, {"points_served", 45}}},
        {"cold (store+snapshot)",
         {{"simulations", 45}, {"store_keys", 45}, {"store_gets", 45}, {"store_hits", 0},
          {"store_puts", 45}}},
        {"store warm",
         {{"simulations", 0}, {"cache_hits", 48}, {"store_gets", 45}, {"store_hits", 45},
          {"store_puts", 0}}},
        {"snapshot warm", {{"simulations", 0}, {"cache_hits", 48}}},
        {"remote x1 (4 workers)", {{"simulations", 45}, {"points_served", 45}}},
    };
    const JsonValue* eq = farm->find("require_eq");
    ASSERT_NE(eq, nullptr);
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const std::string row = "sweep[" + std::to_string(i) + "].";
        const JsonValue* label = eq->find(row + "backend");
        ASSERT_NE(label, nullptr) << row;
        EXPECT_EQ(label->string, rows[i].label);
        for (const auto& [name, value] : rows[i].counters) {
            EXPECT_EQ(number("require_eq", row + name), value) << row << name;
        }
    }
    for (const char* retired : {"t8_remote.jsonl", "t9_exec.jsonl", "t10_store.jsonl"}) {
        EXPECT_EQ(gates.find(retired), nullptr) << retired;
    }
}
#endif
