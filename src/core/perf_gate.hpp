// ehdoe/core/perf_gate.hpp
//
// The CI performance gate: parse the bench ledgers (bench/history/*.jsonl,
// one JSON object per line) and fail when a tracked metric regresses below
// its threshold. Thresholds live in a reviewed gate file (gates.json), so
// raising the bar is a diff, not a CI-config edit:
//
//   {
//     "farm.jsonl": {
//       "require_true": ["contract_ok", "hetero.identical"],
//       "require_eq":   {"sweep[2].backend": "remote x1",
//                        "sweep[2].points_served": 45},
//       "min":          {"sweep[2].speedup": 0.95},
//       "max":          {"sweep[2].latency_p99_us": 500000}
//     }
//   }
//
// Checks per ledger (all paths are dotted with [i] array indexing):
//   require_true — the field must exist and be boolean true (the
//                  determinism contract bits);
//   require_eq   — the field must equal the given string/number/bool
//                  (anchors positional paths to the row they mean);
//   min          — the field must be a number >= the threshold;
//   max          — the field must be a number <= the threshold (latency
//                  percentile ceilings and other lower-is-better metrics).
// A ledger named by the gate file but absent from the history — or a line
// that fails to parse — is itself a violation: a bench that silently
// stopped writing its ledger must not pass the gate.
//
// The JSON subset parser below handles exactly what the ledgers and the
// gate file use (objects, arrays, strings, numbers, bools, null); it
// exists so the gate needs no external JSON dependency.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ehdoe::core {

/// One parsed JSON value (tree-owning; object keys keep insertion order).
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// Object member by key; nullptr when absent or not an object.
    const JsonValue* find(const std::string& key) const;
};

/// Parse one JSON document; throws std::runtime_error with a byte offset
/// on malformed input.
JsonValue parse_json(const std::string& text);

/// Resolve a dotted/indexed path ("sweep[1].speedup") against a value;
/// nullptr when any step is absent or mistyped.
const JsonValue* json_lookup(const JsonValue& root, const std::string& path);

/// Append `text` as the body of a JSON string (no surrounding quotes):
/// quotes and backslashes escaped, \n \r \t by name, every other control
/// byte as \u00XX. The escaper of every JSON writer in the repository
/// (traces, the event journal, merged traces, ehdoe-farm stats --json).
void append_json_escaped(std::string& out, const std::string& text);

struct GateViolation {
    std::string ledger;   ///< gate-file key (ledger filename)
    std::string path;     ///< field the failed check addressed ("" = the ledger)
    std::string message;  ///< human diagnosis
};

struct GateReport {
    std::size_t checks = 0;  ///< individual checks evaluated
    std::vector<GateViolation> violations;
    bool ok() const { return violations.empty(); }
};

/// Evaluate a parsed gate file against the freshest line of each ledger it
/// names: `ledger_lines` maps ledger filename -> last ledger line (an
/// absent key means the ledger is missing, itself a violation).
GateReport check_gates(const JsonValue& gates,
                       const std::map<std::string, std::string>& ledger_lines);

}  // namespace ehdoe::core
