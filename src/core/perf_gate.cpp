#include "core/perf_gate.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace ehdoe::core {

const JsonValue* JsonValue::find(const std::string& key) const {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [k, v] : object) {
        if (k == key) return &v;
    }
    return nullptr;
}

namespace {

/// Recursive-descent parser over the ledger/gate JSON subset. Tracks the
/// byte offset for error messages; depth-bounded so a hostile file cannot
/// blow the stack.
class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    JsonValue parse() {
        JsonValue v = value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing content after document");
        return v;
    }

private:
    static constexpr std::size_t kMaxDepth = 64;

    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json: " + what + " at byte " + std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* literal) {
        std::size_t n = 0;
        while (literal[n] != '\0') ++n;
        if (text_.compare(pos_, n, literal) != 0) return false;
        pos_ += n;
        return true;
    }

    JsonValue value(std::size_t depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        skip_ws();
        const char c = peek();
        JsonValue v;
        switch (c) {
            case '{': {
                ++pos_;
                v.kind = JsonValue::Kind::Object;
                skip_ws();
                if (peek() == '}') {
                    ++pos_;
                    return v;
                }
                for (;;) {
                    skip_ws();
                    std::string key = string_token();
                    skip_ws();
                    expect(':');
                    v.object.emplace_back(std::move(key), value(depth + 1));
                    skip_ws();
                    if (peek() == ',') {
                        ++pos_;
                        continue;
                    }
                    expect('}');
                    return v;
                }
            }
            case '[': {
                ++pos_;
                v.kind = JsonValue::Kind::Array;
                skip_ws();
                if (peek() == ']') {
                    ++pos_;
                    return v;
                }
                for (;;) {
                    v.array.push_back(value(depth + 1));
                    skip_ws();
                    if (peek() == ',') {
                        ++pos_;
                        continue;
                    }
                    expect(']');
                    return v;
                }
            }
            case '"':
                v.kind = JsonValue::Kind::String;
                v.string = string_token();
                return v;
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                v.kind = JsonValue::Kind::Bool;
                v.boolean = true;
                return v;
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                v.kind = JsonValue::Kind::Bool;
                v.boolean = false;
                return v;
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return v;
            default:
                return number_token();
        }
    }

    std::string string_token() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    // The ledgers are ASCII; pass BMP escapes through as
                    // raw codepoint bytes only when they fit one byte.
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    const unsigned long code =
                        std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
                    pos_ += 4;
                    if (code > 0xFF) fail("non-ASCII \\u escape unsupported");
                    out.push_back(static_cast<char>(code));
                    break;
                }
                default: fail("bad escape");
            }
        }
    }

    JsonValue number_token() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
        bool digits = false;
        auto eat_digits = [&] {
            while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                digits = true;
            }
        };
        eat_digits();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            eat_digits();
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
            eat_digits();
        }
        if (!digits) fail("bad number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
        return v;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return JsonParser(text).parse(); }

void append_json_escaped(std::string& out, const std::string& text) {
    for (const char c : text) {
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
}

const JsonValue* json_lookup(const JsonValue& root, const std::string& path) {
    const JsonValue* at = &root;
    std::size_t pos = 0;
    while (pos < path.size()) {
        if (path[pos] == '.') {
            ++pos;
            continue;
        }
        if (path[pos] == '[') {
            const auto close = path.find(']', pos);
            if (close == std::string::npos) return nullptr;
            char* end = nullptr;
            const std::string index_text = path.substr(pos + 1, close - pos - 1);
            const unsigned long index = std::strtoul(index_text.c_str(), &end, 10);
            if (index_text.empty() || *end != '\0') return nullptr;
            if (at->kind != JsonValue::Kind::Array || index >= at->array.size())
                return nullptr;
            at = &at->array[index];
            pos = close + 1;
            continue;
        }
        std::size_t stop = pos;
        while (stop < path.size() && path[stop] != '.' && path[stop] != '[') ++stop;
        at = at->find(path.substr(pos, stop - pos));
        if (!at) return nullptr;
        pos = stop;
    }
    return at;
}

namespace {

std::string describe(const JsonValue& v) {
    switch (v.kind) {
        case JsonValue::Kind::Null: return "null";
        case JsonValue::Kind::Bool: return v.boolean ? "true" : "false";
        case JsonValue::Kind::Number: return std::to_string(v.number);
        case JsonValue::Kind::String: return "'" + v.string + "'";
        case JsonValue::Kind::Array: return "<array>";
        case JsonValue::Kind::Object: return "<object>";
    }
    return "<?>";
}

}  // namespace

GateReport check_gates(const JsonValue& gates,
                       const std::map<std::string, std::string>& ledger_lines) {
    GateReport report;
    auto violate = [&](const std::string& ledger, const std::string& path,
                       const std::string& message) {
        report.violations.push_back({ledger, path, message});
    };

    if (gates.kind != JsonValue::Kind::Object) {
        violate("", "", "gate file is not a JSON object");
        return report;
    }

    for (const auto& [ledger, spec] : gates.object) {
        const auto line = ledger_lines.find(ledger);
        if (line == ledger_lines.end()) {
            ++report.checks;
            violate(ledger, "", "ledger missing from the bench history");
            continue;
        }
        JsonValue entry;
        try {
            entry = parse_json(line->second);
        } catch (const std::exception& e) {
            ++report.checks;
            violate(ledger, "", std::string("ledger line does not parse: ") + e.what());
            continue;
        }

        if (const JsonValue* require_true = spec.find("require_true")) {
            for (const JsonValue& p : require_true->array) {
                ++report.checks;
                const JsonValue* v = json_lookup(entry, p.string);
                if (!v) {
                    violate(ledger, p.string, "required field is missing");
                } else if (v->kind != JsonValue::Kind::Bool || !v->boolean) {
                    violate(ledger, p.string, "expected true, found " + describe(*v));
                }
            }
        }
        if (const JsonValue* require_eq = spec.find("require_eq")) {
            for (const auto& [path, want] : require_eq->object) {
                ++report.checks;
                const JsonValue* v = json_lookup(entry, path);
                if (!v) {
                    violate(ledger, path, "required field is missing");
                    continue;
                }
                const bool equal =
                    v->kind == want.kind &&
                    ((want.kind == JsonValue::Kind::String && v->string == want.string) ||
                     (want.kind == JsonValue::Kind::Number && v->number == want.number) ||
                     (want.kind == JsonValue::Kind::Bool && v->boolean == want.boolean));
                if (!equal)
                    violate(ledger, path,
                            "expected " + describe(want) + ", found " + describe(*v));
            }
        }
        if (const JsonValue* min = spec.find("min")) {
            for (const auto& [path, threshold] : min->object) {
                ++report.checks;
                const JsonValue* v = json_lookup(entry, path);
                if (!v || v->kind != JsonValue::Kind::Number) {
                    violate(ledger, path, "required numeric field is missing");
                } else if (v->number < threshold.number) {
                    violate(ledger, path,
                            std::to_string(v->number) + " is below the gate threshold " +
                                std::to_string(threshold.number));
                }
            }
        }
        if (const JsonValue* max = spec.find("max")) {
            for (const auto& [path, threshold] : max->object) {
                ++report.checks;
                const JsonValue* v = json_lookup(entry, path);
                if (!v || v->kind != JsonValue::Kind::Number) {
                    violate(ledger, path, "required numeric field is missing");
                } else if (v->number > threshold.number) {
                    violate(ledger, path,
                            std::to_string(v->number) + " is above the gate threshold " +
                                std::to_string(threshold.number));
                }
            }
        }
    }
    return report;
}

}  // namespace ehdoe::core
