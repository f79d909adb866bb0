// Strict numeric flag parsing shared by the daemon CLIs.
//
// atoi folds garbage, trailing junk and out-of-range values into silently
// wrong configs ("--port 70000" truncates mod 2^16, "--workers banana"
// becomes 0); a daemon must refuse such flags loudly instead. Every parser
// here demands that the *whole* argument is one in-range decimal integer.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace ehdoe::tools {

/// The whole of `text` as a decimal long; false on empty input, trailing
/// junk or overflow.
inline bool parse_long_arg(const char* text, long& out) {
    if (!text || *text == '\0') return false;
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (*end != '\0' || errno == ERANGE) return false;
    out = value;
    return true;
}

/// A TCP port: an integer in [0, 65535] (0 = ephemeral).
inline bool parse_port_arg(const char* text, std::uint16_t& out) {
    long value = 0;
    if (!parse_long_arg(text, value) || value < 0 || value > 65535) return false;
    out = static_cast<std::uint16_t>(value);
    return true;
}

/// A count with an inclusive lower bound (workers >= 1, bytes >= 4096, ...).
inline bool parse_count_arg(const char* text, long min_value, std::size_t& out) {
    long value = 0;
    if (!parse_long_arg(text, value) || value < min_value) return false;
    out = static_cast<std::size_t>(value);
    return true;
}

/// The whole of `text` as one finite decimal double ("2", "0.5", "1e-3");
/// false on empty input, trailing junk ("4x17"), overflow, "inf" or "nan".
inline bool parse_double_arg(const char* text, double& out) {
    if (!text || *text == '\0') return false;
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (*end != '\0' || errno == ERANGE || !std::isfinite(value)) return false;
    out = value;
    return true;
}

}  // namespace ehdoe::tools
