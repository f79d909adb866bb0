// ehdoe/core/report.hpp
//
// Aligned-column table / CSV emission shared by all benches and examples —
// every reconstructed table and figure series in EXPERIMENTS.md is printed
// through this.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ehdoe::core {

/// A simple text table with typed cell helpers.
class Table {
public:
    explicit Table(std::string title = {});

    Table& headers(std::vector<std::string> names);

    /// Start a new row; subsequent cell() calls append to it.
    Table& row();
    Table& cell(const std::string& text);
    Table& cell(double value, int precision = 4);
    Table& cell(std::size_t value);
    Table& cell(int value);

    std::size_t rows() const { return cells_.size(); }
    std::size_t columns() const { return headers_.size(); }
    const std::string& title() const { return title_; }

    /// Render with aligned columns.
    void print(std::ostream& os) const;
    /// Render as CSV (RFC-ish: quotes around cells containing commas).
    void print_csv(std::ostream& os) const;

private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> cells_;
};

/// Format a double with fixed precision (helper used by benches directly).
std::string format_double(double value, int precision = 4);

/// Format seconds with an adaptive unit (ns/us/ms/s).
std::string format_seconds(double seconds);

/// Append one line to the tracked perf-trajectory ledger
/// `bench/history/<file>` of the source tree this library was built from,
/// whatever the working directory (so a bench of one checkout never writes
/// another checkout's ledger). Falls back to `./<file>` when that directory
/// no longer exists. Returns the path written, or an empty string on I/O
/// failure.
std::string append_history_line(const std::string& file, const std::string& line);

/// The one ledger-emission convention every bench shares: append `line` to
/// the `file` ledger and report the outcome on `os` ("... appended to
/// <path>" or the could-not-append warning). Returns the path written, or
/// an empty string on failure.
std::string append_history_or_warn(const std::string& file, const std::string& line,
                                   std::ostream& os);

}  // namespace ehdoe::core
