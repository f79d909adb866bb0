#include "core/report.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ehdoe::core {

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::headers(std::vector<std::string> names) {
    headers_ = std::move(names);
    return *this;
}

Table& Table::row() {
    cells_.emplace_back();
    return *this;
}

Table& Table::cell(const std::string& text) {
    if (cells_.empty()) row();
    cells_.back().push_back(text);
    return *this;
}

Table& Table::cell(double value, int precision) {
    return cell(format_double(value, precision));
}

Table& Table::cell(std::size_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t j = 0; j < headers_.size(); ++j) width[j] = headers_[j].size();
    for (const auto& r : cells_) {
        for (std::size_t j = 0; j < r.size(); ++j) {
            if (j >= width.size()) width.resize(j + 1, 0);
            width[j] = std::max(width[j], r[j].size());
        }
    }

    if (!title_.empty()) os << "== " << title_ << " ==\n";
    auto print_row = [&](const std::vector<std::string>& r) {
        for (std::size_t j = 0; j < width.size(); ++j) {
            const std::string& text = j < r.size() ? r[j] : std::string{};
            os << (j ? "  " : "") << std::left << std::setw(static_cast<int>(width[j])) << text;
        }
        os << '\n';
    };
    if (!headers_.empty()) {
        print_row(headers_);
        std::size_t total = 0;
        for (std::size_t w : width) total += w + 2;
        os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    }
    for (const auto& r : cells_) print_row(r);
}

void Table::print_csv(std::ostream& os) const {
    auto emit = [&](const std::vector<std::string>& r) {
        for (std::size_t j = 0; j < r.size(); ++j) {
            if (j) os << ',';
            if (r[j].find(',') != std::string::npos || r[j].find('"') != std::string::npos) {
                os << '"';
                for (char c : r[j]) {
                    if (c == '"') os << '"';
                    os << c;
                }
                os << '"';
            } else {
                os << r[j];
            }
        }
        os << '\n';
    };
    if (!headers_.empty()) emit(headers_);
    for (const auto& r : cells_) emit(r);
}

std::string format_double(double value, int precision) {
    std::ostringstream os;
    const double mag = std::abs(value);
    if (value != 0.0 && (mag < 1e-3 || mag >= 1e6)) {
        os << std::scientific << std::setprecision(precision) << value;
    } else {
        os << std::fixed << std::setprecision(precision) << value;
    }
    return os.str();
}

std::string format_seconds(double seconds) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(2);
    if (seconds < 1e-6) {
        os << seconds * 1e9 << " ns";
    } else if (seconds < 1e-3) {
        os << seconds * 1e6 << " us";
    } else if (seconds < 1.0) {
        os << seconds * 1e3 << " ms";
    } else {
        os << seconds << " s";
    }
    return os.str();
}

std::string append_history_line(const std::string& file, const std::string& line) {
    namespace fs = std::filesystem;
    const fs::path dir = EHDOE_HISTORY_DIR;  // the built tree's, set by CMake
    std::error_code ec;
    const fs::path target = fs::is_directory(dir, ec) ? dir / file : fs::path(file);
    std::ofstream out(target, std::ios::app);
    if (!out) return {};
    out << line << '\n';
    return out ? target.string() : std::string{};
}

std::string append_history_or_warn(const std::string& file, const std::string& line,
                                   std::ostream& os) {
    const std::string written = append_history_line(file, line);
    if (written.empty()) {
        os << "WARNING: could not append to the bench/history ledger\n";
    } else {
        os << "Results appended to " << written << "\n";
    }
    return written;
}

}  // namespace ehdoe::core
