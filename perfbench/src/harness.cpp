#include "harness.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Samples::sum() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return s;
}

double Samples::quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

void MetricTable::set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : items_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items_.push_back({name, value, unit});
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string MetricTable::to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
        const Metric& m = items_[i];
        out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}";
}

double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

namespace {

/// A fixed integer hash chain: pure CPU, no memory traffic.
std::uint64_t burn(std::uint64_t x, std::size_t rounds) {
    for (std::size_t i = 0; i < rounds; ++i) x = mix_seed(x, i);
    return x;
}

}  // namespace

double effective_parallelism(std::size_t threads, double window_seconds) {
    auto spin = [window_seconds](std::atomic<std::uint64_t>& work, std::uint64_t salt) {
        const auto t0 = Clock::now();
        std::uint64_t done = 0, x = salt;
        while (seconds_since(t0) < window_seconds) {
            x = burn(x, 4096);
            ++done;
        }
        work += done + (x == 0 ? 1 : 0);  // keeps `x` live
    };
    std::atomic<std::uint64_t> single{0};
    spin(single, 1);
    std::atomic<std::uint64_t> multi{0};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(spin, std::ref(multi), t + 2);
    for (std::thread& t : pool) t.join();
    return single.load() > 0 ? static_cast<double>(multi.load()) / static_cast<double>(single.load())
                             : 0.0;
}

double reference_slice() {
    constexpr std::size_t kDim = 8;
    constexpr int kRounds = 800;
    const auto t0 = Clock::now();
    std::vector<double> m(kDim * kDim), v(kDim);
    for (std::size_t i = 0; i < m.size(); ++i) m[i] = 0.1 * std::sin(static_cast<double>(i));
    for (std::size_t i = 0; i < kDim; ++i) v[i] = 1.0 / static_cast<double>(i + 1);
    std::map<int, double> memo;
    for (int r = 0; r < kRounds; ++r) {
        std::vector<double> y(kDim);
        for (std::size_t i = 0; i < kDim; ++i) {
            double acc = 0.0;
            for (std::size_t j = 0; j < kDim; ++j) acc += m[i * kDim + j] * v[j];
            y[i] = acc;
        }
        for (std::size_t i = 0; i < kDim; ++i)
            v[i] = std::sin(y[i]) + 0.5 * std::exp(-std::fabs(y[i]));
        memo[r % 32] += v[static_cast<std::size_t>(r) % kDim];
    }
    volatile double sink = memo.begin()->second;
    (void)sink;
    return seconds_since(t0);
}

double fork_slice() {
    const auto t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid == 0) ::_exit(0);
    if (pid > 0) {
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    return seconds_since(t0);
}

double spawn_slice() {
    static const std::string self = fs::read_symlink("/proc/self/exe").string();
    static int seq = 0;
    const auto t0 = Clock::now();
    // The launch pattern of exec::ExecRunner: a scratch directory, a deck
    // file in, a captured stdout file back, then cleanup.
    const fs::path dir = fs::temp_directory_path() / ("perfbench-spawn-" +
                                                      std::to_string(::getpid()) + "-" +
                                                      std::to_string(seq++));
    fs::create_directories(dir);
    const std::string deck = (dir / "deck").string();
    const std::string out = (dir / "stdout").string();
    {
        std::ofstream f(deck);
        for (int i = 0; i < 6; ++i) f << "response_" << i << "=0x1.921fb54442d18p+" << i << "\n";
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) ::dup2(fd, STDOUT_FILENO);
        ::execl(self.c_str(), self.c_str(), "--echo", deck.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
    }
    if (pid > 0) {
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    std::ifstream in(out);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) ++lines;
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (lines != 6) throw std::runtime_error("spawn_slice: the echo child failed");
    return seconds_since(t0);
}

int echo_file(const char* path) {
    std::ifstream in(path);
    std::cout << in.rdbuf();
    return in ? 0 : 1;
}

bool bitwise_equal(const ehdoe::core::ResponseMap& a, const ehdoe::core::ResponseMap& b) {
    if (a.size() != b.size()) return false;
    auto ia = a.begin();
    auto ib = b.begin();
    for (; ia != a.end(); ++ia, ++ib) {
        if (ia->first != ib->first) return false;
        if (std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0) return false;
    }
    return true;
}

ScratchDir::ScratchDir(const std::string& stem) {
    static int seq = 0;
    path_ = (fs::temp_directory_path() /
             (stem + "-" + std::to_string(::getpid()) + "-" + std::to_string(seq++)))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
}

Daemon::Daemon(const std::vector<std::string>& argv, const std::string& log_path,
               double timeout_seconds) {
    if (argv.empty()) throw std::invalid_argument("Daemon: empty command");
    const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log_fd < 0) throw std::runtime_error("Daemon: cannot create " + log_path);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();

    pid_ = ::fork();
    if (pid_ < 0) {
        ::close(log_fd);
        throw std::runtime_error("Daemon: fork failed");
    }
    if (pid_ == 0) {
        // Die with the benchmark, whatever ends it.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        const int devnull = ::open("/dev/null", O_RDONLY);
        if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
        for (int fd = 3; fd < 1024; ++fd) ::close(fd);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    ::close(log_fd);

    // Poll the log for the "listening on HOST:PORT" line.
    const auto t0 = Clock::now();
    const std::string marker = "listening on ";
    while (true) {
        std::ifstream in(log_path);
        std::string line;
        while (std::getline(in, line)) {
            const auto at = line.find(marker);
            if (at == std::string::npos) continue;
            std::istringstream rest(line.substr(at + marker.size()));
            rest >> endpoint_;
            if (!endpoint_.empty()) return;
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("Daemon: " + argv[0] + " exited before listening (see " +
                                     log_path + ")");
        }
        if (seconds_since(t0) > timeout_seconds || stop_requested()) {
            stop();
            throw std::runtime_error("Daemon: " + argv[0] + " did not start listening");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (seconds_since(t0) > 5.0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
}

namespace {
volatile sig_atomic_t g_stop = 0;
void on_stop_signal(int) { g_stop = 1; }
}  // namespace

bool stop_requested() { return g_stop != 0; }

void install_stop_handlers() {
    struct sigaction sa {};
    sa.sa_handler = on_stop_signal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // A daemon that dies mid-run must surface as a failed write, not kill
    // the benchmark.
    std::signal(SIGPIPE, SIG_IGN);
}

}  // namespace perfbench
