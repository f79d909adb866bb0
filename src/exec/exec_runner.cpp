#include "exec/exec_runner.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <regex>
#include <stdexcept>

namespace ehdoe::exec {

namespace fs = std::filesystem;

namespace {

/// Process-wide counter so two runners in one process never share a root.
std::atomic<std::size_t> g_runner_seq{0};

std::vector<std::string> split_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::string::size_type pos = 0;
    while (pos <= text.size()) {
        const auto nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            if (pos < text.size()) lines.push_back(text.substr(pos));
            break;
        }
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    // A CRLF-emitting simulator (Windows tools, some EDA logs) must parse
    // like an LF one: a trailing '\r' would ride into the last column token
    // and defeat `$`-anchored extraction regexes.
    for (std::string& line : lines) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
    }
    return lines;
}

// Whole-file reads and writes go through close-on-exec descriptors: a
// sibling thread may spawn a simulator while one is open.
std::string read_file(const std::string& path) {
    std::string text;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return text;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
            text.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    ::close(fd);
    return text;
}

/// The last ~400 bytes of a capture file, for error messages.
std::string tail_of(const std::string& path) {
    std::string text = read_file(path);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) text.pop_back();
    constexpr std::size_t kTail = 400;
    if (text.size() > kTail) text = "..." + text.substr(text.size() - kTail);
    return text;
}

bool write_file(const std::string& path, const std::string& body) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    const char* p = body.data();
    std::size_t left = body.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return ::close(fd) == 0 && left == 0;
}

/// Waits for the process behind `pidfd` to exit, for at most
/// `timeout_seconds` (forever when it is 0). False when the time ran out.
bool await_exit(int pidfd, double timeout_seconds) {
    using clock = std::chrono::steady_clock;
    const auto deadline = clock::now() + std::chrono::duration<double>(timeout_seconds);
    pollfd pfd{pidfd, POLLIN, 0};
    for (;;) {
        int wait_ms = -1;
        if (timeout_seconds > 0.0) {
            const double left = std::chrono::duration<double>(deadline - clock::now()).count();
            if (left <= 0.0) return false;
            wait_ms = static_cast<int>(std::min(std::ceil(left * 1e3), 2.0e9));
        }
        // EINTR resumes with the time left; any other poll error cannot
        // happen on a live pidfd, and the caller's blocking reap decides.
        const int ready = ::poll(&pfd, 1, wait_ms);
        if (ready > 0 || (ready < 0 && errno != EINTR)) return true;
    }
}

}  // namespace

ExecRunner::ExecRunner(SimRecipe recipe, std::size_t replicates)
    : recipe_(std::move(recipe)), replicates_(replicates) {
    if (replicates_ == 0) throw std::invalid_argument("ExecRunner: replicates >= 1");
    if (recipe_.command.empty()) throw std::invalid_argument("ExecRunner: recipe has no command");
    if (recipe_.extractors.empty())
        throw std::invalid_argument("ExecRunner: recipe has no extractors");
    compiled_.reserve(recipe_.extractors.size());
    for (const Extractor& ex : recipe_.extractors) {
        compiled_.emplace_back();
        if (ex.kind == Extractor::Kind::Regex) {
            try {
                compiled_.back() = std::regex(ex.pattern, std::regex::ECMAScript);
            } catch (const std::regex_error& e) {
                throw std::invalid_argument("ExecRunner: bad regex for '" + ex.response +
                                            "': " + e.what());
            }
        }
    }
    if (recipe_.scratch_dir.empty()) {
        scratch_root_ = (fs::temp_directory_path() /
                         ("ehdoe-exec-" + std::to_string(::getpid()) + "-" +
                          std::to_string(g_runner_seq.fetch_add(1))))
                            .string();
    } else {
        scratch_root_ = recipe_.scratch_dir;
    }
    std::error_code ec;
    fs::create_directories(scratch_root_, ec);
    if (ec)
        throw std::runtime_error("ExecRunner: cannot create scratch root '" + scratch_root_ +
                                 "': " + ec.message());
}

ExecRunner::~ExecRunner() {
    // Per-point dirs are removed as their points resolve; here only an
    // *empty* root is removed (never recursively — a user-supplied
    // scratch-dir may hold unrelated files, and keep-artifacts runs keep
    // their dirs by design).
    std::error_code ec;
    fs::remove(scratch_root_, ec);
}

core::telemetry::LatencyHistogram ExecRunner::latency_histogram() const {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    return latency_;
}

ExecOutcome ExecRunner::run_point(const Vector& natural, std::size_t index) {
    core::telemetry::Span span("run-point", "exec");
    span.arg("index", static_cast<std::uint64_t>(index));
    // The histogram bills the full per-point cost — replicates, retries and
    // parsing included — matching what the calling backend waited for.
    const std::uint64_t point_start = core::telemetry::now_us();
    struct LatencyProbe {
        ExecRunner& runner;
        std::uint64_t start;
        ~LatencyProbe() {
            const std::uint64_t end = core::telemetry::now_us();
            std::lock_guard<std::mutex> lock(runner.latency_mutex_);
            runner.latency_.record_us(end - start);
        }
    } probe{*this, point_start};

    ExecOutcome outcome;
    core::ResponseMap acc;
    try {
        for (std::size_t rep = 0; rep < replicates_; ++rep) {
            core::ResponseMap one;
            for (std::size_t attempt = 0;; ++attempt) {
                const std::string workdir =
                    (fs::path(scratch_root_) /
                     ("p" + std::to_string(index) + "-" + std::to_string(seq_.fetch_add(1))))
                        .string();
                std::error_code ec;
                fs::create_directories(workdir, ec);
                if (ec) {
                    outcome.error = "ExecRunner: cannot create scratch dir '" + workdir +
                                    "': " + ec.message();
                    return outcome;
                }
                auto cleanup = [&] {
                    if (recipe_.keep_artifacts) return;
                    std::error_code rmec;
                    fs::remove_all(workdir, rmec);
                };
                LaunchResult run;
                try {
                    run = launch_once(natural, index, workdir);
                } catch (...) {
                    // Render-time recipe bugs (bad placeholder) must not
                    // leak the scratch dir they were about to use.
                    cleanup();
                    throw;
                }

                if (!run.launched) {
                    outcome.error = "ExecRunner: " + run.diagnosis;
                    cleanup();
                    return outcome;
                }
                if (run.timed_out) {
                    timeouts_.fetch_add(1);
                    core::telemetry::Event("exec_timeout")
                        .field("point", static_cast<std::uint64_t>(index))
                        .field("timeout_seconds", recipe_.timeout_seconds);
                    outcome.timed_out = true;
                    outcome.error = "ExecRunner: simulator timed out after " +
                                    std::to_string(recipe_.timeout_seconds) +
                                    " s at point " + std::to_string(index) +
                                    " (process group killed)";
                    cleanup();
                    return outcome;
                }
                if (run.signaled || run.exit_code != 0) {
                    const std::string stderr_tail = tail_of(workdir + "/stderr.txt");
                    if (attempt < recipe_.retries) {
                        relaunches_.fetch_add(1);
                        core::telemetry::Event("exec_relaunch")
                            .field("point", static_cast<std::uint64_t>(index))
                            .field("attempt", static_cast<std::uint64_t>(attempt + 1))
                            .field("exit",
                                   run.signaled
                                       ? "signal " + std::to_string(run.signal)
                                       : "status " + std::to_string(run.exit_code));
                        cleanup();
                        continue;  // bounded retry on a crashed/failed launch
                    }
                    outcome.error =
                        "ExecRunner: simulator " +
                        (run.signaled ? "killed by signal " + std::to_string(run.signal)
                                      : "exited with status " + std::to_string(run.exit_code)) +
                        " at point " + std::to_string(index) + " after " +
                        std::to_string(attempt + 1) + " launch(es)" +
                        (stderr_tail.empty() ? "" : ": " + stderr_tail);
                    cleanup();
                    return outcome;
                }
                std::string parse_error;
                if (!parse_output(workdir, one, parse_error)) {
                    outcome.error = parse_error;
                    cleanup();
                    return outcome;
                }
                cleanup();
                break;  // this replicate succeeded
            }
            // The exact replicate arithmetic of core::simulate_replicated.
            for (const auto& [k, v] : one) acc[k] += v;
        }
    } catch (const std::exception& e) {
        // Template/recipe errors surface per point so the backend's
        // design-order contract owns them like any other failure.
        outcome.error = std::string("ExecRunner: ") + e.what();
        return outcome;
    }
    for (auto& [k, v] : acc) v /= static_cast<double>(replicates_);
    outcome.ok = true;
    outcome.responses = std::move(acc);
    return outcome;
}

ExecRunner::LaunchResult ExecRunner::launch_once(const Vector& natural, std::size_t index,
                                                 const std::string& workdir) {
    // One span per simulator process: deck render + spawn + the wait
    // (or timeout kill) — the unit a trace viewer should see per launch.
    core::telemetry::Span span("launch", "exec");
    span.arg("index", static_cast<std::uint64_t>(index));
    LaunchResult run;
    const std::string deck_path = (fs::path(workdir) / recipe_.deck_file).string();

    // Render the deck/stdin body and the command with this launch's
    // substitutions. Rendering throws on recipe bugs (unknown placeholder);
    // run_point converts that into a per-point error.
    std::string body;
    for (const std::string& line : recipe_.deck_lines) {
        body += render_template(line, natural, index, workdir, deck_path);
        body += '\n';
    }
    const std::string command =
        render_template(recipe_.command, natural, index, workdir, deck_path);
    const std::vector<std::string> argv_strings = split_tokens(command);
    if (argv_strings.empty()) {
        run.diagnosis = "rendered command is empty: '" + recipe_.command + "'";
        return run;
    }

    std::string stdin_path = "/dev/null";
    if (recipe_.input == InputMode::Deck) {
        if (!write_file(deck_path, body)) {
            run.diagnosis = "cannot write deck '" + deck_path + "'";
            return run;
        }
    } else {
        stdin_path = (fs::path(workdir) / "stdin.txt").string();
        if (!write_file(stdin_path, body)) {
            run.diagnosis = "cannot write stdin body '" + stdin_path + "'";
            return run;
        }
    }

    // The simulator's standard streams. Opened close-on-exec like every
    // descriptor the library owns: a sibling thread's simulator must not
    // inherit them (the dup2 onto 0-2 clears the flag on this child's own).
    const int in_fd = ::open(stdin_path.c_str(), O_RDONLY | O_CLOEXEC);
    const int out_fd = ::open((fs::path(workdir) / "stdout.txt").c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    const int err_fd = ::open((fs::path(workdir) / "stderr.txt").c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (in_fd < 0 || out_fd < 0 || err_fd < 0) {
        if (in_fd >= 0) ::close(in_fd);
        if (out_fd >= 0) ::close(out_fd);
        if (err_fd >= 0) ::close(err_fd);
        run.diagnosis = "cannot open launch fds in '" + workdir + "'";
        return run;
    }

    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (const std::string& a : argv_strings) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    // Spawn without copying this process: the child runs in its own process
    // group (the timeout kill targets the group, so a simulator's own
    // children die with it), *in* its scratch dir (relative output paths
    // land there, not in the farm's CWD) and with no signal blocked (it
    // would inherit this thread's mask, and the daemons block SIGINT and
    // SIGTERM in every thread). posix_spawnp returns once the child has
    // exec'd, so the group exists before any kill.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addchdir_np(&actions, workdir.c_str());
    posix_spawn_file_actions_adddup2(&actions, in_fd, STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_fd, STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&actions, err_fd, STDERR_FILENO);
    posix_spawnattr_t attr;
    posix_spawnattr_init(&attr);
    posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP | POSIX_SPAWN_SETSIGMASK);
    posix_spawnattr_setpgroup(&attr, 0);
    sigset_t no_signals;
    sigemptyset(&no_signals);
    posix_spawnattr_setsigmask(&attr, &no_signals);
    pid_t pid = -1;
    const int spawn_error = ::posix_spawnp(&pid, argv[0], &actions, &attr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    posix_spawnattr_destroy(&attr);
    if (spawn_error != 0) {
        // The child never ran. Say why on the stderr capture, as the shell
        // would, so retries and the error text treat it like any failed
        // launch.
        ::dprintf(err_fd, "ExecRunner: cannot exec '%s': %s\n", argv[0],
                  std::strerror(spawn_error));
    }
    ::close(in_fd);
    ::close(out_fd);
    ::close(err_fd);
    launches_.fetch_add(1);
    if (spawn_error != 0) {
        run.launched = true;
        run.exit_code = spawn_error == ENOENT ? 127 : 126;
        return run;
    }

    // The wait dominates a launch's wall time; a separate span makes the
    // spawn overhead vs. simulator runtime split visible in the trace.
    // One wait with or without a timeout: poll the child's pidfd for the
    // time left, kill the whole group if it runs out (or if the child
    // cannot be watched), then reap.
    core::telemetry::Span wait_span("wait", "exec");
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (pidfd < 0) {
        run.diagnosis = std::string("pidfd_open failed: ") + std::strerror(errno) +
                        " (Linux >= 5.3 is required)";
    }
    const bool exited = pidfd >= 0 && await_exit(pidfd, recipe_.timeout_seconds);
    if (pidfd >= 0) ::close(pidfd);
    if (!exited && ::kill(-pid, SIGKILL) != 0) ::kill(pid, SIGKILL);
    int status = 0;
    pid_t reaped = -1;
    while ((reaped = ::waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
    }
    if (pidfd < 0) return run;
    if (!exited) {
        run.launched = true;
        run.timed_out = true;
        return run;
    }
    if (reaped != pid) {
        // E.g. ECHILD under a SIGCHLD-ignoring embedder auto-reaping our
        // children: the exit status is unknowable, and claiming exit 0
        // here would turn a crashed simulator into a "success" with a
        // half-written capture file. Fail the launch machinery instead.
        run.diagnosis = std::string("waitpid failed: ") + std::strerror(errno) +
                        " (is SIGCHLD set to SIG_IGN in the embedding process?)";
        return run;
    }

    run.launched = true;
    if (WIFEXITED(status)) {
        run.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        run.signaled = true;
        run.signal = WTERMSIG(status);
    } else {
        run.signaled = true;  // stopped/continued cannot happen without traces
    }
    return run;
}

bool ExecRunner::parse_output(const std::string& workdir, core::ResponseMap& out,
                              std::string& error) const {
    const std::string source =
        recipe_.output == OutputMode::File
            ? (fs::path(workdir) / recipe_.output_file).string()
            : (fs::path(workdir) / "stdout.txt").string();
    std::error_code ec;
    if (recipe_.output == OutputMode::File && !fs::exists(source, ec)) {
        error = "ExecRunner: simulator produced no output file '" + recipe_.output_file + "'";
        return false;
    }
    const std::string text = read_file(source);
    const std::vector<std::string> lines = split_lines(text);

    out.clear();
    for (std::size_t e = 0; e < recipe_.extractors.size(); ++e) {
        const Extractor& ex = recipe_.extractors[e];
        std::string raw;
        bool found = false;
        if (ex.kind == Extractor::Kind::Regex) {
            std::smatch m;
            for (const std::string& line : lines) {
                if (std::regex_search(line, m, compiled_[e]) && m.size() > 1) {
                    raw = m[1].str();
                    found = true;
                    break;
                }
            }
        } else {
            for (const std::string& line : lines) {
                const std::vector<std::string> toks = split_tokens(line);
                if (toks.empty() || toks[0] != ex.line_key) continue;
                if (ex.column < toks.size()) {
                    raw = toks[ex.column];
                    found = true;
                }
                break;  // the first KEY line decides, hit or miss
            }
        }
        if (!found) {
            const std::string tail = tail_of(source);
            error = "ExecRunner: response '" + ex.response +
                    "' not found in simulator output" + (tail.empty() ? "" : ": " + tail);
            return false;
        }
        char* end = nullptr;
        errno = 0;
        const double value = std::strtod(raw.c_str(), &end);
        if (raw.empty() || end == raw.c_str() || *end != '\0' || errno == ERANGE) {
            error = "ExecRunner: malformed value '" + raw + "' for response '" + ex.response +
                    "'";
            return false;
        }
        out.emplace(ex.response, value);
    }
    return true;
}

}  // namespace ehdoe::exec
