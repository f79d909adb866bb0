#include "core/telemetry.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/perf_gate.hpp"

namespace ehdoe::core::telemetry {

namespace {

std::atomic<bool> g_enabled{false};

/// One event in Chrome trace-event terms. Names and categories are string
/// literals held by pointer; args are pre-rendered JSON fragments.
struct TraceEvent {
    const char* name = "";
    const char* cat = "";
    char phase = 'X';
    std::uint64_t ts = 0;   ///< µs since the process telemetry epoch
    std::uint64_t dur = 0;  ///< µs; 0 for instants/counters
    std::uint64_t tid = 0;
    std::string args;  ///< `"k":v` fragments, comma-joined (no braces)
};

/// Per-thread buffer. The owning thread appends under the buffer's own
/// mutex; write_json()/reset() lock the same mutex from outside. Buffers
/// are registered once and retained after thread exit (shared_ptr in the
/// registry) so no recorded event is ever lost to a short-lived worker.
struct ThreadBuf {
    std::mutex mutex;
    std::vector<TraceEvent> events;
    std::uint64_t tid = 0;
};

struct Registry {
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuf>> bufs;
    std::uint64_t next_tid = 1;
    std::string process_label;
};

Registry& registry() {
    static Registry* r = new Registry();  // leaked: usable during exit
    return *r;
}

ThreadBuf& thread_buf() {
    thread_local std::shared_ptr<ThreadBuf> buf = [] {
        auto b = std::make_shared<ThreadBuf>();
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        b->tid = r.next_tid++;
        r.bufs.push_back(b);
        return b;
    }();
    return *buf;
}

std::chrono::steady_clock::time_point epoch() {
    static const std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
    return t0;
}

void record(TraceEvent&& ev) {
    ThreadBuf& buf = thread_buf();
    ev.tid = buf.tid;
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back(std::move(ev));
}

/// The one `"k":v` renderer — span args, counter values, Event fields and
/// the journal prologue: one fragment appended to a comma-joined list, the
/// key escaped. Doubles print as %.17g and non-finite values as 0, so every
/// fragment is valid JSON.
void append_arg_key(std::string& args, const char* key) {
    if (!args.empty()) args += ',';
    args += '"';
    append_json_escaped(args, key);
    args += "\":";
}

void append_arg(std::string& args, const char* key, std::uint64_t value) {
    append_arg_key(args, key);
    args += std::to_string(value);
}

void append_arg(std::string& args, const char* key, std::int64_t value) {
    append_arg_key(args, key);
    args += std::to_string(value);
}

void append_arg(std::string& args, const char* key, double value) {
    append_arg_key(args, key);
    if (!std::isfinite(value)) {
        args += '0';
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    args += buf;
}

void append_arg(std::string& args, const char* key, const std::string& value) {
    append_arg_key(args, key);
    args += '"';
    append_json_escaped(args, value);
    args += '"';
}

/// One open journal file, shared by every Journal on it.
struct JournalFile {
    std::FILE* stream = nullptr;
    dev_t dev = 0;
    ino_t ino = 0;
    std::size_t refs = 0;
};

struct Journals {
    std::mutex mutex;
    std::vector<JournalFile> files;  ///< guarded by mutex
    /// !files.empty(), readable without the lock: Events skip all journal
    /// work when it is false.
    std::atomic<bool> any_open{false};
};

Journals& journals() {
    static Journals* j = new Journals();  // leaked: usable during exit
    return *j;
}

std::uint64_t wall_ms_now() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                          std::chrono::system_clock::now().time_since_epoch())
                                          .count());
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void enable() {
    epoch();  // pin the clock epoch no later than the first enable
    g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& buf : r.bufs) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        buf->events.clear();
    }
}

std::uint64_t now_us() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                          std::chrono::steady_clock::now() - epoch())
                                          .count());
}

void set_process_label(const std::string& label) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.process_label = label;
}

std::size_t event_count() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::size_t n = 0;
    for (const auto& buf : r.bufs) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        n += buf->events.size();
    }
    return n;
}

// ---------------------------------------------------------------------------
// Span / instant / counter
// ---------------------------------------------------------------------------

Span::Span(const char* name, const char* cat) : name_(name), cat_(cat) {
    if (!enabled()) return;
    live_ = true;
    start_ = now_us();
}

Span::~Span() {
    if (!live_) return;
    TraceEvent ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.phase = 'X';
    ev.ts = start_;
    const std::uint64_t end = now_us();
    ev.dur = end > start_ ? end - start_ : 0;
    ev.args = std::move(args_);
    record(std::move(ev));
}

void Span::arg(const char* key, std::uint64_t value) {
    if (live_) append_arg(args_, key, value);
}

void Span::arg(const char* key, std::int64_t value) {
    if (live_) append_arg(args_, key, value);
}

void Span::arg(const char* key, double value) {
    if (live_) append_arg(args_, key, value);
}

void Span::arg(const char* key, const std::string& value) {
    if (live_) append_arg(args_, key, value);
}

void instant(const char* name, const char* cat) {
    if (!enabled()) return;
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.phase = 'i';
    ev.ts = now_us();
    record(std::move(ev));
}

void counter(const char* name, const char* cat, double value) {
    if (!enabled()) return;
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.phase = 'C';
    ev.ts = now_us();
    append_arg(ev.args, "value", value);
    record(std::move(ev));
}

// ---------------------------------------------------------------------------
// Event / Journal
// ---------------------------------------------------------------------------

Event::Event(const char* kind)
    : kind_(kind),
      trace_(enabled()),
      journal_(journals().any_open.load(std::memory_order_relaxed)) {
    if (trace_ || journal_) t_us_ = now_us();
}

Event::~Event() {
    if (journal_) {
        std::string line = "{\"t_us\":" + std::to_string(t_us_);
        append_arg(line, "wall_ms", wall_ms_now());
        {
            Registry& r = registry();
            std::lock_guard<std::mutex> lock(r.mutex);
            append_arg(line, "process",
                       r.process_label.empty() ? std::string("ehdoe") : r.process_label);
        }
        append_arg(line, "kind", std::string(kind_));
        if (!fields_.empty()) line += ',' + fields_;
        line += "}\n";
        Journals& j = journals();
        std::lock_guard<std::mutex> lock(j.mutex);
        for (const JournalFile& f : j.files) {
            std::fwrite(line.data(), 1, line.size(), f.stream);
            std::fflush(f.stream);
        }
    }
    if (trace_) {
        TraceEvent ev;
        ev.name = kind_;
        ev.cat = "event";
        ev.phase = 'i';
        ev.ts = t_us_;
        ev.args = std::move(fields_);
        record(std::move(ev));
    }
}

Event& Event::field(const char* key, const std::string& value) {
    if (trace_ || journal_) append_arg(fields_, key, value);
    return *this;
}

Event& Event::field(const char* key, const char* value) {
    return field(key, std::string(value));
}

Event& Event::field(const char* key, std::uint64_t value) {
    if (trace_ || journal_) append_arg(fields_, key, value);
    return *this;
}

Event& Event::field(const char* key, double value) {
    if (trace_ || journal_) append_arg(fields_, key, value);
    return *this;
}

Journal::Journal(const std::string& path) {
    const auto fail = [&path](int fd) {
        const int err = errno;
        if (fd >= 0) ::close(fd);
        return std::runtime_error("cannot open event journal '" + path +
                                  "': " + std::strerror(err));
    };
    // O_CLOEXEC, like every descriptor the library owns: a simulator
    // spawned while the journal is open must not inherit it.
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    struct stat st {};
    if (fd < 0 || ::fstat(fd, &st) != 0) throw fail(fd);
    Journals& j = journals();
    std::lock_guard<std::mutex> lock(j.mutex);
    for (JournalFile& f : j.files) {
        if (f.dev == st.st_dev && f.ino == st.st_ino) {
            ::close(fd);
            ++f.refs;
            stream_ = f.stream;
            return;
        }
    }
    stream_ = ::fdopen(fd, "a");
    if (!stream_) throw fail(fd);
    j.files.push_back({stream_, st.st_dev, st.st_ino, 1});
    j.any_open.store(true, std::memory_order_relaxed);
}

Journal::~Journal() {
    Journals& j = journals();
    std::lock_guard<std::mutex> lock(j.mutex);
    const auto it = std::find_if(j.files.begin(), j.files.end(),
                                 [this](const JournalFile& f) { return f.stream == stream_; });
    if (it != j.files.end() && --it->refs == 0) {
        std::fclose(it->stream);
        j.files.erase(it);
    }
    j.any_open.store(!j.files.empty(), std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------

bool write_json(const std::string& path) {
    // Snapshot every buffer, then sort by timestamp so the file is a
    // timeline even though threads recorded independently.
    std::vector<TraceEvent> all;
    std::string label;
    {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        label = r.process_label;
        for (const auto& buf : r.bufs) {
            std::lock_guard<std::mutex> buf_lock(buf->mutex);
            all.insert(all.end(), buf->events.begin(), buf->events.end());
        }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });

    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    const long pid = static_cast<long>(::getpid());
    out << "{\"traceEvents\":[";
    bool first = true;
    if (!label.empty()) {
        std::string escaped;
        append_json_escaped(escaped, label);
        out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":0,\"args\":{\"name\":\"" << escaped << "\"}}";
        first = false;
    }
    for (const TraceEvent& ev : all) {
        if (!first) out << ",";
        first = false;
        out << "{\"name\":\"" << ev.name << "\",\"cat\":\"" << ev.cat << "\",\"ph\":\""
            << ev.phase << "\",\"ts\":" << ev.ts;
        if (ev.phase == 'X') out << ",\"dur\":" << ev.dur;
        out << ",\"pid\":" << pid << ",\"tid\":" << ev.tid;
        if (!ev.args.empty()) out << ",\"args\":{" << ev.args << "}";
        out << "}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

std::size_t LatencyHistogram::bucket_index(std::uint64_t us) {
    if (us < 16) return static_cast<std::size_t>(us);
    // Position of the highest set bit (>= 4 here); the octave [2^msb,
    // 2^(msb+1)) splits into 16 sub-buckets keyed by the next 4 bits.
    unsigned msb = 63;
    while (!(us >> msb)) --msb;
    const std::uint64_t sub = (us >> (msb - 4)) & 0xF;
    return 16 + (static_cast<std::size_t>(msb) - 4) * 16 + static_cast<std::size_t>(sub);
}

std::uint64_t LatencyHistogram::bucket_floor(std::size_t index) {
    if (index < 16) return index;
    const std::size_t octave = (index - 16) / 16;
    const std::uint64_t sub = (index - 16) % 16;
    const unsigned msb = static_cast<unsigned>(octave) + 4;
    return (std::uint64_t{1} << msb) + (sub << (msb - 4));
}

void LatencyHistogram::record_us(std::uint64_t us) {
    ++counts_[bucket_index(us)];
    ++total_;
}

void LatencyHistogram::record_seconds(double seconds) {
    if (!(seconds > 0.0)) {
        record_us(0);
        return;
    }
    const double us = seconds * 1e6;
    record_us(us >= 1.8e19 ? ~std::uint64_t{0} : static_cast<std::uint64_t>(us));
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
}

void LatencyHistogram::subtract(const LatencyHistogram& earlier) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
        counts_[i] = counts_[i] >= earlier.counts_[i] ? counts_[i] - earlier.counts_[i] : 0;
    }
    total_ = total_ >= earlier.total_ ? total_ - earlier.total_ : 0;
    // Re-derive the total from the buckets in case the snapshots diverged.
    std::uint64_t n = 0;
    for (const std::uint64_t c : counts_) n += c;
    total_ = n;
}

void LatencyHistogram::add_bucket(std::size_t index, std::uint64_t count) {
    if (index >= kBuckets) throw std::out_of_range("LatencyHistogram: bucket index");
    counts_[index] += count;
    total_ += count;
}

double LatencyHistogram::percentile_us(double p) const {
    if (total_ == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 100.0) p = 100.0;
    std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(total_)));
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (seen >= rank) return static_cast<double>(bucket_floor(i));
    }
    return static_cast<double>(bucket_floor(kBuckets - 1));
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> LatencyHistogram::sparse() const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        if (counts_[i]) out.emplace_back(static_cast<std::uint64_t>(i), counts_[i]);
    }
    return out;
}

}  // namespace ehdoe::core::telemetry
