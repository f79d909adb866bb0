#include "store/segment_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "core/telemetry.hpp"

namespace fs = std::filesystem;

namespace ehdoe::store {

namespace {

/// "EHRS" read as a little-endian u32 — EHdoe Result Store.
constexpr std::uint32_t kRecordMagic = 0x53524845u;
/// Upper bound on any length field parsed off disk (mirrors the wire
/// codec's net::kSaneLimit): a larger value is damage, not data.
constexpr std::uint64_t kSaneLen = 1u << 24;
constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

std::string segment_name(std::size_t seq) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "segment-%06zu.log", seq);
    return buf;
}

/// Sequence number of a live segment file name; false for anything else
/// (quarantined files, compaction scratch, strangers).
bool parse_segment_seq(const std::string& name, std::size_t& seq) {
    constexpr char prefix[] = "segment-";
    constexpr char suffix[] = ".log";
    constexpr std::size_t digits = 6;
    if (name.size() != sizeof prefix - 1 + digits + sizeof suffix - 1) return false;
    if (name.compare(0, sizeof prefix - 1, prefix) != 0) return false;
    if (name.compare(name.size() - (sizeof suffix - 1), sizeof suffix - 1, suffix) != 0)
        return false;
    seq = 0;
    for (std::size_t i = 0; i < digits; ++i) {
        const char c = name[sizeof prefix - 1 + i];
        if (c < '0' || c > '9') return false;
        seq = seq * 10 + static_cast<std::size_t>(c - '0');
    }
    return seq > 0;
}

void append_u64(std::vector<unsigned char>& out, std::uint64_t v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    out.insert(out.end(), p, p + sizeof v);
}

void append_bytes(std::vector<unsigned char>& out, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    out.insert(out.end(), p, p + len);
}

void encode_body(std::vector<unsigned char>& out, const std::string& key,
                 const core::ResponseMap& responses) {
    out.clear();
    append_u64(out, key.size());
    append_bytes(out, key.data(), key.size());
    append_u64(out, responses.size());
    for (const auto& [name, value] : responses) {
        append_u64(out, name.size());
        append_bytes(out, name.data(), name.size());
        append_bytes(out, &value, sizeof value);
    }
}

/// Write one record: the header (magic, CRC-32 of the body, body length),
/// then the body. False when a write fails.
bool write_record(std::FILE* out, const std::vector<unsigned char>& body) {
    const std::uint32_t crc = crc32_ieee(body.data(), body.size());
    const std::uint64_t len = body.size();
    unsigned char header[kHeaderBytes];
    std::memcpy(header, &kRecordMagic, sizeof kRecordMagic);
    std::memcpy(header + sizeof kRecordMagic, &crc, sizeof crc);
    std::memcpy(header + sizeof kRecordMagic + sizeof crc, &len, sizeof len);
    return std::fwrite(header, 1, sizeof header, out) == sizeof header &&
           std::fwrite(body.data(), 1, body.size(), out) == body.size();
}

/// Cursor-based body parse; false on any out-of-bounds or insane length
/// (a CRC-clean body that fails this is still corruption — a frame from a
/// different record layout, say).
bool parse_body(const std::vector<char>& body, std::string& key,
                core::ResponseMap& responses) {
    std::size_t cur = 0;
    const auto read_u64_at = [&](std::uint64_t& v) {
        if (body.size() - cur < sizeof v) return false;
        std::memcpy(&v, body.data() + cur, sizeof v);
        cur += sizeof v;
        return true;
    };
    const auto read_str_at = [&](std::string& s) {
        std::uint64_t len = 0;
        if (!read_u64_at(len) || len > kSaneLen || body.size() - cur < len) return false;
        s.assign(body.data() + cur, static_cast<std::size_t>(len));
        cur += static_cast<std::size_t>(len);
        return true;
    };
    if (!read_str_at(key)) return false;
    std::uint64_t n = 0;
    if (!read_u64_at(n) || n > kSaneLen) return false;
    responses.clear();
    for (std::uint64_t j = 0; j < n; ++j) {
        std::string name;
        double value = 0.0;
        if (!read_str_at(name)) return false;
        if (body.size() - cur < sizeof value) return false;
        std::memcpy(&value, body.data() + cur, sizeof value);
        cur += sizeof value;
        responses.emplace(std::move(name), value);
    }
    return cur == body.size();
}

enum class SegmentScan { Clean, Torn, Corrupt };

/// Forward-scan one segment into `index`; `good_bytes` is the offset of
/// the first byte past the last record that checked out.
SegmentScan scan_segment(const fs::path& path,
                         std::map<std::string, core::ResponseMap>& index,
                         std::uint64_t& restored, std::uintmax_t& good_bytes) {
    std::ifstream in(path, std::ios::binary);
    good_bytes = 0;
    if (!in) return SegmentScan::Corrupt;
    std::vector<char> body;
    for (;;) {
        unsigned char header[kHeaderBytes];
        in.read(reinterpret_cast<char*>(header), sizeof header);
        const std::streamsize got = in.gcount();
        if (got == 0) return SegmentScan::Clean;
        if (got < static_cast<std::streamsize>(sizeof header)) return SegmentScan::Torn;
        std::uint32_t magic = 0;
        std::uint32_t crc = 0;
        std::uint64_t len = 0;
        std::memcpy(&magic, header, sizeof magic);
        std::memcpy(&crc, header + sizeof magic, sizeof crc);
        std::memcpy(&len, header + sizeof magic + sizeof crc, sizeof len);
        if (magic != kRecordMagic || len > kSaneLen) return SegmentScan::Corrupt;
        body.resize(static_cast<std::size_t>(len));
        in.read(body.data(), static_cast<std::streamsize>(len));
        if (in.gcount() < static_cast<std::streamsize>(len)) return SegmentScan::Torn;
        if (crc32_ieee(body.data(), body.size()) != crc) return SegmentScan::Corrupt;
        std::string key;
        core::ResponseMap responses;
        if (!parse_body(body, key, responses)) return SegmentScan::Corrupt;
        index[std::move(key)] = std::move(responses);
        ++restored;
        good_bytes += sizeof header + static_cast<std::uintmax_t>(len);
    }
}

bool bitwise_equal(const core::ResponseMap& a, const core::ResponseMap& b) {
    if (a.size() != b.size()) return false;
    auto ia = a.begin();
    auto ib = b.begin();
    for (; ia != a.end(); ++ia, ++ib) {
        if (ia->first != ib->first) return false;
        if (std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0) return false;
    }
    return true;
}

void fsync_directory(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

}  // namespace

std::uint32_t crc32_ieee(const void* data, std::size_t len) {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

SegmentLog::SegmentLog(std::string dir, SegmentLogOptions options)
    : dir_(std::move(dir)), options_(options) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) throw std::runtime_error("SegmentLog: cannot create " + dir_ + ": " + ec.message());
    scan_locked();
}

SegmentLog::~SegmentLog() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_) std::fclose(active_);
    active_ = nullptr;
}

void SegmentLog::scan_locked() {
    // A compaction that crashed between writing compact.tmp and renaming it
    // leaves an orphan: adopt it as the first segment iff the crash already
    // deleted the old chain (otherwise it is stale scratch — the old
    // segments are still the truth and the orphan is simply discarded).
    const fs::path dir(dir_);
    const fs::path orphan = dir / "compact.tmp";
    std::error_code ec;
    const bool have_orphan = fs::exists(orphan, ec);
    std::vector<std::size_t> seqs;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        std::size_t seq = 0;
        if (parse_segment_seq(entry.path().filename().string(), seq)) seqs.push_back(seq);
    }
    if (have_orphan) {
        if (seqs.empty()) {
            fs::rename(orphan, dir / segment_name(1), ec);
            if (!ec) {
                seqs.push_back(1);
                if (options_.verbose)
                    std::fprintf(stderr,
                                 "[ehdoe-store] %s: adopted compact.tmp left by an "
                                 "interrupted compaction\n",
                                 dir_.c_str());
            }
        } else {
            fs::remove(orphan, ec);
        }
    }
    std::sort(seqs.begin(), seqs.end());

    std::size_t max_seq = 0;
    std::size_t newest_live_seq = 0;
    std::uintmax_t newest_live_bytes = 0;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
        const std::size_t seq = seqs[i];
        max_seq = std::max(max_seq, seq);
        const bool is_newest = i + 1 == seqs.size();
        const fs::path path = dir / segment_name(seq);
        std::uint64_t restored = 0;
        std::uintmax_t good_bytes = 0;
        const SegmentScan outcome = scan_segment(path, index_, restored, good_bytes);
        counters_.records_restored += restored;
        if (outcome == SegmentScan::Clean) {
            ++live_segments_;
            newest_live_seq = seq;
            newest_live_bytes = good_bytes;
            continue;
        }
        if (outcome == SegmentScan::Torn && is_newest) {
            // The expected crash signature: cut the tail, keep appending.
            fs::resize_file(path, good_bytes, ec);
            if (!ec) {
                ++counters_.torn_tails_truncated;
                ++live_segments_;
                newest_live_seq = seq;
                newest_live_bytes = good_bytes;
                if (options_.verbose)
                    std::fprintf(stderr,
                                 "[ehdoe-store] %s: truncated torn tail of %s at byte "
                                 "%llu (%llu records kept)\n",
                                 dir_.c_str(), path.filename().c_str(),
                                 static_cast<unsigned long long>(good_bytes),
                                 static_cast<unsigned long long>(restored));
                continue;
            }
        }
        // Anything else is quarantine: set the file aside, keep the records
        // that scanned clean before the damage, never fail the open.
        fs::rename(path, fs::path(path.string() + ".quarantined"), ec);
        ++counters_.quarantined_segments;
        core::telemetry::Event("segment_quarantine")
            .field("segment", path.filename().string())
            .field("records_recovered", static_cast<std::uint64_t>(restored));
        if (options_.verbose)
            std::fprintf(stderr,
                         "[ehdoe-store] %s: quarantined corrupt segment %s (%llu records "
                         "recovered before the damage; reads for the rest will fall "
                         "through to simulation)\n",
                         dir_.c_str(), path.filename().c_str(),
                         static_cast<unsigned long long>(restored));
    }

    if (newest_live_seq != 0 &&
        newest_live_bytes < static_cast<std::uintmax_t>(options_.max_segment_bytes)) {
        open_active_locked(newest_live_seq, static_cast<std::size_t>(newest_live_bytes));
    } else {
        // Fresh directory, full newest segment, or a quarantined tail:
        // start a segment past every sequence number ever seen.
        open_active_locked(max_seq + 1, 0);
        ++live_segments_;
    }
}

void SegmentLog::open_active_locked(std::size_t seq, std::size_t resume_bytes) {
    active_path_ = (fs::path(dir_) / segment_name(seq)).string();
    active_ = std::fopen(active_path_.c_str(), "abe");
    if (!active_)
        throw std::runtime_error("SegmentLog: cannot open " + active_path_ + " for append");
    active_seq_ = seq;
    active_bytes_ = resume_bytes;
}

bool SegmentLog::get(const std::string& key, core::ResponseMap& out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    out = it->second;
    return true;
}

bool SegmentLog::put(const std::string& key, const core::ResponseMap& responses) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end() && bitwise_equal(it->second, responses)) {
        ++counters_.duplicate_puts;
        return false;
    }
    append_record_locked(key, responses);
    index_[key] = responses;
    ++counters_.records_appended;
    return true;
}

void SegmentLog::append_record_locked(const std::string& key,
                                      const core::ResponseMap& responses) {
    std::vector<unsigned char> body;
    encode_body(body, key, responses);
    const std::size_t record_bytes = kHeaderBytes + body.size();
    if (active_bytes_ > 0 && active_bytes_ + record_bytes > options_.max_segment_bytes) {
        std::fclose(active_);
        active_ = nullptr;
        open_active_locked(active_seq_ + 1, 0);
        ++live_segments_;
    }
    if (!write_record(active_, body) || std::fflush(active_) != 0)
        throw std::runtime_error("SegmentLog: append to " + active_path_ + " failed");
    active_bytes_ += record_bytes;
}

void SegmentLog::compact() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_) {
        std::fclose(active_);
        active_ = nullptr;
    }
    const fs::path dir(dir_);
    const fs::path tmp = dir / "compact.tmp";
    {
        std::FILE* out = std::fopen(tmp.c_str(), "wbe");
        if (!out) throw std::runtime_error("SegmentLog: cannot open " + tmp.string());
        std::vector<unsigned char> body;
        for (const auto& [key, responses] : index_) {
            encode_body(body, key, responses);
            if (!write_record(out, body)) {
                std::fclose(out);
                throw std::runtime_error("SegmentLog: compaction write failed");
            }
        }
        // The scratch must be durable before the old chain goes away.
        if (std::fflush(out) != 0 || ::fsync(::fileno(out)) != 0) {
            std::fclose(out);
            throw std::runtime_error("SegmentLog: compaction flush failed");
        }
        std::fclose(out);
    }
    // Delete the superseded chain (quarantined files included), then slide
    // the fresh table into place. A crash in between is recovered on the
    // next open: compact.tmp with no segments left is adopted as segment 1.
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        std::size_t seq = 0;
        const bool quarantined = name.size() > 12 &&
                                 name.compare(name.size() - 12, 12, ".quarantined") == 0;
        if (parse_segment_seq(name, seq) || quarantined) fs::remove(entry.path(), ec);
    }
    std::uintmax_t compact_bytes = fs::file_size(tmp, ec);
    if (ec) compact_bytes = 0;
    fs::rename(tmp, dir / segment_name(1));
    fsync_directory(dir_);
    counters_.quarantined_segments = 0;
    live_segments_ = 1;
    open_active_locked(1, static_cast<std::size_t>(compact_bytes));
}

std::size_t SegmentLog::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

std::size_t SegmentLog::segment_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return live_segments_;
}

SegmentLogCounters SegmentLog::counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

}  // namespace ehdoe::store
