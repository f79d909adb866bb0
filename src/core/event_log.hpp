// ehdoe/core/event_log.hpp
//
// The structured event journal: a timestamped JSONL record of the
// operationally significant events that used to vanish into stderr —
// redials, rejoins, failover re-dispatches, exec timeouts/relaunches,
// segment quarantines. One JSON object per line:
//
//   {"t_us":12345,"wall_ms":1726… ,"process":"ehdoe-eval-server",
//    "kind":"redial","endpoint":"127.0.0.1:4217"}
//
//   t_us    — the monotonic telemetry clock (core/telemetry.hpp), so a
//             journal interleaves onto a merged trace timeline
//             (`ehdoe-trace --events`);
//   wall_ms — wall-clock milliseconds since the UNIX epoch, for humans and
//             cross-host correlation;
//   process — the label set by the writing process;
//   kind    — the event kind (see the schema table in README.md);
//   …       — kind-specific fields added through the Event builder.
//
// Like core/telemetry.hpp the journal is a process-wide switch, disabled
// by default, and strictly observational: opening it changes no result
// bit. Emission sites construct an Event unconditionally — when the
// journal is closed the builder is a handful of branch instructions and
// writes nothing.
#pragma once

#include <cstdint>
#include <string>

namespace ehdoe::core::event_log {

/// Open (append) the journal file and enable emission. Returns false and
/// stays disabled when the file cannot be opened.
bool open(const std::string& path);

/// Flush and close; emission disables.
void close();

bool enabled();

/// Names the writing process in every subsequent line.
void set_process_label(const std::string& label);

/// One journal line, emitted on destruction (when the journal is open).
/// Field order is insertion order after the standard prologue.
class Event {
public:
    explicit Event(const char* kind);
    ~Event();

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    Event& field(const char* key, const std::string& value);
    Event& field(const char* key, const char* value);
    Event& field(const char* key, std::uint64_t value);
    Event& field(const char* key, double value);

private:
    bool live_ = false;  ///< journal was open at construction
    std::string line_;
};

}  // namespace ehdoe::core::event_log
