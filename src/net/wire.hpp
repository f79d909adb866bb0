// ehdoe/net/wire.hpp
//
// The evaluation wire protocol: one length-prefixed binary frame codec for
// the TCP connections between net::RemoteBackend / store::StoreClient and
// the eval and store daemons. Every frame has one blocking writer and one
// blocking reader (a daemon reads a connection's opening magic once, then
// the body of the frame that magic names). Both ends of every connection
// use them, the daemons on one thread per connection (net/tcp_server.hpp).
//
// Every frame is spelled in one field codec (wire.cpp): a length-prefixed
// string, a response map, the status envelope (u64 status, then a message
// unless the status is OK) and the connection opener (6-byte magic, u32
// version) each have one encoder and one decoder. A writer encodes its
// whole frame into one buffer and sends it with one send, except the store
// put reply, which sends its status word and then the rest. The store's
// sockets keep Nagle's algorithm, so the second send waits for the
// client's delayed ACK of the first; ending that stall is the store item
// of the ROADMAP. A reader takes the connection's net::Reader, so a frame
// that arrived whole costs one recv per 16 KiB, however many fields it
// has.
//
// Every peer ships from this repository, so the protocol has exactly one
// version, kProtocolVersion: a daemon accepts an eval hello, a stats
// request or a store hello only at that version and refuses any other with
// a message naming both versions ("... server speaks N, client sent M"),
// counted in handshakes_rejected. A refused client throws with the
// server's message; there is no downgrade.
//
// Frames (host-endian, binary). A response body is the unit every result
// frame carries:
//
//   response  := u64 status
//                status 0: u64 n, n x { u64 name_len, bytes, f64 value }
//                status 1: u64 msg_len, bytes        (simulation failed)
//
// One request frame carries a shard's whole sub-batch and one result frame
// carries all its responses, so the framing overhead (a syscall pair and a
// network round-trip) is paid once per sub-batch. Their writers encode into
// scratch buffers the caller reuses across batches.
//
//   batch request := u64 count, u64 dim, count*dim x f64   (points, row-major)
//   batch result  := u64 count, count x response           (request order)
//
// Eval connections start with a handshake so mismatched peers are rejected
// cleanly instead of exchanging garbage frames:
//
//   hello     := 6-byte magic "EHDOEN", u32 protocol version,
//                u64 fp_len, bytes (simulation fingerprint)   (client -> server)
//   welcome   := u64 status; status != 0: u64 msg_len, bytes
//                status 0: u64 server_now_us — a sample of the server's
//                monotonic telemetry clock taken while encoding the
//                welcome, the clock-offset anchor ehdoe-trace uses to
//                merge client and server trace files onto one timeline
//
// A second connection kind serves farm monitoring *outside* the eval
// path: a peer that opens with the stats magic gets one stats reply and the
// connection closes — no handshake, no eval frames, and no wait behind an
// evaluation in progress:
//
//   stats req := 6-byte magic "EHDOES", u32 protocol version
//   stats rep := u64 status
//                status 0: u32 version, u64 points_served, u64 points_failed,
//                          u64 handshakes_rejected, u64 worker_respawns,
//                          u64 points_timed_out, u64 in_flight,
//                          u64 connections_accepted, f64 uptime_seconds,
//                          then the server's eval-latency histogram
//                          (core/telemetry.hpp log buckets, microseconds):
//                          u64 n, n x { u64 bucket_index, u64 count },
//                          f64 p50_us, f64 p95_us, f64 p99_us
//                status != 0: u64 msg_len, bytes     (e.g. version mismatch)
//
// Every counter in a stats reply is lifetime: a monitor takes its windows
// from the difference of two replies (tools/farm_window.hpp).
//
// Closing the client side of a connection is the shutdown signal.
//
// Determinism note: values travel as raw f64 bits, so a response is bitwise
// identical no matter which process or host (same binary, same libm)
// produced it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/eval_backend.hpp"

namespace ehdoe::net {

using core::ResponseMap;
using num::Vector;

// ---------------------------------------------------------------------------
// Protocol constants
// ---------------------------------------------------------------------------

/// The one protocol version every peer speaks; a hello or stats request at
/// any other version is refused. Bump it whenever any frame changes layout
/// (9 = both stats replies end at their lifetime counters, without the
/// metrics ring).
inline constexpr std::uint32_t kProtocolVersion = 9;
inline constexpr char kHandshakeMagic[6] = {'E', 'H', 'D', 'O', 'E', 'N'};
inline constexpr char kStatsMagic[6] = {'E', 'H', 'D', 'O', 'E', 'S'};
inline constexpr char kStoreMagic[6] = {'E', 'H', 'D', 'O', 'E', 'R'};

inline constexpr std::uint64_t kStatusOk = 0;
inline constexpr std::uint64_t kStatusError = 1;

/// Upper bound on any length field read off a transport; larger values mean
/// a corrupt or hostile peer and fail the frame before any allocation.
inline constexpr std::uint64_t kSaneLimit = 1u << 24;

/// Upper bound on the stats-reply histogram: bucket count and every bucket
/// index must stay below this (the telemetry histogram has 976 buckets; a
/// frame claiming more is corrupt and fails before any allocation).
inline constexpr std::uint64_t kMaxHistogramBuckets = 1024;

// ---------------------------------------------------------------------------
// Low-level output, under every frame writer (and the hand-built frames of
// the hardening tests): loop until the full buffer moved; false on a hard
// error. send with MSG_NOSIGNAL so a dead peer surfaces as an error, never
// as SIGPIPE. Works on any SOCK_STREAM fd.
// ---------------------------------------------------------------------------

bool write_all(int fd, const void* buf, std::size_t len);
bool write_u64(int fd, std::uint64_t v);

// ---------------------------------------------------------------------------
// Low-level input, under every frame reader.
// ---------------------------------------------------------------------------

/// Capacity of a Reader's receive buffer.
inline constexpr std::size_t kReaderBufferBytes = 16 * 1024;

/// The input side of one connection: every frame reader pulls its fields
/// from here. A refill takes whatever the socket holds, up to the buffer,
/// in one recv, and a field longer than the buffer takes several. The
/// buffer can end up holding the start of the next frame, so the
/// connection's owner keeps one Reader from the first read to the close
/// and never reads the socket around it. The Reader does not own the
/// descriptor.
class Reader {
public:
    explicit Reader(int fd);

    int fd() const { return fd_; }

    /// Copy the next `len` bytes of the stream into `out`. False on EOF, on
    /// a hard error and when the socket's SO_RCVTIMEO expires: the peer is
    /// gone, and the connection with it.
    bool read_exact(void* out, std::size_t len);
    bool read_u64(std::uint64_t& v) { return read_exact(&v, sizeof v); }

private:
    int fd_ = -1;
    std::unique_ptr<unsigned char[]> buffer_;  ///< kReaderBufferBytes, not zero-filled
    std::size_t begin_ = 0;  ///< first byte not yet handed out
    std::size_t end_ = 0;    ///< one past the last byte received
};

// ---------------------------------------------------------------------------
// Evaluation frames
// ---------------------------------------------------------------------------

/// One decoded evaluator response: a result or a simulation error message.
struct EvalResult {
    bool ok = false;
    ResponseMap responses;
    std::string error;
};

// ---------------------------------------------------------------------------
// Batch frames. The writers encode the whole frame into a caller-owned
// scratch buffer, reused across batches.
// ---------------------------------------------------------------------------

bool write_batch_request(int fd, const std::vector<Vector>& points,
                         const std::vector<std::size_t>& indices,
                         std::vector<unsigned char>& scratch);
/// Read one whole batch request. Each length is validated as it arrives, so
/// a hostile header fails before the rest of the frame is read or
/// allocated.
bool read_batch_request(Reader& in, std::vector<Vector>& points);

bool write_batch_result(int fd, const std::vector<EvalResult>& results,
                        std::vector<unsigned char>& scratch);
/// Read one batch result frame into `results` (storage reused). The caller
/// knows how many responses its request frame is owed; a frame whose count
/// differs is a broken peer and fails the read before any decode.
bool read_batch_result(Reader& in, std::size_t expected, std::vector<EvalResult>& results);

// ---------------------------------------------------------------------------
// Handshake frames
// ---------------------------------------------------------------------------

struct Hello {
    std::uint32_t version = kProtocolVersion;
    std::string fingerprint;
};

bool write_hello(int fd, const Hello& hello);
/// The hello fields after the magic (read_connection_magic consumed it).
bool read_hello_body(Reader& in, Hello& hello);

/// status kStatusOk accepts; anything else carries a rejection message.
/// An OK welcome carries `server_now_us` — the server's monotonic
/// telemetry clock sampled at encode time (the trace-merge clock anchor);
/// readers receive it through `server_now_us` when non-null.
bool write_welcome(int fd, std::uint64_t status, const std::string& message,
                   std::uint64_t server_now_us = 0);
bool read_welcome(Reader& in, std::uint64_t& status, std::string& message,
                  std::uint64_t* server_now_us = nullptr);

// ---------------------------------------------------------------------------
// Connection-kind dispatch and the stats frame. A server reads
// the 6-byte opening magic once and branches: eval connections continue with
// the hello body, stats connections with the stats-request body. Anything
// else is a broken or alien peer.
// ---------------------------------------------------------------------------

enum class ConnectionKind { Eval, Stats, Store, Unknown };

/// Consume the 6-byte opening magic and classify the connection. False when
/// the peer vanished before sending a full magic.
bool read_connection_magic(Reader& in, ConnectionKind& kind);
/// The u32 protocol version after the magic: all of a stats request or a
/// store hello, and the start of an eval hello.
bool read_version(Reader& in, std::uint32_t& version);

/// One shard's monitoring counters as carried by the stats reply.
struct ShardStats {
    std::uint32_t version = kProtocolVersion;  ///< server's protocol version
    std::uint64_t points_served = 0;           ///< result frames answered
    std::uint64_t points_failed = 0;           ///< error frames answered
    std::uint64_t handshakes_rejected = 0;
    /// Exec simulators relaunched after a failed launch (0 in-process).
    std::uint64_t worker_respawns = 0;
    /// Points whose simulator hit the exec recipe's wall-clock timeout.
    std::uint64_t points_timed_out = 0;
    /// Points being evaluated right now (worker occupancy; display-only,
    /// deliberately outside the determinism contract).
    std::uint64_t in_flight = 0;
    std::uint64_t connections_accepted = 0;
    double uptime_seconds = 0.0;  ///< since the server start()ed
    /// The server's lifetime eval-latency histogram as sparse
    /// (bucket_index, count) pairs (core::telemetry::LatencyHistogram log
    /// buckets, microseconds) plus exact-rank percentiles.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> latency_buckets;
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;
};

bool write_stats_request(int fd, std::uint32_t version = kProtocolVersion);

/// status kStatusOk carries `stats`; anything else carries a message.
bool write_stats_reply(int fd, std::uint64_t status, const ShardStats& stats,
                       const std::string& message);
bool read_stats_reply(Reader& in, std::uint64_t& status, ShardStats& stats,
                      std::string& message);

// ---------------------------------------------------------------------------
// Store frames. A third connection kind serves the
// farm-wide result store: a peer opening with the store magic speaks
// opcode-framed get-batch/put-batch/stats requests over one connection,
// answered in order (like eval). Keys are opaque byte strings (in practice
// the cache identity + hexfloat-exact point, see store/store_backend.hpp)
// and values are response maps, reusing the response-body codec:
//
//   store hello := 6-byte magic "EHDOER", u32 protocol version
//   welcome     := (the eval welcome frame)
//   request     := u64 opcode, opcode body:
//     get (0)   := u64 count, count x { u64 key_len, bytes }
//     put (1)   := u64 count, count x { u64 key_len, bytes,
//                    u64 n, n x { u64 name_len, bytes, f64 value } }
//     stats (2) := (empty body)
//   reply       := u64 status; status != 0: u64 msg_len, bytes
//     get, status 0 := u64 count, count x { u64 found,
//                    found != 0: u64 n, n x { u64 name_len, bytes, f64 } }
//     put, status 0 := u64 appended   (records newly written; a duplicate
//                    key carrying bitwise-identical responses is
//                    acknowledged without re-appending)
//     stats, status 0 := u64 keys, u64 segments, u64 quarantined_segments,
//                    u64 gets_served, u64 get_hits, u64 puts_received,
//                    u64 records_appended, u64 connections_accepted,
//                    f64 uptime_seconds
//
// Every length field is checked against kSaneLimit before allocation, and
// the strings and maps of a whole frame (of each response, in an eval
// result frame) additionally run against one cumulative kSaneLimit byte
// budget, so a hostile count cannot multiply per-item limits into an
// allocation bomb.
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kStoreOpGet = 0;
inline constexpr std::uint64_t kStoreOpPut = 1;
inline constexpr std::uint64_t kStoreOpStats = 2;

/// One key → responses pair as carried by a put-batch frame.
struct StoreEntry {
    std::string key;
    ResponseMap responses;
};

/// One get-batch lookup result; `responses` is meaningful iff `found`.
struct StoreLookup {
    bool found = false;
    ResponseMap responses;
};

/// The store server's monitoring counters as carried by its stats reply.
struct StoreStats {
    std::uint64_t keys = 0;                  ///< distinct keys in the index
    std::uint64_t segments = 0;              ///< live segment files
    std::uint64_t quarantined_segments = 0;  ///< corrupt segments set aside
    std::uint64_t gets_served = 0;           ///< lookups answered (lifetime)
    std::uint64_t get_hits = 0;              ///< lookups answered found
    std::uint64_t puts_received = 0;         ///< put entries received
    std::uint64_t records_appended = 0;      ///< entries newly appended
    std::uint64_t connections_accepted = 0;
    double uptime_seconds = 0.0;  ///< since the server start()ed
};

bool write_store_hello(int fd, std::uint32_t version = kProtocolVersion);

bool write_store_get_request(int fd, const std::vector<std::string>& keys,
                             std::vector<unsigned char>& scratch);
/// The keys after the opcode word; enforces the cumulative byte budget.
bool read_store_get_request_body(Reader& in, std::vector<std::string>& keys);
bool write_store_get_reply(int fd, const std::vector<StoreLookup>& lookups,
                           std::vector<unsigned char>& scratch);
/// The caller knows how many lookups its request is owed; a reply whose
/// count differs is a broken peer and fails before any decode.
bool read_store_get_reply(Reader& in, std::size_t expected,
                          std::vector<StoreLookup>& lookups);

bool write_store_put_request(int fd, const std::vector<StoreEntry>& entries,
                             std::vector<unsigned char>& scratch);
bool read_store_put_request_body(Reader& in, std::vector<StoreEntry>& entries);
bool write_store_put_reply(int fd, std::uint64_t status, std::uint64_t appended,
                           const std::string& message);
bool read_store_put_reply(Reader& in, std::uint64_t& status, std::uint64_t& appended,
                          std::string& message);

bool write_store_stats_request(int fd);
bool write_store_stats_reply(int fd, std::uint64_t status, const StoreStats& stats,
                             const std::string& message);
bool read_store_stats_reply(Reader& in, std::uint64_t& status, StoreStats& stats,
                            std::string& message);

}  // namespace ehdoe::net
