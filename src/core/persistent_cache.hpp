// ehdoe/core/persistent_cache.hpp
//
// Cross-process evaluation cache: an EvalBackend decorator that serves
// points from an on-disk memo table and forwards only the misses to the
// wrapped backend. Repeated CLI/CI runs of the same flow amortize their
// simulations across processes — the warm path costs file I/O, not
// simulator time.
//
// File format (versioned, binary, host-endian):
//   magic   "EHDOEC\0"  7 bytes + u8 format version
//   u64 fingerprint_len, bytes      — identifies the simulation the entries
//                                     came from (scenario, horizon,
//                                     recipe, ...); a mismatch
//                                     invalidates the whole file
//   u64 n_entries
//   entry := u64 dim, dim x f64     — the exact natural-unit point
//            u64 n_resp, n_resp x { u64 name_len, bytes, f64 value }
//
// Robustness: a missing, truncated, corrupt, wrong-version or
// wrong-fingerprint file is treated as a cold cache (never an error), and
// save() writes to a per-process temporary file first and renames it into
// place, so a crash mid-save cannot destroy the previous snapshot and
// concurrent savers cannot interleave into one half-written file. save()
// also merges compatible entries already on disk into the snapshot it
// writes (in-memory entries win), with the whole read-merge-rename cycle
// serialized by an advisory flock on a '<path>.lock' sibling, so several
// processes sharing one file as their result store converge to the union
// of their tables — no writer can drop another's entries by merging
// against a stale read. For result sharing across *machines* (or without
// a shared filesystem), the farm-wide store service (store/) is the
// scalable tier above this one.
#pragma once

#include <memory>

#include "core/eval_backend.hpp"

namespace ehdoe::core {

class PersistentCache : public EvalBackend {
public:
    /// Wraps `inner`; loads `path` immediately (cold on any mismatch).
    /// When `autosave` is set the destructor snapshots the table back to
    /// disk — one process's simulations warm the next process's cache.
    PersistentCache(std::shared_ptr<EvalBackend> inner, std::string path,
                    std::string fingerprint, bool autosave = true);
    ~PersistentCache() override;

    PersistentCache(const PersistentCache&) = delete;
    PersistentCache& operator=(const PersistentCache&) = delete;

    std::vector<ResponseMap> evaluate(const std::vector<Vector>& points) override;

    std::string name() const override { return "persistent-cache(" + inner_->name() + ")"; }
    std::size_t concurrency() const override { return inner_->concurrency(); }
    std::size_t simulations() const override { return inner_->simulations(); }
    std::size_t cache_hits() const override { return hits_ + inner_->cache_hits(); }
    std::size_t batches() const override { return inner_->batches(); }

    /// Snapshot the table to disk (atomic replace), merged with compatible
    /// entries already in the file. False on I/O failure.
    bool save() const;
    /// True when construction restored a compatible snapshot.
    bool restored() const { return restored_; }
    /// The wrapped backend.
    EvalBackend& inner() { return *inner_; }
    const EvalBackend& inner() const { return *inner_; }
    /// Entries currently held.
    std::size_t size() const { return table_.size(); }
    const std::string& path() const { return path_; }

private:
    void load();

    std::shared_ptr<EvalBackend> inner_;
    std::string path_;
    std::string fingerprint_;
    bool autosave_ = true;
    bool restored_ = false;
    std::map<std::vector<double>, ResponseMap> table_;
    std::size_t hits_ = 0;
};

}  // namespace ehdoe::core
