// ehdoe/store/store_backend.hpp
//
// StoreBackend: the farm-wide tier of the result-reuse stack. A decorator
// around any executing backend that consults a shared store service
// (store/store_server.hpp) before simulating and publishes fresh results
// back, so *independent* farm runs — different processes, different
// machines, different days — never pay for the same point twice:
//
//   in-memory memo (BatchRunner)        per-run dedup
//     -> local snapshot (PersistentCache)   per-machine, per-file
//       -> store service (StoreBackend)     farm-wide, one daemon
//         -> simulate (in-process / remote / exec)
//
// Keys are content addresses: the full cache identity — exactly the
// PersistentCache fingerprint, i.e. Scenario::fingerprint() (+ "/recipe="
// hash for exec stacks) + "/replicates=1" — joined with the hexfloat-exact
// point, so a hit is only ever possible for the same simulation contract
// at the bit-identical point, and a stored value is bitwise what a local
// simulation would have produced. Store hits therefore stay inside the
// determinism contract by construction. The "/replicates=1" suffix is a
// fixed literal (doe::BatchRunner appends it): the keys written by earlier
// builds, which took a replicate count, end with it, and keeping it keeps
// them warm.
//
// Failure model: construction connects and throws on an unreachable or
// version-refusing store (a misconfigured farm should be loud). A store
// that dies *mid-run* must not kill the run: the failure is logged once,
// every batch falls through to the inner backend, and the connection is
// re-dialed at most once per `redial_seconds` until the store returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/eval_backend.hpp"
#include "store/store_client.hpp"

namespace ehdoe::store {

struct StoreBackendOptions {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /// Key prefix: the full cache identity (see the header comment). Runs
    /// with different identities share a store daemon without ever
    /// exchanging results.
    std::string fingerprint;
    /// Minimum seconds between reconnect attempts after a mid-run failure.
    double redial_seconds = 1.0;
};

class StoreBackend : public core::EvalBackend {
  public:
    /// Connects + handshakes; throws when the store is unreachable.
    StoreBackend(std::shared_ptr<core::EvalBackend> inner, StoreBackendOptions options);

    std::vector<core::ResponseMap> evaluate(const std::vector<num::Vector>& points) override;

    std::string name() const override { return "store(" + inner_->name() + ")"; }
    std::size_t concurrency() const override { return inner_->concurrency(); }
    /// Store hits cost no simulator invocations, so the ledger is the
    /// inner backend's: a warm run over the store reports 0 simulations.
    std::size_t simulations() const override { return inner_->simulations(); }
    std::size_t cache_hits() const override { return store_hits_ + inner_->cache_hits(); }
    std::size_t batches() const override { return inner_->batches(); }

    /// The exact key for `natural` under identity `fingerprint` —
    /// hexfloat-rendered coordinates, so the address is bit-exact.
    static std::string point_key(const std::string& fingerprint, const num::Vector& natural);

    std::size_t store_hits() const { return store_hits_; }
    std::size_t store_puts() const { return store_puts_; }
    bool connected() const { return client_ != nullptr; }

  private:
    void note_store_failure(const std::string& what);
    void maybe_redial();

    std::shared_ptr<core::EvalBackend> inner_;
    StoreBackendOptions options_;
    std::unique_ptr<StoreClient> client_;
    std::size_t store_hits_ = 0;
    std::size_t store_puts_ = 0;
    bool failure_logged_ = false;
    std::chrono::steady_clock::time_point last_dial_{};
};

}  // namespace ehdoe::store
