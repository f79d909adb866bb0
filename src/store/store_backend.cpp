#include "store/store_backend.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "core/telemetry.hpp"

namespace ehdoe::store {

std::string StoreBackend::point_key(const std::string& fingerprint,
                                    const num::Vector& natural) {
    std::string key = fingerprint;
    key += '|';
    char buf[40];
    for (std::size_t i = 0; i < natural.size(); ++i) {
        // %a is an exact binary rendering: parsing it back yields the same
        // f64 bits, so equal keys mean bit-identical points and vice versa.
        std::snprintf(buf, sizeof buf, "%a", natural[i]);
        if (i > 0) key += ' ';
        key += buf;
    }
    return key;
}

StoreBackend::StoreBackend(std::shared_ptr<core::EvalBackend> inner,
                           StoreBackendOptions options)
    : inner_(std::move(inner)), options_(std::move(options)) {
    client_ = std::make_unique<StoreClient>(options_.host, options_.port);
    last_dial_ = std::chrono::steady_clock::now();
}

void StoreBackend::note_store_failure(const std::string& what) {
    client_.reset();
    core::telemetry::Event("redial")
        .field("component", "store")
        .field("endpoint", options_.host + ":" + std::to_string(options_.port))
        .field("error", what);
    if (!failure_logged_) {
        failure_logged_ = true;
        std::fprintf(stderr,
                     "[ehdoe-store] %s:%u failed mid-run (%s); falling through to %s and "
                     "re-dialing every %.1fs\n",
                     options_.host.c_str(), static_cast<unsigned>(options_.port),
                     what.c_str(), inner_->name().c_str(), options_.redial_seconds);
    }
}

void StoreBackend::maybe_redial() {
    if (client_) return;
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(now - last_dial_).count() < options_.redial_seconds)
        return;
    last_dial_ = now;
    try {
        client_ = std::make_unique<StoreClient>(options_.host, options_.port);
        failure_logged_ = false;
        core::telemetry::Event("rejoin")
            .field("component", "store")
            .field("endpoint", options_.host + ":" + std::to_string(options_.port));
        std::fprintf(stderr, "[ehdoe-store] %s:%u is back; resuming store lookups\n",
                     options_.host.c_str(), static_cast<unsigned>(options_.port));
    } catch (const std::exception&) {
        // Still down; the next batch past the redial window tries again.
    }
}

std::vector<core::ResponseMap> StoreBackend::evaluate(
    const std::vector<num::Vector>& points) {
    maybe_redial();

    std::vector<core::ResponseMap> results(points.size());
    std::vector<std::size_t> miss_indices;
    if (client_) {
        std::vector<std::string> keys;
        keys.reserve(points.size());
        for (const num::Vector& p : points) keys.push_back(point_key(options_.fingerprint, p));
        try {
            const std::vector<net::StoreLookup> lookups = client_->get(keys);
            for (std::size_t i = 0; i < lookups.size(); ++i) {
                if (lookups[i].found) {
                    results[i] = lookups[i].responses;
                    ++store_hits_;
                } else {
                    miss_indices.push_back(i);
                }
            }
        } catch (const std::exception& e) {
            note_store_failure(e.what());
        }
    }
    if (!client_) {
        // No store (or it just died): the whole batch is a miss.
        miss_indices.clear();
        for (std::size_t i = 0; i < points.size(); ++i) miss_indices.push_back(i);
    }
    if (miss_indices.empty()) return results;

    // Simulate the misses in input order — a sub-list preserves order, so
    // the inner backend's in-order-throw contract carries through.
    std::vector<num::Vector> miss_points;
    miss_points.reserve(miss_indices.size());
    for (const std::size_t i : miss_indices) miss_points.push_back(points[i]);
    const std::vector<core::ResponseMap> fresh = inner_->evaluate(miss_points);
    for (std::size_t j = 0; j < miss_indices.size(); ++j)
        results[miss_indices[j]] = fresh[j];

    // Publish what was simulated; a publish failure only costs reuse.
    if (client_) {
        std::vector<net::StoreEntry> entries;
        entries.reserve(miss_indices.size());
        for (std::size_t j = 0; j < miss_indices.size(); ++j) {
            net::StoreEntry e;
            e.key = point_key(options_.fingerprint, points[miss_indices[j]]);
            e.responses = fresh[j];
            entries.push_back(std::move(e));
        }
        try {
            client_->put(entries);
            store_puts_ += entries.size();
        } catch (const std::exception& e) {
            note_store_failure(e.what());
        }
    }
    return results;
}

}  // namespace ehdoe::store
