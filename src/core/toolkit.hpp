// ehdoe/core/toolkit.hpp
//
// The DoE-based design flow — the software toolkit the DATE'13 abstract
// announces. One DesignFlow instance wraps a scenario's simulation and
// design space and walks the paper's loop:
//
//   1. choose a DoE design (CCD by default),
//   2. run the simulations once (the only costly phase),
//   3. fit one response surface per performance indicator,
//   4. validate against held-out simulations,
//   5. explore: sweeps, slices, trade-off queries, constrained
//      optimization — all on the RSMs, "practically instant",
//   6. confirm chosen designs with a final simulation.
//
// One model per flow: the constructor builds the flow's rsm::ModelSpec, the
// full quadratic in the design's factors, and every surface is fitted with
// it, so all surfaces share one term list and the optimizer's penalty,
// predict_all() and the optimum's predicted_responses evaluate several
// surfaces in one block call (rsm::ModelSpec::predict_block), forming each
// term once per point.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "doe/factorial.hpp"
#include "doe/lhs.hpp"
#include "doe/runner.hpp"
#include "opt/optimizer.hpp"
#include "rsm/surface.hpp"
#include "rsm/validate.hpp"

namespace ehdoe::core {

/// Constraint on a response for trade-off queries / optimization.
struct ResponseConstraint {
    std::string response;
    double min = -1e300;
    double max = 1e300;
};

/// Result of an on-RSM optimization, optionally simulation-confirmed.
struct OptimizationOutcome {
    num::Vector coded;            ///< optimal point (coded units)
    num::Vector natural;          ///< same in natural units
    double predicted = 0.0;       ///< RSM prediction of the objective
    std::optional<double> confirmed;  ///< simulator value, if confirmation ran
    std::map<std::string, double> predicted_responses;  ///< all RSMs at the point
    std::size_t rsm_evaluations = 0;
};

class DesignFlow {
public:
    struct Options {
        /// Face-centred by default: the factor ranges are hard physical
        /// bounds (a negative dead-band or duty cycle is meaningless), so
        /// axial points must stay on the cube.
        doe::CcdOptions ccd{doe::CcdVariant::FaceCentred, 4};
        /// External-simulator recipe file (exec/sim_recipe.hpp); non-empty
        /// drives every simulation batch of the flow through co-simulator
        /// processes launched per point (exec::ExecBackend) — the
        /// DesignFlow simulation argument may then be null. The recipe's
        /// content hash folds into the persistent-cache identity.
        std::string recipe_file;
        /// Remote eval-server endpoints ("host:port"); non-empty shards
        /// every simulation batch of the flow across these servers (the
        /// distributed evaluation service, src/net/). Pair with
        /// `cache_fingerprint` — it doubles as the handshake identity.
        std::vector<std::string> endpoints;
        /// Workers (threads, or concurrent simulator processes with
        /// `recipe_file`) of the batch engine; 0 = all hardware.
        std::size_t runner_threads = 1;
        /// Persistent evaluation cache file; non-empty lets repeated
        /// CLI/CI runs of the same flow amortize simulations across
        /// processes. Pair with `cache_fingerprint` (e.g.
        /// Scenario::fingerprint()) to identify the simulation.
        std::string cache_file;
        /// Identity of the simulation behind `cache_file`; a mismatch
        /// invalidates the snapshot.
        std::string cache_fingerprint;
        /// Shared result store service ("host:port", ehdoe-store-server);
        /// non-empty lets independent farm runs of the same flow share
        /// results through one daemon — the farm-wide tier between the
        /// local snapshot and simulation. Keys carry the cache identity,
        /// so hits are bit-identical to local simulation by construction.
        std::string store_endpoint;
        /// Non-empty records a Chrome trace-event JSON file of the whole
        /// flow here (core/telemetry.hpp); merge with per-server traces
        /// via ehdoe-trace. Strictly observational — results are bitwise
        /// identical with tracing on or off.
        std::string trace_file;
        /// Non-empty opens the event journal here for the flow's lifetime
        /// (JSONL, core::telemetry::Journal); construction throws when the
        /// file cannot be opened. Strictly observational, like trace_file.
        std::string event_log_file;
        std::uint64_t seed = 2013;
    };

    DesignFlow(doe::DesignSpace space, doe::Simulation simulation, Options options);

    const doe::DesignSpace& space() const { return space_; }
    const Options& options() const { return options_; }

    // ---- phase 1+2: design + simulate -------------------------------------
    /// Run a central composite design (the default flow).
    const doe::RunResults& run_ccd();
    /// Run an arbitrary design.
    const doe::RunResults& run(const doe::Design& design);
    /// The collected experiment data; throws before any run.
    const doe::RunResults& results() const;
    bool has_results() const { return results_.has_value(); }
    /// Total simulator invocations so far (incl. validation/confirmation):
    /// the batch engine's count, so a simulation that throws mid-batch
    /// still counts those that ran before it, as batch_stats() does.
    std::size_t simulator_calls() const { return runner_->stats().simulations; }
    /// Lifetime counters of the batch engine (simulations, cache hits,
    /// batches, wall time) — the cost ledger of the whole flow.
    const doe::BatchStats& batch_stats() const { return runner_->stats(); }
    /// Evaluations memoized so far.
    std::size_t cache_size() const { return runner_->cache_size(); }
    /// The batch engine itself (backend inspection, ad-hoc evaluation).
    doe::BatchRunner& runner() { return *runner_; }
    /// Snapshot the persistent cache now (no-op without Options::cache_file).
    bool save_cache() const { return runner_->save_cache(); }

    // ---- phase 3: fit ------------------------------------------------------
    /// Fit (and cache) the RSM of a named response.
    const rsm::ResponseSurface& surface(const std::string& response);
    /// Fit every response collected by the runner.
    void fit_all();
    /// Names of all responses in the collected data.
    std::vector<std::string> response_names() const;

    // ---- phase 4: validate -------------------------------------------------
    /// Run `n` fresh LHS simulations and report the RSM's predictive error.
    rsm::ValidationReport validate(const std::string& response, std::size_t n_points);

    // ---- phase 5: explore --------------------------------------------------
    /// 1-D sweep of a response along one factor (others fixed, coded units),
    /// all points predicted in one block call.
    std::vector<std::pair<double, double>> sweep(const std::string& response,
                                                 const std::string& factor,
                                                 const num::Vector& fixed_coded,
                                                 std::size_t points = 41);

    /// Constrained optimization on the RSMs (multi-start Nelder-Mead with
    /// quadratic penalties); optionally confirm the winner by simulation.
    /// The starts run as lanes of opt::nelder_mead_starts, and each round's
    /// penalised points predict the objective and every constraint in one
    /// block call of the flow's model, with the bits of one value() per
    /// surface and point; `predicted_responses` come from one more call.
    OptimizationOutcome optimize(const std::string& objective, bool maximize,
                                 const std::vector<ResponseConstraint>& constraints = {},
                                 bool confirm_with_simulation = true);

    /// Predict every fitted response at a coded point (instant): fits them
    /// all, then predicts them in one block call of the flow's model.
    std::map<std::string, double> predict_all(const num::Vector& coded);

private:
    /// A fitted surface's coefficients, checked to count one per term of
    /// `model_`.
    const double* coefficients_of(const rsm::ResponseSurface& s) const;
    /// Every fitted surface at `coded`, in one block call of `model_`.
    std::map<std::string, double> predict_fitted(const num::Vector& coded) const;

    doe::DesignSpace space_;
    Options options_;
    /// The flow's one term list (see the file comment).
    rsm::ModelSpec model_;
    /// The batch evaluation engine: owns the simulation, the thread pool
    /// and the memoization cache shared by every phase that simulates.
    std::unique_ptr<doe::BatchRunner> runner_;
    std::optional<doe::RunResults> results_;
    std::map<std::string, rsm::ResponseSurface> surfaces_;
    /// validate()'s coded hold-out designs by point count: the seed and the
    /// dimension are fixed per flow, so each LHS is generated once.
    std::map<std::size_t, num::Matrix> holdouts_;
};

}  // namespace ehdoe::core
