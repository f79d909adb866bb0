// Exec-backend layer tests: the recipe format (parsing, substitution,
// fingerprinting) and the acceptance criterion of the exec subsystem — the
// S1 CCD run through external mock_hdl_sim processes is bitwise identical
// to InProcessBackend, locally, through a persistent cache (warm = 0
// simulations; recipe-revision mismatch = clean cold reload) and through
// an exec-mode eval-server shard.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/persistent_cache.hpp"
#include "core/scenario.hpp"
#include "doe/batch_runner.hpp"
#include "doe/composite.hpp"
#include "exec/exec_backend.hpp"
#include "exec/sim_recipe.hpp"
#include "exec_test_utils.hpp"
#include "net/remote_backend.hpp"
#include "net_test_utils.hpp"

using namespace ehdoe;
using namespace ehdoe::doe;
using namespace ehdoe::exec;
using ehdoe::exec_test::TempDir;
using ehdoe::num::Vector;

// ---------------------------------------------------------------------------
// SimRecipe parsing
// ---------------------------------------------------------------------------

TEST(SimRecipe, ParsesEveryField) {
    const SimRecipe r = SimRecipe::parse(
        "# a comment\n"
        "command: /usr/bin/sim --deck {deck} --seed 7\n"
        "input: deck\n"
        "deck-file: run.deck\n"
        "deck-line: point {point}\n"
        "deck-line:\n"
        "output: file result.out\n"
        "extract: power regex ^P=(\\S+)$\n"
        "extract: speed column values 2\n"
        "timeout: 12.5\n"
        "retries: 3\n"
        "keep-artifacts: true\n");
    EXPECT_EQ(r.command, "/usr/bin/sim --deck {deck} --seed 7");
    EXPECT_EQ(r.input, InputMode::Deck);
    EXPECT_EQ(r.deck_file, "run.deck");
    ASSERT_EQ(r.deck_lines.size(), 2u);
    EXPECT_EQ(r.deck_lines[0], "point {point}");
    EXPECT_EQ(r.deck_lines[1], "");
    EXPECT_EQ(r.output, OutputMode::File);
    EXPECT_EQ(r.output_file, "result.out");
    ASSERT_EQ(r.extractors.size(), 2u);
    EXPECT_EQ(r.extractors[0].response, "power");
    EXPECT_EQ(r.extractors[0].kind, Extractor::Kind::Regex);
    EXPECT_EQ(r.extractors[0].pattern, "^P=(\\S+)$");
    EXPECT_EQ(r.extractors[1].response, "speed");
    EXPECT_EQ(r.extractors[1].kind, Extractor::Kind::Column);
    EXPECT_EQ(r.extractors[1].line_key, "values");
    EXPECT_EQ(r.extractors[1].column, 2u);
    EXPECT_DOUBLE_EQ(r.timeout_seconds, 12.5);
    EXPECT_EQ(r.retries, 3u);
    EXPECT_TRUE(r.keep_artifacts);
}

TEST(SimRecipe, RejectsMalformedInputWithLineNumbers) {
    const auto expect_throw = [](const std::string& text, const std::string& needle) {
        try {
            SimRecipe::parse(text, "bad.recipe");
            FAIL() << "expected a parse error for: " << text;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
        }
    };
    expect_throw("command: sim\nwat\n", "bad.recipe:2");
    expect_throw("command: sim\nflavour: vanilla\nextract: f regex (x)\n", "unknown key");
    expect_throw("extract: f regex (x)\n", "no 'command'");
    expect_throw("command: sim\n", "no 'extract'");
    expect_throw("command: sim\nextract: f regex x\n", "no capture group");
    expect_throw("command: sim\nextract: f regex ([)\n", "bad regex");
    expect_throw("command: sim\nextract: f regex (x)\nextract: f column v 1\n", "duplicate");
    expect_throw("command: sim\nextract: f column values\n", "KEY IDX");
    expect_throw("command: sim\nextract: f column values 0\n", "positive token index");
    expect_throw("command: sim\nextract: f wizard (x)\n", "regex' or 'column");
    expect_throw("command: sim\nextract: f regex (x)\ninput: deck\n", "no deck-line");
    expect_throw("command: sim\nextract: f regex (x)\ninput: telepathy\n", "stdin' or 'deck");
    expect_throw("command: sim\nextract: f regex (x)\ntimeout: -3\n", "non-negative");
    // strtoul must not silently wrap signs into huge unsigned values.
    expect_throw("command: sim\nextract: f regex (x)\nretries: -1\n", "non-negative");
    expect_throw("command: sim\nextract: f column values -1\n", "positive token index");
    expect_throw("command: sim\nextract: f regex (x)\noutput: file a/b\n", "bare filename");
}

TEST(SimRecipe, TemplateSubstitutionRoundTripsEveryBit) {
    Vector p(3);
    p[0] = 1.0 / 3.0;
    p[1] = -2.7182818284590452e-13;
    p[2] = 52.125;
    const std::string rendered = render_template("point {point} x1={x1} i={index} w={workdir}",
                                                 p, 7, "/scratch/p7", "/scratch/p7/deck");
    // Every coordinate must survive the text round-trip exactly.
    std::istringstream in(rendered);
    std::string word;
    in >> word;  // "point"
    for (std::size_t i = 0; i < p.size(); ++i) {
        in >> word;
        EXPECT_EQ(std::strtod(word.c_str(), nullptr), p[i]) << "coordinate " << i;
    }
    in >> word;
    EXPECT_EQ(word, "x1=" + format_double(p[1]));
    in >> word;
    EXPECT_EQ(word, "i=7");
    in >> word;
    EXPECT_EQ(word, "w=/scratch/p7");

    EXPECT_THROW(render_template("{x9}", p, 0, "w", "d"), std::runtime_error);
    EXPECT_THROW(render_template("{frequency}", p, 0, "w", "d"), std::runtime_error);
    EXPECT_THROW(render_template("{point", p, 0, "w", "d"), std::runtime_error);
}

TEST(SimRecipe, FingerprintTracksContentNotPolicy) {
    const std::string base = ehdoe::exec_test::s1_recipe_text(30.0);
    const std::string fp = SimRecipe::parse(base).fingerprint();
    EXPECT_EQ(SimRecipe::parse(base).fingerprint(), fp) << "fingerprint must be stable";

    // Content changes (a deck line, the command) move the fingerprint...
    EXPECT_NE(SimRecipe::parse(base + "deck-line: # rev 2\n").fingerprint(), fp);
    std::string other_cmd = base;
    other_cmd.replace(other_cmd.find("--deck"), 6, "--DECK");
    EXPECT_NE(SimRecipe::parse(other_cmd).fingerprint(), fp);

    // ...execution policy does not: how patiently a simulator is awaited
    // cannot change what a successful run computes.
    EXPECT_EQ(SimRecipe::parse(base + "timeout: 99\nretries: 7\nkeep-artifacts: true\n")
                  .fingerprint(),
              fp);
}

// ---------------------------------------------------------------------------
// The acceptance criterion: S1 CCD through external simulator processes,
// bitwise identical to in-process evaluation at every integration level.
// ---------------------------------------------------------------------------

namespace {

RunResults run_inprocess_base(const core::Scenario& sc) {
    RunnerOptions o;
    o.threads = 1;
    return BatchRunner(sc.make_simulation(), o)
        .run_design(sc.design_space(), doe::central_composite(sc.design_space().dimension()));
}

}  // namespace

TEST(ExecEquivalence, S1CcdBitwiseIdenticalToInProcess) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const RunResults base = run_inprocess_base(sc);
    EXPECT_EQ(base.simulations, 45u);

    TempDir dir("ehdoe-exec-equiv");
    const std::string recipe =
        ehdoe::exec_test::write_file(dir, "s1.recipe", ehdoe::exec_test::s1_recipe_text(30.0));

    RunnerOptions eo;
    eo.recipe_file = recipe;
    eo.threads = 2;
    BatchRunner runner(Simulation{}, eo);  // no closure: the recipe owns the model
    const RunResults r = runner.run_design(
        sc.design_space(), doe::central_composite(sc.design_space().dimension()));

    EXPECT_EQ(r.response_names, base.response_names);
    EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0))
        << "external-simulator responses must be bitwise identical";
    EXPECT_EQ(r.simulations, 45u);
    EXPECT_EQ(r.cache_hits, 3u);  // centre replicates memoize as usual
    EXPECT_EQ(runner.backend().name(), "exec");

    const auto& backend = dynamic_cast<const exec::ExecBackend&>(runner.backend());
    EXPECT_EQ(backend.launches(), 45u);
    EXPECT_EQ(backend.timeouts(), 0u);
    EXPECT_EQ(backend.relaunches(), 0u);
}

TEST(ExecEquivalence, WarmPersistentCacheRunsZeroSimulations) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const RunResults base = run_inprocess_base(sc);
    const doe::Design ccd = doe::central_composite(sc.design_space().dimension());

    TempDir dir("ehdoe-exec-cache");
    net_test::TempFile cache("ehdoe-exec-cache");
    const std::string recipe =
        ehdoe::exec_test::write_file(dir, "s1.recipe", ehdoe::exec_test::s1_recipe_text(30.0));

    RunnerOptions o;
    o.recipe_file = recipe;
    o.threads = 2;
    o.cache_file = cache.path();
    o.cache_fingerprint = "exec-cache-test";
    {
        const RunResults cold = BatchRunner(Simulation{}, o).run_design(sc.design_space(), ccd);
        EXPECT_TRUE(num::approx_equal(cold.responses, base.responses, 0.0));
        EXPECT_EQ(cold.simulations, 45u);
    }
    {
        // Warm: a fresh runner (a new process in real use) serves the whole
        // design without launching one simulator.
        BatchRunner warm(Simulation{}, o);
        const RunResults r = warm.run_design(sc.design_space(), ccd);
        EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
        EXPECT_EQ(r.simulations, 0u);
        EXPECT_EQ(r.cache_hits, ccd.runs());
        const auto& backend = dynamic_cast<const exec::ExecBackend&>(
            dynamic_cast<const core::PersistentCache&>(warm.backend()).inner());
        EXPECT_EQ(backend.launches(), 0u);
    }
    // A revised recipe must load the snapshot cold — the content hash is
    // part of the cache identity, so cached responses never cross recipe
    // revisions — and must not corrupt the file: its own re-run is warm
    // (the autosave re-keyed the snapshot to the new revision cleanly).
    RunnerOptions o2 = o;
    o2.recipe_file = ehdoe::exec_test::write_file(
        dir, "s1-rev2.recipe",
        ehdoe::exec_test::s1_recipe_text(30.0) + "deck-line: # rev 2\n");
    {
        const RunResults r = BatchRunner(Simulation{}, o2).run_design(sc.design_space(), ccd);
        EXPECT_EQ(r.simulations, 45u) << "revised recipe must not reuse cached responses";
        EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
    }
    {
        BatchRunner warm_rev2(Simulation{}, o2);
        const RunResults r = warm_rev2.run_design(sc.design_space(), ccd);
        EXPECT_EQ(r.simulations, 0u) << "the re-keyed snapshot must be warm, not corrupt";
        EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0));
    }
}

TEST(ExecEquivalence, ExecModeEvalServerShardMatchesInProcess) {
    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const RunResults base = run_inprocess_base(sc);
    const doe::Design ccd = doe::central_composite(sc.design_space().dimension());

    net::EvalServerOptions so;
    so.workers = 2;
    so.fingerprint = "exec-shard-test";
    so.recipe = SimRecipe::parse(ehdoe::exec_test::s1_recipe_text(30.0));
    net::EvalServer server(core::Simulation{}, so);
    server.start();

    RunnerOptions ro;
    ro.endpoints = {net_test::endpoint_of(server)};
    ro.cache_fingerprint = "exec-shard-test";
    const RunResults r = BatchRunner(Simulation{}, ro).run_design(sc.design_space(), ccd);

    EXPECT_EQ(r.response_names, base.response_names);
    EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0))
        << "exec-shard responses must be bitwise identical";
    EXPECT_EQ(server.points_served(), 45u);
    EXPECT_EQ(server.points_failed(), 0u);
    EXPECT_EQ(server.points_timed_out(), 0u);
    EXPECT_EQ(server.points_in_flight(), 0u) << "occupancy must drain to zero";

    // The new stats-frame fields travel the wire.
    net::ShardStats stats;
    std::string error;
    ASSERT_TRUE(net::query_shard_stats(net::parse_endpoint(net_test::endpoint_of(server)),
                                       stats, error))
        << error;
    EXPECT_EQ(stats.points_served, 45u);
    EXPECT_EQ(stats.points_timed_out, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
    server.stop();
}

// ---------------------------------------------------------------------------
// Against real `ehdoe-eval-server --recipe` daemons (the CI exec smoke):
// gated on EHDOE_TEST_EXEC_ENDPOINTS / EHDOE_TEST_EXEC_FINGERPRINT.
// ---------------------------------------------------------------------------
TEST(ExternalExecServer, S1CcdMatchesInProcess) {
    const char* endpoints_env = std::getenv("EHDOE_TEST_EXEC_ENDPOINTS");
    const char* fingerprint_env = std::getenv("EHDOE_TEST_EXEC_FINGERPRINT");
    if (!endpoints_env || !fingerprint_env) {
        GTEST_SKIP() << "set EHDOE_TEST_EXEC_ENDPOINTS + EHDOE_TEST_EXEC_FINGERPRINT "
                        "(comma-separated host:port list) to run";
    }
    std::vector<std::string> endpoints;
    std::string spec = endpoints_env;
    for (std::size_t pos = 0; pos <= spec.size();) {
        const std::size_t comma = spec.find(',', pos);
        const std::string one =
            spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!one.empty()) endpoints.push_back(one);
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    ASSERT_FALSE(endpoints.empty());

    const core::Scenario sc = core::Scenario::make(core::ScenarioId::OfficeHvac, 30.0);
    const RunResults base = run_inprocess_base(sc);
    RunnerOptions ro;
    ro.endpoints = endpoints;
    ro.cache_fingerprint = fingerprint_env;
    const RunResults r =
        BatchRunner(Simulation{}, ro)
            .run_design(sc.design_space(),
                        doe::central_composite(sc.design_space().dimension()));
    EXPECT_EQ(r.response_names, base.response_names);
    EXPECT_TRUE(num::approx_equal(r.responses, base.responses, 0.0))
        << "external exec shard must be bitwise identical to in-process";
    EXPECT_EQ(r.simulations, 45u);
}
