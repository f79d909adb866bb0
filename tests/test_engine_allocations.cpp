// Allocation counts of the circuit engines' steps and of an S3 scenario's
// node co-simulation. This suite replaces the global operator new to count
// heap allocations and bytes, so it is its own binary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include "core/scenario.hpp"
#include "harvester/harvester_system.hpp"
#include "node/node_sim.hpp"
#include "sim/state_space.hpp"
#include "sim/transient.hpp"

namespace {
std::size_t g_allocations = 0;
std::size_t g_bytes = 0;

void* counted_alloc(std::size_t n) {
    ++g_allocations;
    g_bytes += n;
    return std::malloc(n ? n : 1);
}
}  // namespace

// Every form the suite can reach, so allocation and release always pair
// malloc with free (the sanitizers check that pairing).
void* operator new(std::size_t n) {
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

using namespace ehdoe;
using harvester::HarvesterCircuit;
using harvester::HarvesterCircuitParams;

namespace {

HarvesterCircuitParams circuit_params() {
    HarvesterCircuitParams p;
    p.storage_capacitance = 50e-6;
    return p;
}

double accel(double t) { return 0.6 * std::sin(2.0 * M_PI * 65.0 * t); }

double load_current(double t) { return 2e-4 * (1.0 + std::sin(40.0 * t)); }

/// Heap allocations of 200 Newton steps on `rhs` after one warm-up step,
/// and the RHS calls they made.
std::pair<std::size_t, std::size_t> newton_step_allocations(const HarvesterCircuit& c,
                                                            num::OdeRhs rhs) {
    sim::TransientOptions o;
    o.step = 5e-5;
    sim::TransientEngine eng(std::move(rhs), c.state_dim(), o);
    eng.set_state(c.initial_state(0.5));
    eng.step();
    EXPECT_GT(eng.stats().lu_factorizations, 0u);
    const std::size_t rhs_before = eng.stats().rhs_evaluations;

    const std::size_t before = g_allocations;
    for (int i = 0; i < 200; ++i) eng.step();
    const std::size_t allocations = g_allocations - before;

    const std::size_t rhs_calls = eng.stats().rhs_evaluations - rhs_before;
    EXPECT_GT(rhs_calls, 200u * c.state_dim());  // Jacobians were rebuilt
    return {allocations, rhs_calls};
}

}  // namespace

TEST(EngineAllocations, NewtonStepOnTheHarvesterRhsAllocatesNothing) {
    // Every RHS call, point or column block, writes into a buffer the
    // engine sized at construction, and the harvester's RHS sums on the
    // stack. A load current exercises every term.
    HarvesterCircuit c(circuit_params());
    const num::OdeRhs rhs = c.make_nonlinear_rhs(accel, load_current);
    const auto [allocations, rhs_calls] = newton_step_allocations(c, rhs);
    EXPECT_GT(rhs_calls, 0u);
    EXPECT_EQ(allocations, 0u);
}

TEST(EngineAllocations, NewtonStepOnAPerPointRhsAllocatesOncePerCall) {
    // A per-point callable returns its derivative by value: that vector is
    // the one allocation per call, Jacobian columns included (the
    // converted column loop perturbs a copy of y made on the first build).
    HarvesterCircuit c(circuit_params());
    const num::OdeRhs harvester_rhs = c.make_nonlinear_rhs(accel, load_current);
    const auto per_point = [harvester_rhs](double t, const num::Vector& x) {
        return harvester_rhs(t, x);
    };
    const auto [allocations, rhs_calls] = newton_step_allocations(c, per_point);
    EXPECT_EQ(allocations, rhs_calls);
}

TEST(EngineAllocations, CachedPwlStepAllocatesOnlyTheInputSample) {
    // The second pass over the same 0.1 s finds every segment cached, so a
    // step allocates nothing; the one allocation per step is the Vector the
    // input sampler returns.
    HarvesterCircuit c(circuit_params());
    sim::PwlEngineOptions o;
    o.step = 2e-4;
    sim::PwlStateSpaceEngine eng(c.make_pwl_system(), o);
    const auto input = c.make_input(accel);
    eng.set_state(c.initial_state(0.5));
    eng.run(0.1, input);
    eng.set_state(c.initial_state(0.5));
    eng.set_time(0.0);
    const sim::EngineStats warm = eng.stats();
    double v_sum = 0.0;

    const std::size_t before = g_allocations;
    eng.run(0.1, input, [&](double, const num::Vector& x) { v_sum += c.output_voltage(x); });
    const std::size_t allocations = g_allocations - before;

    const sim::EngineStats& s = eng.stats();
    EXPECT_EQ(s.cache_misses, warm.cache_misses);
    EXPECT_GT(s.retried_steps, warm.retried_steps);  // switching steps were redone
    EXPECT_EQ(allocations, s.steps - warm.steps);
    EXPECT_GT(v_sum, 0.0);
}

TEST(NoiseAllocations, S3ScenarioAndNodeSimulationNeverBuildTheRecord) {
    // S3's noisy source is its RMS and its dominant frequency, all the node
    // co-simulation reads, so making the scenario and simulating it
    // allocate no sampled noise record (300 s at 2 kHz is 4.8 MB).
    const std::size_t before = g_bytes;
    const core::Scenario s3 = core::Scenario::make(core::ScenarioId::Transport);
    const node::NodeMetrics m = node::simulate_node(s3.base_config());
    const std::size_t bytes = g_bytes - before;

    EXPECT_GT(m.packets_delivered, 0u);
    EXPECT_LT(bytes, 64u * 1024u);
}
