#!/usr/bin/env python3
"""List the library functions no program links, and fail on any not allowed.

A library function is one defined in a src/*.cpp file: an `ehdoe::` symbol
of nm type T in libehdoe.a (inline header functions are weak, so they do
not count). It is linked when its name is defined in one of the programs:
every executable at the top of the root build (tools, benches, examples)
plus perfbench. Build both trees at -O0 with garbage-collected sections, so
a function stays in a program only if the program can reach it:

  flags="-O0 -ffunction-sections -fdata-sections"
  cmake -B build-link -S . -DCMAKE_BUILD_TYPE=Debug -DEHDOE_BUILD_TESTS=OFF \\
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-link -j
  cmake -B build-link-perf -S perfbench -DCMAKE_BUILD_TYPE=Debug \\
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-link-perf --target perfbench -j
  python3 tools/link_check.py build-link build-link-perf

Exit 1 when an unlinked function is not in ALLOWED below, or when an
allowed function is linked again or no longer exists (the list must not go
stale). Exit 2 on a usage error: a build is missing, or the root build lacks
its benches or examples.

Two kinds of dead code pass this check unseen:
- A virtual override is linked whenever its class is constructed, because
  the class's vtable refers to it, even when no program ever calls it.
  VibrationSource::acceleration() and its four overrides were such code,
  with the 4.8 MB noise record S3's source would build on a first call that
  no program made.
- An inline header function is weak, so it is never counted at all.
Neither is looked for here; a reader deleting code checks them by hand.
"""

import argparse
import os
import subprocess
import sys

# The unlinked functions that stay, each group under its reason. Names are
# as `nm -C` prints them.
ALLOWED = {
    "Tests build and check expected values with them": [
        "ehdoe::num::Matrix::at(unsigned long, unsigned long)",
        "ehdoe::num::Matrix::at(unsigned long, unsigned long) const",
        "ehdoe::num::Matrix::diag(ehdoe::num::Vector const&)",
        "ehdoe::num::Matrix::operator+=(ehdoe::num::Matrix const&)",
        "ehdoe::num::Matrix::operator-=(ehdoe::num::Matrix const&)",
        "ehdoe::num::Matrix::transposed() const",
        "ehdoe::num::Vector::at(unsigned long)",
        "ehdoe::num::Vector::at(unsigned long) const",
        "ehdoe::num::Vector::fill(double)",
        "ehdoe::num::Vector::norm() const",
        "ehdoe::num::Vector::operator*=(double)",
        "ehdoe::num::Vector::operator+=(ehdoe::num::Vector const&)",
        "ehdoe::num::Vector::operator/=(double)",
        "ehdoe::num::approx_equal(ehdoe::num::Vector const&, ehdoe::num::Vector const&, double)",
        "ehdoe::num::mul_at_x(ehdoe::num::Matrix const&, ehdoe::num::Vector const&)",
        "ehdoe::num::operator*(double, ehdoe::num::Matrix)",
        "ehdoe::num::operator*(double, ehdoe::num::Vector)",
        "ehdoe::num::operator*(ehdoe::num::Matrix const&, ehdoe::num::Matrix const&)",
        "ehdoe::num::operator*(ehdoe::num::Vector, double)",
        "ehdoe::num::operator+(ehdoe::num::Matrix, ehdoe::num::Matrix const&)",
        "ehdoe::num::operator+(ehdoe::num::Vector, ehdoe::num::Vector const&)",
        "ehdoe::num::operator-(ehdoe::num::Matrix, ehdoe::num::Matrix const&)",
        "ehdoe::num::operator/(ehdoe::num::Vector, double)",
        "ehdoe::num::operator<<(std::ostream&, ehdoe::num::Matrix const&)",
        "ehdoe::num::operator<<(std::ostream&, ehdoe::num::Vector const&)",
    ],
    "Tests check designs and build their inputs with them": [
        "ehdoe::num::QrFactor::rank(double) const",
        "ehdoe::doe::is_latin(ehdoe::doe::Design const&, double)",
        "ehdoe::doe::to_natural(ehdoe::doe::DesignSpace const&, ehdoe::doe::Design const&)",
    ],
    "Reference runs: the node lanes' one-run reference and the one-start optimizer golden": [
        "ehdoe::node::simulate_node(ehdoe::node::NodeSimConfig const&)",
        "ehdoe::node::NodeSimulation::run()",
        "ehdoe::opt::nelder_mead(std::function<double (ehdoe::num::Vector const&)> const&, "
        "ehdoe::opt::Bounds const&, ehdoe::num::Vector const&)",
    ],
    "Test seams: tests reset and count the recorder's state": [
        "ehdoe::core::telemetry::reset()",
        "ehdoe::core::telemetry::event_count()",
    ],
    "Telemetry vocabulary for the simulation's own counters, which ROADMAP plans": [
        "ehdoe::core::telemetry::counter(char const*, char const*, double)",
        "ehdoe::core::telemetry::Span::arg(char const*, double)",
        "ehdoe::core::telemetry::LatencyHistogram::record_seconds(double)",
    ],
    "The snapshot tier's, decided with the tier when ROADMAP's benchmark cut replaces it": [
        "ehdoe::doe::BatchRunner::save_cache() const",
        "ehdoe::doe::BatchRunner::threads() const",
    ],
}

# One program from each group the root build can leave out: CMake skips the
# benches when google-benchmark is missing (with only a STATUS notice), and
# -DEHDOE_BUILD_EXAMPLES=OFF skips the examples. Without them, what only they
# call would read as unlinked code to delete.
REQUIRED = ["bench_t1_engines", "quickstart"]


def defined_names(path):
    """(type, demangled name) of every symbol `path` defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) == 3:
            yield fields[1], fields[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_build", help="the root build (holds libehdoe.a)")
    parser.add_argument("perfbench_build", help="the perfbench build (holds perfbench)")
    args = parser.parse_args()

    library = os.path.join(args.root_build, "libehdoe.a")
    perfbench = os.path.join(args.perfbench_build, "perfbench")
    for path in [library, perfbench]:
        if not os.path.isfile(path):
            print(f"link_check: no {path}", file=sys.stderr)
            return 2
    programs = sorted(path for path in (os.path.join(args.root_build, name)
                                        for name in os.listdir(args.root_build))
                      if os.path.isfile(path) and os.access(path, os.X_OK))
    for name in REQUIRED:
        if os.path.join(args.root_build, name) not in programs:
            print(f"link_check: no {name} in {args.root_build}; build the root with its "
                  "benches (they need google-benchmark) and examples", file=sys.stderr)
            return 2
    programs.append(perfbench)

    functions = {name for kind, name in defined_names(library)
                 if kind == "T" and name.startswith("ehdoe::")}
    linked = set()
    for program in programs:
        linked.update(name for _, name in defined_names(program))
    unlinked = functions - linked
    allowed = {name for names in ALLOWED.values() for name in names}

    print(f"{len(functions)} library functions, {len(unlinked)} unlinked "
          f"by {len(programs)} programs")

    problems = [
        ("unlinked and not allowed (delete it, or allow it with a reason)",
         unlinked - allowed),
        ("allowed but linked (take it off the list)", allowed & linked & functions),
        ("allowed but not in the library (take it off the list)", allowed - functions),
    ]
    failed = False
    for what, names in problems:
        for name in sorted(names):
            print(f"link_check: {what}: {name}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
