// mock_hdl_sim — a tiny deterministic stand-in for an external HDL
// co-simulator, so the exec backend (src/exec/) is testable hermetically.
//
// Behaves like the real thing from the farm's point of view: a separate
// process that reads a simulation deck, runs a (node co-)simulation, and
// prints named responses — here the canonical harvester responses of a
// scenario, computed by the same ehdoe library the in-process backend
// uses, so exec-mode results can be asserted *bitwise identical* to
// InProcessBackend. All values print as C99 hexfloats: the full 64 bits
// survive the text round-trip in both directions.
//
// Deck (from --deck FILE or stdin; `#` comments):
//   scenario S1|S2|S3       canonical scenario (default S1)
//   duration SECONDS        horizon override (default: scenario's)
//   index K                 the point's dispatch index (fault flags key
//                           off it; never affects response values)
//   point V V V ...         natural-unit factor vector (hexfloats OK)
//
// Output (stdout): one `NAME=VALUE` line per response, then one
// `values V V ...` summary line (name-sorted order) — so recipes can
// exercise both the regex and the column extractor.
//
// Fault injection (for exercising the farm's failure paths):
//   --fail-every N      exit 3 when (index + 1) is a multiple of N
//                       (deterministic crash: retrying the same point
//                       fails again — the retry-exhaustion path)
//   --fail-marker FILE  exit 3 once, creating FILE; succeed when FILE
//                       already exists (the retry-recovers path)
//   --hang              never answer: fork a sleeping child (its pid goes
//                       to <deck>.hangpid, so tests can verify the whole
//                       process group died), then sleep forever
//   --hang-index K      --hang, but only for deck index K
//   --garbage-index K   print unparseable output (exit 0) for index K
//   --output FILE       write responses to FILE instead of stdout
//   --crlf              terminate output lines with \r\n (a Windows-style
//                       co-simulator; the runner must parse it identically)
//   --report-fds        also print `open_fds=A,B,...`: the descriptors this
//                       process was started with (descriptor-leak tests)
#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"

using namespace ehdoe;

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--deck file] [--output file] [--fail-every n] [--fail-marker file]\n"
                 "       [--hang] [--hang-index k] [--garbage-index k] [--crlf] [--report-fds]\n";
    return 2;
}

/// The open descriptors, comma-separated, minus the one listing them.
std::string open_fds() {
    std::string list;
    DIR* dir = ::opendir("/proc/self/fd");
    if (!dir) return list;
    const int self = ::dirfd(dir);
    while (const dirent* entry = ::readdir(dir)) {
        if (entry->d_name[0] == '.' || std::atoi(entry->d_name) == self) continue;
        if (!list.empty()) list += ',';
        list += entry->d_name;
    }
    ::closedir(dir);
    return list;
}

}  // namespace

int main(int argc, char** argv) {
    std::string deck_path;
    std::string output_path;
    long fail_every = 0;
    std::string fail_marker;
    bool hang_always = false;
    bool crlf = false;
    bool report_fds = false;
    long hang_index = -1;
    long garbage_index = -1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--deck") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            deck_path = v;
        } else if (arg == "--output") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            output_path = v;
        } else if (arg == "--fail-every") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            fail_every = std::atol(v);
        } else if (arg == "--fail-marker") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            fail_marker = v;
        } else if (arg == "--hang") {
            hang_always = true;
        } else if (arg == "--hang-index") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            hang_index = std::atol(v);
        } else if (arg == "--crlf") {
            crlf = true;
        } else if (arg == "--report-fds") {
            report_fds = true;
        } else if (arg == "--garbage-index") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            garbage_index = std::atol(v);
        } else {
            return usage(argv[0]);
        }
    }

    // Listed before this process opens anything of its own.
    const std::string inherited_fds = report_fds ? open_fds() : std::string();

    // ---- read the deck ----------------------------------------------------
    std::string deck_text;
    if (deck_path.empty()) {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        deck_text = buf.str();
    } else {
        std::ifstream in(deck_path, std::ios::binary);
        if (!in) {
            std::cerr << "mock_hdl_sim: cannot read deck '" << deck_path << "'\n";
            return 2;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        deck_text = buf.str();
    }

    std::string scenario_name = "S1";
    double duration = -1.0;
    long index = 0;
    std::vector<double> point;
    bool saw_point = false;
    std::istringstream deck(deck_text);
    std::string line;
    while (std::getline(deck, line)) {
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key) || key[0] == '#') continue;
        if (key == "scenario") {
            ls >> scenario_name;
        } else if (key == "duration") {
            ls >> duration;
        } else if (key == "index") {
            ls >> index;
        } else if (key == "point") {
            point.clear();
            std::string tok;
            while (ls >> tok) {
                char* end = nullptr;
                const double v = std::strtod(tok.c_str(), &end);
                if (end == tok.c_str() || *end != '\0') {
                    std::cerr << "mock_hdl_sim: bad coordinate '" << tok << "'\n";
                    return 2;
                }
                point.push_back(v);
            }
            saw_point = true;
        } else {
            std::cerr << "mock_hdl_sim: unknown deck directive '" << key << "'\n";
            return 2;
        }
    }
    if (!saw_point || point.empty()) {
        std::cerr << "mock_hdl_sim: deck has no 'point' line\n";
        return 2;
    }

    // ---- fault flags, keyed on the deck index -----------------------------
    if (!fail_marker.empty()) {
        std::ifstream probe(fail_marker);
        if (!probe) {
            std::ofstream mark(fail_marker);
            std::cerr << "mock_hdl_sim: synthetic first-launch fault (marker '" << fail_marker
                      << "' created)\n";
            return 3;
        }
    }
    if (fail_every > 0 && (index + 1) % fail_every == 0) {
        std::cerr << "mock_hdl_sim: synthetic co-simulator crash at index " << index << "\n";
        return 3;
    }
    if (hang_always || (hang_index >= 0 && index == hang_index)) {
        // A child in our process group, pid published next to the deck: the
        // farm's kill-process-group must take it down with us.
        const std::string pid_path = (deck_path.empty() ? "mock_hdl_sim" : deck_path) +
                                     ".hangpid";
        const pid_t child = ::fork();
        if (child == 0) {
            for (;;) ::sleep(3600);
        }
        if (child > 0) {
            std::ofstream pid_out(pid_path);
            pid_out << child << "\n";
        }
        for (;;) ::sleep(3600);
    }

    // ---- the "co-simulation" ----------------------------------------------
    std::map<std::string, double> responses;
    try {
        const core::Scenario scenario =
            core::Scenario::make(core::scenario_from_name(scenario_name), duration);
        num::Vector natural(point.size());
        for (std::size_t i = 0; i < point.size(); ++i) natural[i] = point[i];
        responses = scenario.make_simulation()(natural);
    } catch (const std::exception& e) {
        std::cerr << "mock_hdl_sim: simulation failed: " << e.what() << "\n";
        return 4;
    }

    std::ofstream file_out;
    std::ostream* out = &std::cout;
    if (!output_path.empty()) {
        file_out.open(output_path, std::ios::binary | std::ios::trunc);
        if (!file_out) {
            std::cerr << "mock_hdl_sim: cannot write '" << output_path << "'\n";
            return 2;
        }
        out = &file_out;
    }

    if (garbage_index >= 0 && index == garbage_index) {
        *out << "%%% corrupted co-simulator dump, index " << index << " %%%\n";
        return 0;
    }

    const char* eol = crlf ? "\r\n" : "\n";
    if (report_fds) *out << "open_fds=" << inherited_fds << eol;
    char buf[64];
    for (const auto& [name, value] : responses) {
        std::snprintf(buf, sizeof buf, "%a", value);
        *out << name << "=" << buf << eol;
    }
    *out << "values";
    for (const auto& kv : responses) {
        std::snprintf(buf, sizeof buf, "%a", kv.second);
        *out << " " << buf;
    }
    *out << eol;
    return 0;
}
