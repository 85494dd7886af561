// tgbench — end-to-end benchmark of tgsim's public API.
//
//   tgbench --workload tg_replay|open_uniform|dse_funnel --seed N
//           --seconds S --trace 0|1 [--start-ns NS]
//   tgbench --self-test
//
// --trace 0 measures the workload with tracing off and prints its
// end-to-end metrics. --trace 1 repeats traced passes of the workload for
// the same time, then one traced pass of each other workload so that every
// per-layer metric is present, and writes the spans to
// tgbench_out/trace_<workload>_<seed>.json. --start-ns is the CLOCK_MONOTONIC time
// at which the launcher started this process (the origin of setup_s); it
// defaults to the start of main(). The last line of stdout is the result as
// one JSON object; diagnostics go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "tgbench.hpp"

namespace {

using namespace tgbench;

using MeasureFn = void (*)(const Args&, Outcome&);
using TraceFn = void (*)(const Args&, Tracer&, Outcome&);

struct WorkloadEntry {
    const char* name;
    MeasureFn measure;
    TraceFn trace;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"tg_replay", measure_tg_replay, trace_tg_replay},
    {"open_uniform", measure_open_uniform, trace_open_uniform},
    {"dse_funnel", measure_dse_funnel, trace_dse_funnel},
};

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr,
                 "tgbench: %s\nusage: tgbench --workload "
                 "tg_replay|open_uniform|dse_funnel --seed N --seconds S "
                 "--trace 0|1 [--start-ns NS]\n"
                 "       tgbench --self-test\n",
                 msg);
    std::exit(2);
}

bool parse_number(const char* s, double* out) {
    char* end = nullptr;
    *out = std::strtod(s, &end);
    return end != s && *end == '\0';
}

void print_result(const Outcome& out) {
    for (const std::string& e : out.errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    for (const Metric& m : out.metrics)
        std::fprintf(stderr, "  %-42s %16.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.errors.empty() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    args.start = Clock::now();
    const WorkloadEntry* workload = nullptr;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test") return self_test();
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        double v = 0.0;
        if (flag == "--workload") {
            for (const WorkloadEntry& w : kWorkloads)
                if (std::strcmp(w.name, value) == 0) workload = &w;
            if (workload == nullptr) usage("unknown workload");
            args.workload = value;
        } else if (flag == "--seed") {
            char* end = nullptr;
            args.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0') usage("bad --seed");
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parse_number(value, &v) || !(v > 0.0) || v > 3600.0)
                usage("bad --seconds");
            args.seconds = v;
            have_seconds = true;
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            args.trace = value[0] == '1';
            have_trace = true;
        } else if (flag == "--start-ns") {
            if (!parse_number(value, &v) || !(v > 0.0)) usage("bad --start-ns");
            args.start = Clock::time_point{std::chrono::nanoseconds{
                static_cast<long long>(v)}};
            if (args.start > Clock::now()) usage("--start-ns lies in the future");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (workload == nullptr || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");

    Outcome out;
    try {
        if (!args.trace) {
            workload->measure(args, out);
        } else {
            Tracer t;
            const Clock::time_point t0 = Clock::now();
            do {
                workload->trace(args, t, out);
            } while (seconds_between(t0, Clock::now()) < args.seconds);
            for (const WorkloadEntry& w : kWorkloads)
                if (&w != workload) w.trace(args, t, out);
            layer_metrics(t, out);
            // Same candidates, same process: traced direct evaluation
            // against the untraced SweepDriver call.
            for (const char* w : {"tg_replay", "open_uniform"}) {
                const std::string k = std::string{"overhead."} + w;
                const double traced = t.counter(k + ".traced_s");
                const double driver = t.counter(k + ".driver_s");
                if (driver > 0.0)
                    std::fprintf(stderr,
                                 "tracing overhead %s: traced %.4f s vs "
                                 "untraced SweepDriver %.4f s (%+.1f%%)\n",
                                 w, traced, driver, 100.0 * (traced / driver - 1.0));
            }
            std::filesystem::create_directories("tgbench_out");
            const std::string path = "tgbench_out/trace_" + args.workload +
                                     "_" + std::to_string(args.seed) + ".json";
            if (!t.write(path)) out.check("cannot write " + path);
            else std::fprintf(stderr, "spans written to %s\n", path.c_str());
        }
    } catch (const std::exception& e) {
        out.check(std::string{"exception: "} + e.what());
    }
    if (out.attempted == 0) out.check("no operation was attempted");
    print_result(out);
    return out.errors.empty() ? 0 : 1;
}
