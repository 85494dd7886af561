// Shared pieces of the tgsim end-to-end benchmark: run arguments, the
// outcome every workload reports, and the in-memory span recorder used by
// traced runs.
#pragma once

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"

namespace tgbench {

using tgsim::Cycle;
using tgsim::u32;
using tgsim::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct Args {
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Origin of the cold set-up time: the benchmark process's start.
    Clock::time_point start;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one run reports. Operations are candidate evaluations; `errors`
/// collects every failed correctness check (empty = correct).
struct Outcome {
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> errors;
    std::vector<Metric> metrics;

    void check(std::string err) {
        if (!err.empty()) errors.push_back(std::move(err));
    }
    /// Counts `rows` as attempted operations, a row with an error as failed.
    void count_rows(const std::vector<tgsim::sweep::SweepResult>& rows);
    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/// Spans and counters of a traced run, kept in memory and written out as a
/// Chrome trace-event file when the run ends. Every recording call accepts
/// a null tracer and then does nothing, so the untraced path shares the code
/// and pays one branch per boundary.
class Tracer {
public:
    struct Span {
        std::string name;
        u64 id = 0;
        u64 parent = 0;  ///< enclosing span id (0 = none)
        u64 request = 0; ///< candidate index the span works for
        Clock::time_point begin;
        Clock::time_point end;
    };

    /// Closes its span when destroyed or on finish().
    class Scope {
    public:
        Scope(Tracer* t, std::string name, u64 request);
        ~Scope() { finish(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        /// Ends the span; returns its duration in seconds (0 untraced).
        double finish();

    private:
        Tracer* t_;
        std::size_t index_ = 0;
        bool open_ = false;
    };

    /// Adds `v` to the named counter (no-op on a null tracer).
    static void add(Tracer* t, const std::string& name, double v) {
        if (t != nullptr) t->counters_[name] += v;
    }
    [[nodiscard]] double counter(const std::string& name) const;
    /// Writes the spans as Chrome trace events; false when the file cannot
    /// be written.
    [[nodiscard]] bool write(const std::string& path) const;

private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::map<std::string, double> counters_;
    Clock::time_point origin_ = Clock::now();
};

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

// --- workloads (tg_replay.cpp, open_uniform.cpp, dse_funnel.cpp) ---------
//
// measure_*: the untraced run — set-up, the timed window, then checks.
// trace_*: one traced pass through the same public calls, evaluating
// candidates through platform::Platform directly, adding spans and
// counters to `t` and checking its results against SweepDriver's rows.

void measure_tg_replay(const Args& args, Outcome& out);
void measure_open_uniform(const Args& args, Outcome& out);
void measure_dse_funnel(const Args& args, Outcome& out);
void trace_tg_replay(const Args& args, Tracer& t, Outcome& out);
void trace_open_uniform(const Args& args, Tracer& t, Outcome& out);
void trace_dse_funnel(const Args& args, Tracer& t, Outcome& out);

/// The report layer's public calls (sweep::json_report, parse_report_text,
/// merge_reports) with a span and row/byte counters around each.
[[nodiscard]] std::string emit_report(
    const std::vector<tgsim::sweep::SweepResult>& rows,
    const tgsim::sweep::SweepMeta& meta, Tracer* t);
[[nodiscard]] std::optional<tgsim::sweep::ParsedReport> parse_report(
    const std::string& text, Tracer* t, std::string* error);
[[nodiscard]] std::optional<tgsim::sweep::ParsedReport> merge_shards(
    std::vector<tgsim::sweep::ParsedReport> shards, Tracer* t,
    std::string* error);

/// Derives the per-layer metrics from a traced run's counters.
void layer_metrics(const Tracer& t, Outcome& out);

/// Feeds every correctness check a deliberately wrong result and confirms
/// it rejects it (and accepts the right one). Returns the process exit code.
int self_test();

/// The end-to-end metrics of a measured window, as every workload reports
/// them (work of each kind / wall time of the window).
struct Window {
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cycles = 0.0;
    double transactions = 0.0;
    double candidates = 0.0;
};
void report_window(const Window& w, Outcome& out);

} // namespace tgbench
