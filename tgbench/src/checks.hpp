// Correctness checks of the benchmark. Each returns "" when the output is
// right and a one-line reason otherwise. They are pure functions of the
// outputs handed in, so self_test() can feed each one a deliberately wrong
// result and confirm that it is rejected.
#pragma once

#include <string>
#include <vector>

#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "tg/program.hpp"
#include "tgbench.hpp"

namespace tgbench::checks {

using tgsim::Cycle;
using tgsim::u64;
using tgsim::sweep::SweepResult;

/// TG-vs-CPU completion-time error allowed on every replayed fabric, in
/// percent: the bound the repository's Table 2 reproduction states for the
/// contended multiprocessor rows (bench/table2_tg_vs_arm.cpp).
inline constexpr double kAccuracyBoundPct = 1.5;

/// The candidate evaluated cleanly: no error, completed, checks passed.
[[nodiscard]] std::string row_ok(const SweepResult& r);

/// Same candidates with bit-identical simulated outcomes (wall clocks
/// excluded), e.g. a traced run against SweepDriver's rows.
[[nodiscard]] std::string same_rows(const std::string& what,
                                    const std::vector<SweepResult>& a,
                                    const std::vector<SweepResult>& b);

/// TG completion time within `bound_pct` of the CPU-core run.
[[nodiscard]] std::string accuracy(const std::string& fabric, Cycle tg,
                                   Cycle cpu, double bound_pct);

/// The program parsed back from its .tgp text equals the original and
/// prints to the same text.
[[nodiscard]] std::string tgp_roundtrip(const tgsim::tg::TgProgram& prog,
                                        const std::string& text,
                                        const tgsim::tg::TgProgram& back);

/// One open-loop ladder point: every offered request delivered, the three
/// latency series sampled equally, and source-queue mean + in-network mean
/// equal to the end-to-end mean up to floating-point rounding.
[[nodiscard]] std::string open_row(const SweepResult& r, u64 expected_packets);

/// A rate-ordered ladder whose first point is the zero-load point: the
/// ladder reaches saturation, and the in-network mean latency at every
/// later point is at least the zero-load point's.
[[nodiscard]] std::string ladder(const std::string& topology,
                                 const std::vector<SweepResult>& rows);

/// Wrap links cannot lengthen a minimal route: the torus's zero-load
/// in-network latency is at most the mesh's.
[[nodiscard]] std::string torus_not_slower(double torus_net_mean,
                                           double mesh_net_mean);

/// Byte-for-byte equality of two reports; names the first differing byte.
[[nodiscard]] std::string same_text(const std::string& what,
                                    const std::string& a, const std::string& b);

/// Parsing a report and emitting it again reproduces it byte for byte.
/// Spans and counters go to `t` when it is non-null.
[[nodiscard]] std::string emit_parse_emit(const std::string& report, Tracer* t);

/// Merging the shard reports gives exactly the canonical unsharded report.
[[nodiscard]] std::string merged_matches(
    std::vector<tgsim::sweep::ParsedReport> shards,
    const std::string& canonical, Tracer* t);

} // namespace tgbench::checks
