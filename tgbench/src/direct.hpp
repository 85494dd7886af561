// Direct evaluation of one sweep candidate through platform::Platform — the
// same construction, seeding and result harvest as sweep::SweepDriver, but
// from outside SweepDriver, so a traced run can put spans around each layer
// and read the ×pipes and TG counters SweepDriver's rows do not carry.
#pragma once

#include <vector>

#include "apps/workload.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"
#include "tg/program.hpp"
#include "tgbench.hpp"

namespace tgbench {

/// SweepDriver's payload: TG binaries (replay) or a traffic pattern.
struct Payload {
    const std::vector<tgsim::tg::AssembledTg>* binaries = nullptr;
    const tgsim::tg::PatternConfig* pattern = nullptr;
    const tgsim::apps::Workload* context = nullptr;
    u32 n_cores = 0;
};

struct Direct {
    tgsim::sweep::SweepResult row; ///< what SweepDriver would report
    double build_s = 0.0;          ///< Platform construction + payload load
    double run_s = 0.0;            ///< Platform::run
    double checks_s = 0.0;         ///< Platform::run_checks (TG replays)
    double summary_s = 0.0;        ///< LatencyStats::summary calls
    u64 summary_samples = 0;       ///< samples those calls summarised
    u64 router_visits = 0;         ///< ×pipes router-phase visits
    u64 flits_routed = 0;          ///< ×pipes link traversals
    u64 tg_transactions = 0;       ///< OCP reads + writes of the TG masters
};

/// Evaluates `cand` as candidate `index` of a sweep run with `opts`. Times
/// are measured only when `t` is non-null (they read 0 otherwise).
[[nodiscard]] Direct evaluate_direct(const tgsim::sweep::Candidate& cand,
                                     u32 index, const Payload& payload,
                                     const tgsim::sweep::SweepOptions& opts,
                                     Tracer* t);

} // namespace tgbench
