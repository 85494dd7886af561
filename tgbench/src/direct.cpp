#include "direct.hpp"

#include "ic/xpipes/xpipes.hpp"
#include "platform/platform.hpp"

namespace tgbench {

using namespace tgsim;

Direct evaluate_direct(const sweep::Candidate& cand, u32 index,
                       const Payload& payload, const sweep::SweepOptions& opts,
                       Tracer* t) {
    Direct d;
    sweep::SweepResult& r = d.row;
    r.name = cand.name;
    r.index = index;
    platform::PlatformConfig cfg = cand.cfg;
    cfg.n_cores = payload.n_cores;
    cfg.collect_traces = false;
    cfg.done_check_interval = opts.done_check_interval;
    r.fabric = sweep::describe_fabric(cfg);

    Tracer::Scope build(t, "platform.build", index);
    platform::Platform p{cfg};
    if (payload.binaries != nullptr) {
        p.load_tg_binaries(*payload.binaries, *payload.context);
    } else {
        tg::PatternConfig pc = *payload.pattern;
        if (cand.injection_rate > 0.0) pc.injection_rate = cand.injection_rate;
        std::vector<tg::StochasticConfig> configs;
        tg::compile_patterns(pc, cand.source, configs);
        for (u32 core = 0; core < payload.n_cores; ++core)
            configs[core].seed = sweep::derive_seed(opts.seed, index, core);
        p.load_stochastic(configs, *payload.context, cand.source);
        r.offered_rate = cand.source.rate > 0.0 ? cand.source.rate
                                                : pc.injection_rate;
    }
    d.build_s = build.finish();

    Tracer::Scope run(t, "platform.run", index);
    const platform::RunResult res = p.run(opts.max_cycles);
    d.run_s = run.finish();

    r.completed = res.completed;
    r.cycles = res.cycles;
    r.per_core = res.per_core;
    r.total_instructions = res.total_instructions;
    r.wall_seconds = res.wall_seconds;
    r.busy_cycles = p.interconnect().busy_cycles();
    r.contention_cycles = p.interconnect().contention_cycles();
    if (res.completed && res.cycles > 0)
        r.busy_pct = 100.0 * static_cast<double>(r.busy_cycles) /
                     static_cast<double>(res.cycles);

    if (const auto* mesh = dynamic_cast<const ic::XpipesNetwork*>(&p.interconnect())) {
        const ic::XpipesStats& xs = mesh->stats();
        d.router_visits = xs.router_visits;
        d.flits_routed = xs.flits_routed;
        if (cfg.xpipes.collect_latency) {
            Tracer::Scope summary(t, "stats.summary", index);
            const auto lat = xs.packet_latency.summary();
            stats::LatencyStats::Summary net, sq;
            if (cand.source.open()) {
                net = xs.net_latency.summary();
                sq = xs.source_q_latency.summary();
            }
            d.summary_s = summary.finish();
            d.summary_samples = lat.count + net.count + sq.count;

            r.has_latency = true;
            r.packets = xs.req_packets_delivered;
            r.error_packets = xs.resp_err_packets;
            const u64 good = r.packets - std::min(r.packets, r.error_packets);
            if (r.cycles > 0)
                r.accepted_rate = static_cast<double>(good) /
                                  static_cast<double>(r.cycles) /
                                  static_cast<double>(payload.n_cores);
            r.lat_count = lat.count;
            r.lat_mean = lat.mean;
            r.lat_p50 = lat.p50;
            r.lat_p99 = lat.p99;
            r.lat_max = lat.max;
            if (cand.source.open()) {
                r.has_open = true;
                r.pending_limit = cand.source.pending_limit;
                r.pending_peak = xs.pending_peak;
                r.net_lat_count = net.count;
                r.net_lat_mean = net.mean;
                r.net_lat_p50 = net.p50;
                r.net_lat_p99 = net.p99;
                r.net_lat_max = net.max;
                r.sq_lat_count = sq.count;
                r.sq_lat_mean = sq.mean;
                r.sq_lat_p50 = sq.p50;
                r.sq_lat_p99 = sq.p99;
                r.sq_lat_max = sq.max;
            }
        }
    }

    if (!res.completed) {
        r.error = "timeout/livelock within the cycle budget";
        r.failure = sweep::FailureKind::Timeout;
    } else if (opts.run_checks && payload.binaries != nullptr) {
        Tracer::Scope checks(t, "platform.checks", index);
        std::string msg;
        r.checks_ok = p.run_checks(*payload.context, &msg);
        d.checks_s = checks.finish();
        if (!r.checks_ok) {
            r.error = msg;
            r.failure = sweep::FailureKind::ChecksFailed;
        }
    } else {
        r.checks_ok = true;
    }

    if (payload.binaries != nullptr)
        for (u32 i = 0; i < payload.n_cores; ++i)
            d.tg_transactions +=
                p.tg_core(i).stats().ocp_reads + p.tg_core(i).stats().ocp_writes;
    return d;
}

} // namespace tgbench
