// dse_funnel — a funnel-tier campaign over a large uniform-random pattern
// grid on the 4x4 core grid: 8 fabric shapes x 8 FIFO depths x {mesh,
// torus} x 780 offered rates = 99,840 candidates, of which the top 4 by
// predicted completion time are cycle-simulated. Each round runs the
// campaign once unsharded and once as 3 shards one after another in this
// process; every shard report is emitted and parsed back, and the shards
// are merged. The time goes to the analytic tier, the sweep driver and the
// report layer, and little to routers.
//
// Input from the seed: the campaign seed (sweep::SweepOptions::seed), from
// which every survivor's generator streams derive.
#include <algorithm>
#include <functional>
#include <thread>

#include "analytic/analytic.hpp"
#include "checks.hpp"
#include "direct.hpp"
#include "platform/platform.hpp"
#include "tgbench.hpp"

namespace tgbench {

using namespace tgsim;

namespace {

constexpr u32 kGrid = 4;
constexpr u32 kCores = kGrid * kGrid;
constexpr u64 kPacketsPerCore = 400;
constexpr u32 kFunnelTop = 4;
constexpr u32 kShards = 3;
constexpr u32 kRates = 780; // 0.001 .. 0.780
constexpr u32 kShapes[][2] = {{4, 5}, {5, 4}, {3, 6}, {6, 3},
                              {2, 9}, {9, 2}, {5, 5}, {6, 4}};
constexpr u32 kFifos[] = {2, 3, 4, 6, 8, 12, 16, 24};

/// Fixed worker count, never above the host's hardware threads.
u32 workers() {
    return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
}

tg::PatternConfig pattern() {
    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::UniformRandom;
    pc.width = kGrid;
    pc.height = kGrid;
    pc.injection_rate = 0.001;
    pc.packets_per_core = kPacketsPerCore;
    return pc;
}

apps::Workload context() {
    apps::Workload w;
    w.name = "pattern_uniform_random";
    return w;
}

std::vector<sweep::Candidate> grid() {
    std::vector<sweep::Candidate> out;
    out.reserve(std::size(kShapes) * std::size(kFifos) * 2 * kRates);
    for (const auto& shape : kShapes)
        for (const u32 fifo : kFifos)
            for (const ic::TopologyKind topo :
                 {ic::TopologyKind::Mesh, ic::TopologyKind::Torus})
                for (u32 k = 1; k <= kRates; ++k) {
                    sweep::Candidate c;
                    c.cfg.ic = platform::IcKind::Xpipes;
                    c.cfg.xpipes.width = shape[0];
                    c.cfg.xpipes.height = shape[1];
                    c.cfg.xpipes.fifo_depth = fifo;
                    c.cfg.xpipes.topology = topo;
                    c.cfg.xpipes.collect_latency = true;
                    c.injection_rate = k / 1000.0;
                    char buf[96];
                    std::snprintf(buf, sizeof buf, "%s r=%.4f",
                                  sweep::describe_fabric(c.cfg).c_str(),
                                  c.injection_rate);
                    c.name = buf;
                    out.push_back(std::move(c));
                }
    return out;
}

sweep::SweepOptions options(u64 seed) {
    sweep::SweepOptions o;
    o.jobs = workers();
    o.seed = seed;
    o.tier = sweep::Tier::Funnel;
    o.funnel_top = kFunnelTop;
    return o;
}

sweep::SweepMeta meta(const sweep::SweepOptions& o, std::size_t n) {
    sweep::SweepMeta m;
    m.app = context().name;
    m.n_cores = kCores;
    m.jobs = o.jobs;
    m.max_cycles = o.max_cycles;
    m.tier = o.tier;
    m.seed = o.seed;
    m.n_candidates = static_cast<u32>(n);
    m.funnel_top = o.funnel_top;
    m.shard = o.shard;
    return m;
}

std::vector<sweep::SweepResult> run_driver(const sweep::SweepDriver& driver,
                                           const std::vector<sweep::Candidate>& cands,
                                           const sweep::SweepOptions& opts,
                                           Tracer* t) {
    Tracer::Scope s(t, "sweep.driver_run", opts.shard.index);
    std::vector<sweep::SweepResult> rows = driver.run(cands, opts);
    Tracer::add(t, "sweep.driver_run_s", s.finish());
    double walls = 0.0;
    for (const sweep::SweepResult& r : rows) walls += r.wall_seconds;
    Tracer::add(t, "sweep.row_walls_s", walls);
    Tracer::add(t, "sweep.driver_rows", static_cast<double>(rows.size()));
    return rows;
}

/// What one round leaves behind for the checks after the window.
struct Round {
    std::size_t report_hash = 0;              ///< canonical unsharded report
    std::vector<sweep::SweepResult> survivors; ///< cycle-tier rows, unsharded
};

/// One campaign round: unsharded, then 3 shards merged back, with the
/// byte-identity checks on the reports. Adds the survivors' simulated
/// cycles and transactions to `win`.
Round run_round(const sweep::SweepDriver& driver,
                const std::vector<sweep::Candidate>& cands, u64 seed, Tracer* t,
                Outcome& out, Window& win) {
    const auto tally = [&](const std::vector<sweep::SweepResult>& rows,
                           std::vector<sweep::SweepResult>* keep) {
        out.count_rows(rows);
        win.candidates += static_cast<double>(rows.size());
        for (const sweep::SweepResult& r : rows) {
            if (r.analytic) continue;
            win.cycles += static_cast<double>(r.cycles);
            win.transactions += static_cast<double>(r.packets);
            if (keep != nullptr) keep->push_back(r);
        }
    };

    Round result;
    sweep::SweepOptions opts = options(seed);
    std::string canonical;
    {
        std::vector<sweep::SweepResult> rows = run_driver(driver, cands, opts, t);
        tally(rows, &result.survivors);
        sweep::SweepMeta m = meta(opts, cands.size());
        sweep::canonicalize(m, rows);
        canonical = emit_report(rows, m, t);
    }
    result.report_hash = std::hash<std::string>{}(canonical);
    out.check(checks::emit_parse_emit(canonical, t));

    std::vector<sweep::ParsedReport> shards;
    for (u32 k = 0; k < kShards; ++k) {
        opts.shard = {k, kShards};
        std::string text;
        {
            const std::vector<sweep::SweepResult> rows =
                run_driver(driver, cands, opts, t);
            tally(rows, nullptr);
            text = emit_report(rows, meta(opts, cands.size()), t);
        }
        std::string err;
        auto parsed = parse_report(text, t, &err);
        if (!parsed) {
            out.check("shard " + std::to_string(k) + " parse: " + err);
            return result;
        }
        shards.push_back(std::move(*parsed));
    }
    out.check(checks::merged_matches(std::move(shards), canonical, t));
    return result;
}

/// Every survivor, simulated through Platform with its original index (and
/// so its original seed), reproduces its row.
std::vector<sweep::SweepResult> survivors_direct(
    const std::vector<sweep::SweepResult>& survivors,
    const std::vector<sweep::Candidate>& cands, u64 seed, Tracer* t) {
    const tg::PatternConfig pc = pattern();
    const apps::Workload ctx = context();
    const Payload payload{nullptr, &pc, &ctx, kCores};
    std::vector<sweep::SweepResult> direct;
    for (const sweep::SweepResult& s : survivors) {
        Direct d = evaluate_direct(cands.at(s.index), s.index, payload,
                                   options(seed), t);
        Tracer::add(t, "survivor.run_s", d.run_s);
        direct.push_back(std::move(d.row));
    }
    return direct;
}

} // namespace

std::string emit_report(const std::vector<sweep::SweepResult>& rows,
                        const sweep::SweepMeta& meta, Tracer* t) {
    Tracer::Scope s(t, "sweep.emit", 0);
    std::string text = sweep::json_report(rows, meta);
    Tracer::add(t, "sweep.emit_s", s.finish());
    Tracer::add(t, "sweep.emit_rows", static_cast<double>(rows.size()));
    Tracer::add(t, "sweep.emit_bytes", static_cast<double>(text.size()));
    return text;
}

std::optional<sweep::ParsedReport> parse_report(const std::string& text,
                                                Tracer* t, std::string* error) {
    Tracer::Scope s(t, "sweep.parse", 0);
    std::optional<sweep::ParsedReport> parsed = sweep::parse_report_text(text, error);
    Tracer::add(t, "sweep.parse_s", s.finish());
    if (parsed)
        Tracer::add(t, "sweep.parse_rows", static_cast<double>(parsed->rows.size()));
    return parsed;
}

std::optional<sweep::ParsedReport> merge_shards(
    std::vector<sweep::ParsedReport> shards, Tracer* t, std::string* error) {
    Tracer::Scope s(t, "sweep.merge", 0);
    std::optional<sweep::ParsedReport> merged =
        sweep::merge_reports(std::move(shards), error);
    Tracer::add(t, "sweep.merge_s", s.finish());
    if (merged)
        Tracer::add(t, "sweep.merge_rows", static_cast<double>(merged->rows.size()));
    return merged;
}

void measure_dse_funnel(const Args& args, Outcome& out) {
    const sweep::SweepDriver driver{pattern(), context()};
    const std::vector<sweep::Candidate> cands = grid();
    Window win;
    win.setup_s = seconds_between(args.start, Clock::now());

    Round first;
    u64 rounds = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        Round r = run_round(driver, cands, args.seed, nullptr, out, win);
        if (rounds++ == 0) first = std::move(r);
        else if (r.report_hash != first.report_hash)
            out.check("dse_funnel: canonical report changed between rounds");
    } while (seconds_between(t0, Clock::now()) < args.seconds);
    win.wall_s = seconds_between(t0, Clock::now());

    if (first.survivors.empty()) out.check("dse_funnel: no funnel survivors");
    out.check(checks::same_rows("survivors direct vs SweepDriver",
                                survivors_direct(first.survivors, cands, args.seed,
                                                 nullptr),
                                first.survivors));
    report_window(win, out);
}

void trace_dse_funnel(const Args& args, Tracer& t, Outcome& out) {
    Tracer::Scope pass(&t, "pass.dse_funnel", 0);
    const tg::PatternConfig pc = pattern();
    const sweep::SweepDriver driver{pc, context()};
    const std::vector<sweep::Candidate> cands = grid();

    {
        const analytic::Evaluator ev{pc};
        analytic::Workspace ws;
        Tracer::Scope s(&t, "analytic.evaluate", 0);
        u64 bad = 0;
        for (std::size_t i = 0; i < cands.size(); ++i)
            bad += ev.evaluate(cands[i], static_cast<u32>(i), ws).ok() ? 0 : 1;
        Tracer::add(&t, "analytic.evaluate_s", s.finish());
        Tracer::add(&t, "analytic.candidates", static_cast<double>(cands.size()));
        out.attempted += cands.size();
        out.failed += bad;
    }

    Window win;
    const Round r = run_round(driver, cands, args.seed, &t, out, win);
    const std::vector<sweep::SweepResult> direct =
        survivors_direct(r.survivors, cands, args.seed, &t);
    out.count_rows(direct);
    out.check(checks::same_rows("traced survivors vs SweepDriver", direct, r.survivors));
    Tracer::add(&t, "dse.passes", 1.0);
}

} // namespace tgbench
