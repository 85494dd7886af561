// Self-test of the benchmark's correctness checks: each check gets one right
// result, which it must accept, and deliberately wrong ones (a TG cycle
// count past the accuracy bound, a wrong expected memory word, an altered
// or dropped shard row, a delivered-packet count one short, ...), which it
// must reject. The right results come from small real runs, so a check that
// passes here is known to see real outputs, not only hand-made ones.
#include <cstdio>

#include "apps/apps.hpp"
#include "checks.hpp"
#include "direct.hpp"
#include "platform/platform.hpp"
#include "tg/translator.hpp"
#include "tgbench.hpp"

namespace tgbench {

using namespace tgsim;

namespace {

struct Tally {
    int failures = 0;

    /// `err` is the check's verdict; `want_reject` what it must say.
    void expect(const char* what, const std::string& err, bool want_reject) {
        const bool ok = want_reject ? !err.empty() : err.empty();
        if (!ok) ++failures;
        std::printf("%-4s %-58s %s\n", ok ? "ok" : "FAIL", what,
                    err.empty() ? "(accepted)" : err.c_str());
    }
};

sweep::SweepOptions one_worker() {
    sweep::SweepOptions o;
    o.jobs = 1;
    return o;
}

void replay_checks(Tally& t) {
    const u32 cores = 2;
    const apps::Workload w = apps::make_mp_matrix({cores, 8});
    platform::PlatformConfig cfg;
    cfg.n_cores = cores;
    cfg.collect_traces = true;
    platform::Platform ref{cfg};
    ref.load_workload(w);
    const platform::RunResult res = ref.run(10'000'000);
    tg::TranslateOptions topt;
    topt.polls = w.polls;
    std::vector<tg::TgProgram> programs;
    for (const tg::Trace& trace : ref.traces())
        programs.push_back(tg::translate(trace, topt).program);

    const tg::TgProgram& prog = programs.front();
    const std::string text = tg::to_text(prog);
    t.expect("tgp round trip: faithful text", checks::tgp_roundtrip(
                 prog, text, tg::program_from_text(text)), false);
    tg::TgProgram altered = tg::program_from_text(text);
    altered.instrs.back().imm += 1;
    t.expect("tgp round trip: parsed program altered",
             checks::tgp_roundtrip(prog, text, altered), true);
    altered = tg::program_from_text(text);
    altered.instrs.pop_back();
    t.expect("tgp round trip: instruction lost",
             checks::tgp_roundtrip(prog, text, altered), true);

    sweep::Candidate amba;
    amba.name = "amba";
    const auto binaries = tg::assemble_all(programs);
    const auto good = sweep::SweepDriver{binaries, w}.run({amba}, one_worker());
    t.expect("memory checks: right expected product", checks::row_ok(good[0]),
             false);
    apps::Workload wrong = w;
    wrong.checks.at(wrong.checks.size() / 2).expect += 1;
    const auto bad = sweep::SweepDriver{binaries, wrong}.run({amba}, one_worker());
    t.expect("memory checks: one expected word off by one",
             checks::row_ok(bad[0]), true);

    const Cycle cpu = res.cycles;
    t.expect("accuracy: TG run as reported",
             checks::accuracy("amba", good[0].cycles, cpu,
                              checks::kAccuracyBoundPct), false);
    const auto past = static_cast<Cycle>(
        static_cast<double>(cpu) * (1.0 + (checks::kAccuracyBoundPct + 0.1) / 100.0));
    t.expect("accuracy: TG cycles moved past the bound",
             checks::accuracy("amba", past, cpu, checks::kAccuracyBoundPct), true);
    t.expect("accuracy: TG cycles moved below the bound",
             checks::accuracy("amba", cpu - (past - cpu), cpu,
                              checks::kAccuracyBoundPct), true);
}

void open_checks(Tally& t) {
    tg::PatternConfig pc;
    pc.width = pc.height = 4;
    pc.packets_per_core = 400; // enough for 0.8 to saturate the fabric
    const u64 expected = 16 * pc.packets_per_core;
    apps::Workload ctx;
    ctx.name = "pattern_uniform_random";
    tg::SourceConfig source;
    source.mode = tg::SourceMode::Open;
    std::vector<std::vector<sweep::SweepResult>> ladders;
    for (const ic::TopologyKind topo : {ic::TopologyKind::Mesh, ic::TopologyKind::Torus}) {
        platform::PlatformConfig base;
        base.ic = platform::IcKind::Xpipes;
        base.xpipes.width = 4;
        base.xpipes.height = 5;
        base.xpipes.topology = topo;
        ladders.push_back(sweep::SweepDriver{pc, ctx}.run(
            sweep::make_rate_sweep(base, {0.01, 0.8}, source), one_worker()));
    }
    const sweep::SweepResult& row = ladders[0][1];
    t.expect("open row: as delivered", checks::open_row(row, expected), false);
    sweep::SweepResult r = row;
    r.packets -= 1;
    t.expect("open row: delivered packets one short", checks::open_row(r, expected),
             true);
    r = row;
    r.net_lat_count -= 1;
    t.expect("open row: in-network sample dropped", checks::open_row(r, expected),
             true);
    r = row;
    r.sq_lat_mean += 1e-6;
    t.expect("open row: means no longer add up", checks::open_row(r, expected),
             true);

    t.expect("ladder: as measured", checks::ladder("mesh", ladders[0]), false);
    auto ladder = ladders[0];
    ladder[1].net_lat_mean = ladder[0].net_lat_mean - 0.5;
    t.expect("ladder: saturated point below zero load",
             checks::ladder("mesh", ladder), true);
    t.expect("ladder: zero-load point only",
             checks::ladder("mesh", {ladders[0][0], ladders[0][0]}), true);

    const double mesh = ladders[0][0].net_lat_mean;
    const double torus = ladders[1][0].net_lat_mean;
    t.expect("torus vs mesh: as measured", checks::torus_not_slower(torus, mesh),
             false);
    t.expect("torus vs mesh: swapped", checks::torus_not_slower(mesh + 1.0, mesh),
             true);
}

void report_checks(Tally& t) {
    tg::PatternConfig pc;
    pc.width = pc.height = 4;
    pc.packets_per_core = 50;
    apps::Workload ctx;
    ctx.name = "pattern_uniform_random";
    std::vector<sweep::Candidate> cands;
    for (const u32 fifo : {2u, 4u})
        for (int k = 1; k <= 10; ++k) {
            sweep::Candidate c;
            c.cfg.ic = platform::IcKind::Xpipes;
            c.cfg.xpipes.width = 4;
            c.cfg.xpipes.height = 5;
            c.cfg.xpipes.fifo_depth = fifo;
            c.cfg.xpipes.collect_latency = true;
            c.injection_rate = k / 100.0;
            c.name = "fifo" + std::to_string(fifo) + " r" + std::to_string(k);
            cands.push_back(std::move(c));
        }
    const sweep::SweepDriver driver{pc, ctx};
    sweep::SweepOptions opts = one_worker();
    opts.tier = sweep::Tier::Funnel;
    opts.funnel_top = 2;
    sweep::SweepMeta meta;
    meta.app = ctx.name;
    meta.n_cores = 16;
    meta.max_cycles = opts.max_cycles;
    meta.tier = opts.tier;
    meta.seed = opts.seed;
    meta.n_candidates = static_cast<u32>(cands.size());
    meta.funnel_top = opts.funnel_top;

    std::vector<sweep::SweepResult> full = driver.run(cands, opts);
    sweep::SweepMeta canon_meta = meta;
    sweep::canonicalize(canon_meta, full);
    const std::string canonical = sweep::json_report(full, canon_meta);
    std::vector<sweep::ParsedReport> shards;
    for (u32 k = 0; k < 3; ++k) {
        opts.shard = {k, 3};
        meta.shard = opts.shard;
        std::string err;
        shards.push_back(*sweep::parse_report_text(
            sweep::json_report(driver.run(cands, opts), meta), &err));
    }

    t.expect("emit->parse->emit: emitted report",
             checks::emit_parse_emit(canonical, nullptr), false);
    std::string padded = canonical;
    const std::string field = "\"busy_pct\": 0.0000";
    if (const std::size_t at = padded.find(field); at != std::string::npos)
        padded.insert(at + field.size(), "0");
    t.expect("emit->parse->emit: number not in emitted form",
             checks::emit_parse_emit(padded, nullptr), true);
    t.expect("emit->parse->emit: truncated report",
             checks::emit_parse_emit(canonical.substr(0, canonical.size() / 2),
                                     nullptr),
             true);

    t.expect("merge: 3 shards as emitted",
             checks::merged_matches(shards, canonical, nullptr), false);
    auto altered = shards;
    altered[1].rows[0].cycles += 1;
    t.expect("merge: one shard row altered",
             checks::merged_matches(altered, canonical, nullptr), true);
    altered = shards;
    altered[2].rows.pop_back();
    t.expect("merge: one shard row dropped",
             checks::merged_matches(altered, canonical, nullptr), true);
    altered = shards;
    altered.pop_back();
    t.expect("merge: one shard missing",
             checks::merged_matches(altered, canonical, nullptr), true);

    std::vector<sweep::SweepResult> survivors;
    for (const sweep::SweepResult& r : full)
        if (!r.analytic) survivors.push_back(r);
    const Payload payload{nullptr, &pc, &ctx, 16};
    std::vector<sweep::SweepResult> direct;
    for (const sweep::SweepResult& s : survivors)
        direct.push_back(
            evaluate_direct(cands[s.index], s.index, payload, one_worker(), nullptr).row);
    t.expect("survivors: direct Platform runs",
             checks::same_rows("survivors", direct, survivors), false);
    auto wrong = direct;
    wrong.back().lat_p99 += 1;
    t.expect("survivors: one latency percentile altered",
             checks::same_rows("survivors", wrong, survivors), true);
    wrong = direct;
    // Seeded as the next candidate; only the seed differs, not the index.
    wrong[0] = evaluate_direct(cands[survivors[0].index], survivors[0].index + 1,
                               payload, one_worker(), nullptr)
                   .row;
    wrong[0].index = survivors[0].index;
    t.expect("survivors: simulated with another candidate's seed",
             checks::same_rows("survivors", wrong, survivors), true);
    wrong = direct;
    wrong.pop_back();
    t.expect("survivors: one row dropped",
             checks::same_rows("survivors", wrong, survivors), true);
}

} // namespace

int self_test() {
    Tally t;
    replay_checks(t);
    open_checks(t);
    report_checks(t);
    std::printf("%s: %d check(s) misjudged\n", t.failures == 0 ? "PASS" : "FAIL",
                t.failures);
    return t.failures == 0 ? 0 : 1;
}

} // namespace tgbench
