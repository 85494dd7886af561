// open_uniform — open-loop uniform-random traffic on the 4x4 core grid
// (a 4x5 ×pipes fabric: 16 cores + shared memory + semaphores), one worker,
// mesh and torus. Each topology runs a four-point ladder: one zero-load
// point, then points at and past the knee. The saturated points spend
// their time in routers and NIs; the zero-load point supplies most of the
// simulated cycles while carrying few flits, so its time goes to the
// kernel's timers and gating. The grid stops at 16 cores because 17 or more
// cores overlap the shared-memory window (see CHANGES.md).
//
// Input from the seed: the base of every generator's random stream
// (sweep::derive_seed per candidate and core).
#include "checks.hpp"
#include "direct.hpp"
#include "platform/platform.hpp"
#include "tgbench.hpp"

namespace tgbench {

using namespace tgsim;

namespace {

constexpr u32 kGrid = 4;
constexpr u32 kCores = kGrid * kGrid;
constexpr u64 kPacketsPerCore = 1000;
/// Offered rates (transactions per core per cycle): zero load, then the
/// mesh knee and beyond (the torus knee sits at 0.64).
constexpr double kLadder[] = {0.01, 0.48, 0.64, 0.80};
constexpr std::size_t kPoints = std::size(kLadder);
struct Topology {
    const char* key;
    ic::TopologyKind kind;
};
constexpr Topology kTopologies[] = {{"mesh", ic::TopologyKind::Mesh},
                                    {"torus", ic::TopologyKind::Torus}};

tg::PatternConfig pattern() {
    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::UniformRandom;
    pc.width = kGrid;
    pc.height = kGrid;
    pc.injection_rate = kLadder[0];
    pc.packets_per_core = kPacketsPerCore;
    return pc;
}

apps::Workload context() {
    apps::Workload w; // patterns compute nothing: no images, no checks
    w.name = "pattern_uniform_random";
    return w;
}

/// Mesh ladder first, then the torus ladder.
std::vector<sweep::Candidate> candidates() {
    tg::SourceConfig source;
    source.mode = tg::SourceMode::Open;
    std::vector<sweep::Candidate> out;
    for (const Topology& topo : kTopologies) {
        platform::PlatformConfig base;
        base.ic = platform::IcKind::Xpipes;
        base.xpipes.width = kGrid;
        base.xpipes.height = platform::xpipes_height_for(kCores, kGrid);
        base.xpipes.topology = topo.kind;
        for (sweep::Candidate& c : sweep::make_rate_sweep(
                 base, {std::begin(kLadder), std::end(kLadder)}, source)) {
            c.name = std::string{topo.key} + " " + c.name;
            out.push_back(std::move(c));
        }
    }
    return out;
}

sweep::SweepOptions options(u64 seed) {
    sweep::SweepOptions o;
    o.jobs = 1;
    o.seed = seed;
    return o;
}

void check_rows(const std::vector<sweep::SweepResult>& rows, Outcome& out) {
    for (const sweep::SweepResult& r : rows)
        out.check(checks::open_row(r, kCores * kPacketsPerCore));
    if (rows.size() != 2 * kPoints) {
        out.check("open_uniform: wrong row count");
        return;
    }
    const std::vector<sweep::SweepResult> mesh(rows.begin(), rows.begin() + kPoints);
    const std::vector<sweep::SweepResult> torus(rows.begin() + kPoints, rows.end());
    out.check(checks::ladder("mesh", mesh));
    out.check(checks::ladder("torus", torus));
    out.check(checks::torus_not_slower(torus.front().net_lat_mean,
                                       mesh.front().net_lat_mean));
}

} // namespace

void measure_open_uniform(const Args& args, Outcome& out) {
    const tg::PatternConfig pc = pattern();
    const sweep::SweepDriver driver{pc, context()};
    const std::vector<sweep::Candidate> cands = candidates();
    const sweep::SweepOptions opts = options(args.seed);
    Window win;
    win.setup_s = seconds_between(args.start, Clock::now());

    std::vector<sweep::SweepResult> first;
    u64 rounds = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        std::vector<sweep::SweepResult> rows = driver.run(cands, opts);
        ++rounds;
        out.count_rows(rows);
        for (const sweep::SweepResult& r : rows) {
            win.cycles += static_cast<double>(r.cycles);
            win.transactions += static_cast<double>(r.packets);
        }
        if (first.empty()) first = std::move(rows);
        else out.check(checks::same_rows("open_uniform round", first, rows));
    } while (seconds_between(t0, Clock::now()) < args.seconds);
    win.wall_s = seconds_between(t0, Clock::now());
    win.candidates = static_cast<double>(rounds * cands.size());
    check_rows(first, out);
    report_window(win, out);
}

void trace_open_uniform(const Args& args, Tracer& t, Outcome& out) {
    Tracer::Scope pass(&t, "pass.open_uniform", 0);
    const tg::PatternConfig pc = pattern();
    const apps::Workload ctx = context();
    const std::vector<sweep::Candidate> cands = candidates();
    const sweep::SweepOptions opts = options(args.seed);
    const Payload payload{nullptr, &pc, &ctx, kCores};

    std::vector<sweep::SweepResult> direct;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        Direct d = evaluate_direct(cands[i], static_cast<u32>(i), payload, opts, &t);
        const std::string key = kTopologies[i / kPoints].key;
        const auto cycles = static_cast<double>(d.row.cycles);
        Tracer::add(&t, "open.run_s." + key, d.run_s);
        Tracer::add(&t, "open.router_visits." + key,
                    static_cast<double>(d.router_visits));
        Tracer::add(&t, "open.flits", static_cast<double>(d.flits_routed));
        Tracer::add(&t, "open.cycles", cycles);
        if (i % kPoints == 0) {
            Tracer::add(&t, "open.zero_load.run_s", d.run_s);
            Tracer::add(&t, "open.zero_load.cycles", cycles);
        }
        Tracer::add(&t, "stats.summary_s", d.summary_s);
        Tracer::add(&t, "stats.samples", static_cast<double>(d.summary_samples));
        Tracer::add(&t, "overhead.open_uniform.traced_s",
                    d.build_s + d.run_s + d.summary_s);
        direct.push_back(std::move(d.row));
    }
    out.count_rows(direct);
    check_rows(direct, out);

    Tracer::Scope s(&t, "sweep.driver_run.open_uniform", 0);
    const std::vector<sweep::SweepResult> rows =
        sweep::SweepDriver{pc, ctx}.run(cands, opts);
    Tracer::add(&t, "overhead.open_uniform.driver_s", s.finish());
    out.check(checks::same_rows("traced open_uniform vs SweepDriver", direct, rows));
}

} // namespace tgbench
