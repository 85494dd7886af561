// tg_replay — the paper's flow: MP-matrix on 8 CPU cores is traced once on
// AMBA round-robin, translated to TG programs, taken through the .tgp text
// form and assembled (the set-up), then replayed through sweep::SweepDriver
// with one worker on AMBA round-robin, the crossbar and a 4x3 ×pipes mesh.
//
// Inputs from the seed: the two operand matrices. The expected product is
// computed here, on the host, and every replay must leave it in shared
// memory.
#include <random>
#include <stdexcept>

#include "apps/apps.hpp"
#include "checks.hpp"
#include "direct.hpp"
#include "platform/platform.hpp"
#include "tg/translator.hpp"
#include "tgbench.hpp"

namespace tgbench {

using namespace tgsim;

namespace {

constexpr u32 kCores = 8;
constexpr u32 kMatrixN = 32;
constexpr Cycle kMaxCycles = 100'000'000;

/// Span/counter key of each fabric, in candidate order.
constexpr const char* kFabricKeys[] = {"amba", "crossbar", "xpipes"};

std::vector<sweep::Candidate> fabrics() {
    std::vector<sweep::Candidate> c(3);
    c[0].cfg.ic = platform::IcKind::Amba;
    c[0].cfg.arbitration = ic::Arbitration::RoundRobin;
    c[1].cfg.ic = platform::IcKind::Crossbar;
    c[2].cfg.ic = platform::IcKind::Xpipes;
    c[2].cfg.xpipes.width = 4; // 8 cores + shared memory + semaphores
    c[2].cfg.xpipes.height = 3;
    for (std::size_t i = 0; i < c.size(); ++i) c[i].name = kFabricKeys[i];
    return c;
}

sweep::SweepOptions options(u64 seed) {
    sweep::SweepOptions o;
    o.jobs = 1;
    o.max_cycles = kMaxCycles;
    o.seed = seed;
    return o;
}

/// The MP-matrix programs with operand matrices drawn from the seed and the
/// expected product computed on the host.
apps::Workload make_input(u64 seed) {
    apps::Workload w = apps::make_mp_matrix({kCores, kMatrixN});
    constexpr u32 n = kMatrixN;
    if (w.shared_init.size() != 2 || w.shared_init[0].words.size() != n * n ||
        w.shared_init[1].words.size() != n * n)
        throw std::runtime_error{"make_mp_matrix: unexpected operand layout"};
    std::mt19937_64 rng{seed};
    std::vector<u32>& a = w.shared_init[0].words;
    std::vector<u32>& b = w.shared_init[1].words;
    for (u32& x : a) x = static_cast<u32>(rng() & 0xFFu);
    for (u32& x : b) x = static_cast<u32>(rng() & 0xFFu);
    const u32 c_addr = w.shared_init[1].addr + 4 * n * n;
    w.checks.clear();
    for (u32 i = 0; i < n; ++i)
        for (u32 j = 0; j < n; ++j) {
            u32 acc = 0;
            for (u32 k = 0; k < n; ++k) acc += a[i * n + k] * b[k * n + j];
            w.checks.push_back({c_addr + 4 * (i * n + j), acc});
        }
    return w;
}

struct Prepared {
    apps::Workload workload;
    std::vector<tg::AssembledTg> binaries;
};

/// Everything a user pays before evaluating any fabric: the workload, the
/// traced CPU reference run, translation, the .tgp round trip and assembly.
Prepared prepare(u64 seed, Tracer* t, Outcome& out) {
    Prepared p;
    p.workload = make_input(seed);
    const apps::Workload& w = p.workload;

    platform::PlatformConfig cfg;
    cfg.n_cores = kCores;
    cfg.ic = platform::IcKind::Amba;
    cfg.arbitration = ic::Arbitration::RoundRobin;
    cfg.collect_traces = true;
    platform::Platform ref{cfg};
    ref.load_workload(w);
    Tracer::Scope run(t, "cpu.ref_run", 0);
    const platform::RunResult res = ref.run(kMaxCycles);
    Tracer::add(t, "cpu.ref_run_s", run.finish());
    Tracer::add(t, "cpu.instructions", static_cast<double>(res.total_instructions));
    std::string msg;
    if (!res.completed) out.check("CPU reference run did not complete");
    else if (!ref.run_checks(w, &msg)) out.check("CPU reference run: " + msg);

    tg::TranslateOptions topt;
    topt.polls = w.polls;
    std::vector<tg::TgProgram> programs;
    for (const tg::Trace& trace : ref.traces()) {
        Tracer::Scope s(t, "tg.translate", trace.core_id);
        tg::TranslateResult tr = tg::translate(trace, topt);
        Tracer::add(t, "tg.translate_s", s.finish());
        Tracer::add(t, "tg.trace_events", static_cast<double>(tr.events_in));
        programs.push_back(std::move(tr.program));
    }

    for (tg::TgProgram& prog : programs) {
        Tracer::Scope s(t, "tg.tgp_roundtrip", prog.core_id);
        const std::string text = tg::to_text(prog);
        tg::TgProgram back = tg::program_from_text(text);
        Tracer::add(t, "tg.tgp_roundtrip_s", s.finish());
        Tracer::add(t, "tg.tgp_instrs", static_cast<double>(prog.instrs.size()));
        out.check(checks::tgp_roundtrip(prog, text, back));
        prog = std::move(back); // replay what the text form carries
    }

    Tracer::Scope s(t, "tg.assemble", 0);
    p.binaries = tg::assemble_all(programs);
    Tracer::add(t, "tg.assemble_s", s.finish());
    for (const tg::AssembledTg& bin : p.binaries)
        Tracer::add(t, "tg.words", static_cast<double>(bin.image.size()));
    return p;
}

/// The CPU cores themselves on the candidate's fabric: the ground truth of
/// the accuracy bound.
platform::RunResult cpu_run(const sweep::Candidate& cand, const apps::Workload& w,
                            Outcome& out) {
    platform::PlatformConfig cfg = cand.cfg;
    cfg.n_cores = kCores;
    platform::Platform p{cfg};
    p.load_workload(w);
    const platform::RunResult res = p.run(kMaxCycles);
    std::string msg;
    if (!res.completed) out.check(cand.name + ": CPU run did not complete");
    else if (!p.run_checks(w, &msg)) out.check(cand.name + ": CPU run: " + msg);
    return res;
}

} // namespace

void measure_tg_replay(const Args& args, Outcome& out) {
    const Prepared p = prepare(args.seed, nullptr, out);
    const sweep::SweepDriver driver{p.binaries, p.workload};
    const std::vector<sweep::Candidate> cands = fabrics();
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
        for (const sweep::SweepResult& r : rows)
            win.cycles += static_cast<double>(r.cycles);
        if (first.empty()) first = std::move(rows);
        else out.check(checks::same_rows("tg_replay round", first, rows));
    } while (seconds_between(t0, Clock::now()) < args.seconds);
    win.wall_s = seconds_between(t0, Clock::now());
    win.candidates = static_cast<double>(rounds * cands.size());

    // Outside the window: memory checks, the CPU-core runs for the accuracy
    // bound, and one direct replay per fabric for its transaction count
    // (deterministic, so it stands for every round). The Table 2 line
    // (reference only, never a metric) compares the two runs' walls.
    const Payload payload{&p.binaries, nullptr, &p.workload, kCores};
    std::fprintf(stderr, "%-9s %10s %10s %8s %9s %9s %6s\n", "fabric", "TG cyc",
                 "CPU cyc", "error", "TG wall", "CPU wall", "gain");
    for (std::size_t i = 0; i < cands.size(); ++i) {
        out.check(checks::row_ok(first[i]));
        const Direct d = evaluate_direct(cands[i], static_cast<u32>(i), payload,
                                         opts, nullptr);
        out.check(checks::same_rows("direct replay vs SweepDriver", {d.row}, {first[i]}));
        win.transactions += static_cast<double>(rounds * d.tg_transactions);
        const platform::RunResult cpu = cpu_run(cands[i], p.workload, out);
        out.check(checks::accuracy(cands[i].name, first[i].cycles, cpu.cycles,
                                   checks::kAccuracyBoundPct));
        std::fprintf(stderr, "%-9s %10llu %10llu %+7.3f%% %8.4fs %8.4fs %5.2fx\n",
                     cands[i].name.c_str(),
                     static_cast<unsigned long long>(d.row.cycles),
                     static_cast<unsigned long long>(cpu.cycles),
                     100.0 * (static_cast<double>(d.row.cycles) -
                              static_cast<double>(cpu.cycles)) /
                         static_cast<double>(cpu.cycles),
                     d.row.wall_seconds, cpu.wall_seconds,
                     cpu.wall_seconds / d.row.wall_seconds);
    }
    report_window(win, out);
}

void trace_tg_replay(const Args& args, Tracer& t, Outcome& out) {
    Tracer::Scope pass(&t, "pass.tg_replay", 0);
    const Prepared p = prepare(args.seed, &t, out);
    const std::vector<sweep::Candidate> cands = fabrics();
    const sweep::SweepOptions opts = options(args.seed);
    const Payload payload{&p.binaries, nullptr, &p.workload, kCores};

    std::vector<sweep::SweepResult> direct;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        Direct d = evaluate_direct(cands[i], static_cast<u32>(i), payload, opts, &t);
        const std::string key = kFabricKeys[i];
        Tracer::add(&t, "replay.build_s", d.build_s);
        Tracer::add(&t, "replay.run_s", d.run_s);
        Tracer::add(&t, "replay.checks_s", d.checks_s);
        Tracer::add(&t, "replay.candidates", 1.0);
        Tracer::add(&t, "replay.tg_instructions",
                    static_cast<double>(d.row.total_instructions));
        Tracer::add(&t, "replay.run_s." + key, d.run_s);
        Tracer::add(&t, "replay.cycles." + key, static_cast<double>(d.row.cycles));
        Tracer::add(&t, "overhead.tg_replay.traced_s",
                    d.build_s + d.run_s + d.checks_s);
        out.check(checks::row_ok(d.row));
        direct.push_back(std::move(d.row));
    }
    out.count_rows(direct);

    Tracer::Scope s(&t, "sweep.driver_run.tg_replay", 0);
    const std::vector<sweep::SweepResult> rows =
        sweep::SweepDriver{p.binaries, p.workload}.run(cands, opts);
    Tracer::add(&t, "overhead.tg_replay.driver_s", s.finish());
    out.check(checks::same_rows("traced tg_replay vs SweepDriver", direct, rows));
}

} // namespace tgbench
