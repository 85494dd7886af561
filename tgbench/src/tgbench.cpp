#include "tgbench.hpp"

#include <sys/resource.h>

#include <cstdio>

namespace tgbench {

void Outcome::count_rows(const std::vector<tgsim::sweep::SweepResult>& rows) {
    attempted += rows.size();
    for (const auto& r : rows)
        if (!r.ok()) ++failed;
}

Tracer::Scope::Scope(Tracer* t, std::string name, u64 request) : t_(t) {
    if (t_ == nullptr) return;
    Span s;
    s.name = std::move(name);
    s.id = t_->spans_.size() + 1;
    s.parent = t_->open_.empty() ? 0 : t_->spans_[t_->open_.back()].id;
    s.request = request;
    index_ = t_->spans_.size();
    t_->open_.push_back(index_);
    open_ = true;
    s.begin = Clock::now();
    t_->spans_.push_back(std::move(s));
}

double Tracer::Scope::finish() {
    if (!open_) return 0.0;
    open_ = false;
    Span& s = t_->spans_[index_];
    s.end = Clock::now();
    t_->open_.pop_back();
    return seconds_between(s.begin, s.end);
}

double Tracer::counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

bool Tracer::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                     "\"parent\": %llu, \"request\": %llu}}%s\n",
                     s.name.c_str(), us(s.begin), us(s.end) - us(s.begin),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "], \"counters\": {");
    bool first = true;
    for (const auto& [name, value] : counters_) {
        std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                     value);
        first = false;
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void report_window(const Window& w, Outcome& out) {
    out.metric("setup_s", w.setup_s, "s");
    out.metric("sim_cycles_per_s", w.cycles / w.wall_s, "cycles/s");
    out.metric("transactions_per_s", w.transactions / w.wall_s,
               "transactions/s");
    out.metric("candidates_per_s", w.candidates / w.wall_s, "candidates/s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void layer_metrics(const Tracer& t, Outcome& out) {
    const auto c = [&t](const char* name) { return t.counter(name); };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    constexpr double ns = 1e9;
    constexpr double us = 1e6;

    // tg_replay set-up layers -> setup_s
    out.metric("cpu.ref_ns_per_instr",
               ratio(ns * c("cpu.ref_run_s"), c("cpu.instructions")), "ns/instr");
    out.metric("tg.translate_ns_per_event",
               ratio(ns * c("tg.translate_s"), c("tg.trace_events")), "ns/event");
    out.metric("tg.tgp_roundtrip_ns_per_instr",
               ratio(ns * c("tg.tgp_roundtrip_s"), c("tg.tgp_instrs")),
               "ns/instr");
    out.metric("tg.assemble_ns_per_word",
               ratio(ns * c("tg.assemble_s"), c("tg.words")), "ns/word");

    // tg_replay replay layers -> sim_cycles_per_s, candidates_per_s
    out.metric("tg.replay_ns_per_instr",
               ratio(ns * c("replay.run_s"), c("replay.tg_instructions")),
               "ns/instr");
    for (const char* f : {"amba", "crossbar", "xpipes"}) {
        const std::string k = f;
        out.metric("sim.ns_per_cycle." + k,
                   ratio(ns * t.counter("replay.run_s." + k),
                         t.counter("replay.cycles." + k)),
                   "ns/cycle");
    }
    out.metric("platform.build_us",
               ratio(us * c("replay.build_s"), c("replay.candidates")), "us");
    out.metric("platform.checks_us",
               ratio(us * c("replay.checks_s"), c("replay.candidates")), "us");

    // open_uniform layers -> sim_cycles_per_s, transactions_per_s
    out.metric("sim.ns_per_cycle.zero_load",
               ratio(ns * c("open.zero_load.run_s"), c("open.zero_load.cycles")),
               "ns/cycle");
    for (const char* topo : {"mesh", "torus"}) {
        const std::string k = topo;
        out.metric("ic.xpipes.ns_per_router_visit." + k,
                   ratio(ns * t.counter("open.run_s." + k),
                         t.counter("open.router_visits." + k)),
                   "ns/visit");
    }
    const double open_run = c("open.run_s.mesh") + c("open.run_s.torus");
    const double visits =
        c("open.router_visits.mesh") + c("open.router_visits.torus");
    out.metric("ic.xpipes.ns_per_flit_hop", ratio(ns * open_run, c("open.flits")),
               "ns/hop");
    out.metric("ic.xpipes.router_visits_per_cycle",
               ratio(visits, c("open.cycles")), "visits/cycle");
    out.metric("ic.xpipes.flits_per_visit", ratio(c("open.flits"), visits),
               "flits/visit");
    out.metric("stats.summary_ns_per_sample",
               ratio(ns * c("stats.summary_s"), c("stats.samples")), "ns/sample");

    // dse_funnel layers -> candidates_per_s, peak_rss_mb, sim_cycles_per_s
    out.metric("analytic.us_per_candidate",
               ratio(us * c("analytic.evaluate_s"), c("analytic.candidates")),
               "us/candidate");
    out.metric("sweep.driver_overhead_us_per_candidate",
               ratio(us * (c("sweep.driver_run_s") - c("sweep.row_walls_s")),
                     c("sweep.driver_rows")),
               "us/candidate");
    out.metric("sweep.emit_ns_per_row",
               ratio(ns * c("sweep.emit_s"), c("sweep.emit_rows")), "ns/row");
    out.metric("sweep.parse_ns_per_row",
               ratio(ns * c("sweep.parse_s"), c("sweep.parse_rows")), "ns/row");
    out.metric("sweep.merge_ns_per_row",
               ratio(ns * c("sweep.merge_s"), c("sweep.merge_rows")), "ns/row");
    out.metric("sweep.report_bytes_per_row",
               ratio(c("sweep.emit_bytes"), c("sweep.emit_rows")), "bytes/row");
    out.metric("sweep.survivor_sim_s",
               ratio(c("survivor.run_s"), c("dse.passes")), "s");
}

} // namespace tgbench
