#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tgbench::checks {

using tgsim::sweep::bit_identical;

namespace {

std::string format(const char* fmt, auto... values) {
    char buf[512];
    std::snprintf(buf, sizeof buf, fmt, values...);
    return buf;
}

} // namespace

std::string row_ok(const SweepResult& r) {
    if (!r.ok())
        return format("%s: evaluation failed: %s", r.name.c_str(),
                      r.error.c_str());
    if (!r.completed || !r.checks_ok)
        return format("%s: completed=%d checks_ok=%d", r.name.c_str(),
                      r.completed ? 1 : 0, r.checks_ok ? 1 : 0);
    return "";
}

std::string same_rows(const std::string& what, const std::vector<SweepResult>& a,
                      const std::vector<SweepResult>& b) {
    if (a.size() != b.size())
        return format("%s: %zu rows vs %zu", what.c_str(), a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!bit_identical(a[i], b[i]))
            return format("%s: row %zu (%s) differs: cycles %llu vs %llu",
                          what.c_str(), i, a[i].name.c_str(),
                          static_cast<unsigned long long>(a[i].cycles),
                          static_cast<unsigned long long>(b[i].cycles));
    return "";
}

std::string accuracy(const std::string& fabric, Cycle tg, Cycle cpu,
                     double bound_pct) {
    if (cpu == 0) return fabric + ": CPU run reports 0 cycles";
    const double err = 100.0 * (static_cast<double>(tg) - static_cast<double>(cpu)) /
                       static_cast<double>(cpu);
    if (!(std::fabs(err) <= bound_pct))
        return format("%s: TG %llu vs CPU %llu cycles, error %+.3f%% beyond "
                      "+-%.2f%%",
                      fabric.c_str(), static_cast<unsigned long long>(tg),
                      static_cast<unsigned long long>(cpu), err, bound_pct);
    return "";
}

std::string tgp_roundtrip(const tgsim::tg::TgProgram& prog,
                          const std::string& text,
                          const tgsim::tg::TgProgram& back) {
    if (!(back == prog))
        return format("core %u: .tgp text does not parse back to the "
                      "translated program",
                      prog.core_id);
    if (tgsim::tg::to_text(back) != text)
        return format("core %u: re-printed .tgp text differs", prog.core_id);
    return "";
}

std::string open_row(const SweepResult& r, u64 expected_packets) {
    if (std::string err = row_ok(r); !err.empty()) return err;
    if (!r.has_open) return r.name + ": no open-loop latency block";
    if (r.packets != expected_packets)
        return format("%s: %llu request packets delivered, %llu offered",
                      r.name.c_str(), static_cast<unsigned long long>(r.packets),
                      static_cast<unsigned long long>(expected_packets));
    if (r.lat_count != r.net_lat_count || r.lat_count != r.sq_lat_count)
        return format("%s: sample counts differ: end-to-end %llu, in-network "
                      "%llu, source-queue %llu",
                      r.name.c_str(), static_cast<unsigned long long>(r.lat_count),
                      static_cast<unsigned long long>(r.net_lat_count),
                      static_cast<unsigned long long>(r.sq_lat_count));
    const double sum = r.sq_lat_mean + r.net_lat_mean;
    if (!(std::fabs(sum - r.lat_mean) <= 1e-9 * std::max(1.0, r.lat_mean)))
        return format("%s: source-queue %.12g + in-network %.12g != "
                      "end-to-end %.12g",
                      r.name.c_str(), r.sq_lat_mean, r.net_lat_mean, r.lat_mean);
    return "";
}

std::string ladder(const std::string& topology,
                   const std::vector<SweepResult>& rows) {
    if (rows.size() < 2) return topology + ": ladder has no loaded point";
    const tgsim::sweep::SaturationPoint sat = tgsim::sweep::find_saturation(rows);
    if (!sat.found)
        return topology + ": ladder never reaches saturation";
    const double zero_load = rows.front().net_lat_mean;
    for (std::size_t i = 1; i < rows.size(); ++i)
        if (!(rows[i].net_lat_mean >= zero_load))
            return format("%s: in-network mean %.4f at %s is below the "
                          "zero-load %.4f",
                          topology.c_str(), rows[i].net_lat_mean,
                          rows[i].name.c_str(), zero_load);
    return "";
}

std::string torus_not_slower(double torus_net_mean, double mesh_net_mean) {
    if (!(torus_net_mean <= mesh_net_mean))
        return format("zero-load in-network latency: torus %.4f > mesh %.4f",
                      torus_net_mean, mesh_net_mean);
    return "";
}

std::string same_text(const std::string& what, const std::string& a,
                      const std::string& b) {
    if (a == b) return "";
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    return format("%s: %zu vs %zu bytes, first difference at byte %zu",
                  what.c_str(), a.size(), b.size(), i);
}

std::string emit_parse_emit(const std::string& report, Tracer* t) {
    std::string err;
    const auto parsed = parse_report(report, t, &err);
    if (!parsed) return "emit->parse: " + err;
    return same_text("emit->parse->emit", emit_report(parsed->rows, parsed->meta, t),
                     report);
}

std::string merged_matches(std::vector<tgsim::sweep::ParsedReport> shards,
                           const std::string& canonical, Tracer* t) {
    std::string err;
    const auto merged = merge_shards(std::move(shards), t, &err);
    if (!merged) return "merge: " + err;
    return same_text("merged 3-shard report vs unsharded",
                     emit_report(merged->rows, merged->meta, t), canonical);
}

} // namespace tgbench::checks
