// fig5-sim: the Figure-5 grid in timing-only mode — 8 SPEC-shaped
// profiles x the 5 evaluated designs at the paper's 16 GB geometry,
// ExperimentConfig defaults, each cell one sim::run_single call,
// dispatched over 4 worker threads.
//
// The simulated inputs are the paper grid's fixed trace seed, so the
// normalised IPC and write figures repeat exactly on every run and any
// model change shows; --seed picks the cell re-run serially as the
// output check. Host time is what the benchmark measures: per cell, per
// grid, per design. Cells are handed out in one fixed order, and
// throughput is taken over the workers' busy time, so how the last
// cells happen to pack onto the workers does not move it.
#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ccnvm;

constexpr std::size_t kWorkers = 4;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinGrids = 3;  // 120 cells: p90 has 12 beyond it

const core::DesignKind kKinds[] = {
    core::DesignKind::kWoCc, core::DesignKind::kStrict,
    core::DesignKind::kOsirisPlus, core::DesignKind::kCcNvmNoDs,
    core::DesignKind::kCcNvm};
constexpr std::size_t kNumKinds = sizeof(kKinds) / sizeof(kKinds[0]);

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  const auto& da = a.design_stats;
  const auto& db = b.design_stats;
  return a.instructions == b.instructions && a.cycles == b.cycles &&
         a.ipc == b.ipc && a.nvm_writes == b.nvm_writes &&
         a.traffic.total_writes() == b.traffic.total_writes() &&
         a.traffic.reads == b.traffic.reads &&
         da.write_backs == db.write_backs && da.drains == db.drains &&
         da.drain_cycles == db.drain_cycles && da.hmac_ops == db.hmac_ops &&
         a.l2_stats.misses == b.l2_stats.misses &&
         a.meta_stats.hits == b.meta_stats.hits &&
         a.meta_stats.misses == b.meta_stats.misses;
}

struct Grid {
  std::vector<sim::BenchmarkRow> rows;
  std::vector<double> cell_ms;  // indexed like rows[p].runs[k]
};

/// Runs every cell once over kWorkers threads, profile-major.
Grid run_grid(const std::vector<trace::WorkloadProfile>& profiles,
              const sim::ExperimentConfig& config, SpanLog* spans) {
  const std::size_t cells = profiles.size() * kNumKinds;
  Grid grid;
  grid.rows.resize(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    grid.rows[p].benchmark = profiles[p].name;
    grid.rows[p].runs.resize(kNumKinds);
  }
  grid.cell_ms.assign(cells, 0.0);
  std::vector<SpanLog> logs(kWorkers);
  const std::uint64_t grid_id = SpanLog::reserve_id();
  std::atomic<std::size_t> next{0};
  const std::uint64_t g0 = now_ns();
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t cell = next.fetch_add(1); cell < cells;
           cell = next.fetch_add(1)) {
        const std::size_t p = cell / kNumKinds;
        const std::size_t k = cell % kNumKinds;
        const std::uint64_t t0 = now_ns();
        grid.rows[p].runs[k] = sim::run_single(profiles[p], kKinds[k], config);
        const std::uint64_t t1 = now_ns();
        grid.cell_ms[cell] = static_cast<double>(t1 - t0) / 1e6;
        if (spans != nullptr) {
          static const std::map<core::DesignKind, const char*> names = {
              {core::DesignKind::kWoCc, "sim.run.wo_cc"},
              {core::DesignKind::kStrict, "sim.run.strict"},
              {core::DesignKind::kOsirisPlus, "sim.run.osiris_plus"},
              {core::DesignKind::kCcNvmNoDs, "sim.run.cc_nvm_nods"},
              {core::DesignKind::kCcNvm, "sim.run.cc_nvm"}};
          logs[w].record(names.at(kKinds[k]), t0, t1, grid_id, cell,
                         static_cast<std::uint32_t>(w));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const std::uint64_t g1 = now_ns();
  if (spans != nullptr) {
    for (SpanLog& log : logs) {
      spans->spans().insert(spans->spans().end(), log.spans().begin(),
                            log.spans().end());
    }
    spans->record_with_id(grid_id, "sim.grid", g0, g1);
  }
  return grid;
}

bool same_grid(const Grid& a, const Grid& b) {
  for (std::size_t p = 0; p < a.rows.size(); ++p) {
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      if (!same_result(a.rows[p].runs[k].result, b.rows[p].runs[k].result)) {
        return false;
      }
    }
  }
  return true;
}

struct Measured {
  std::vector<Grid> grids;
  std::vector<double> cell_ms;
  double busy_s = 0.0;  // sum of cell times over all workers
};

Measured measure(const std::vector<trace::WorkloadProfile>& profiles,
                 const sim::ExperimentConfig& config, double seconds,
                 SpanLog* spans, RunReport& report) {
  Measured m;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || m.grids.size() < kMinGrids) {
    Grid g = run_grid(profiles, config, spans);
    report.attempted += g.cell_ms.size();
    if (!m.grids.empty() && !same_grid(m.grids.front(), g)) {
      report.failed += g.cell_ms.size();
      report.fail("grid results differ between repetitions");
    }
    m.cell_ms.insert(m.cell_ms.end(), g.cell_ms.begin(), g.cell_ms.end());
    for (double ms : g.cell_ms) m.busy_s += ms / 1e3;
    m.grids.push_back(std::move(g));
  }
  return m;
}

std::string design_key(core::DesignKind kind) {
  switch (kind) {
    case core::DesignKind::kWoCc: return "wo_cc";
    case core::DesignKind::kStrict: return "strict";
    case core::DesignKind::kOsirisPlus: return "osiris_plus";
    case core::DesignKind::kCcNvmNoDs: return "cc_nvm_nods";
    default: return "cc_nvm";
  }
}

}  // namespace

void run_fig5(const RunOptions& options, RunReport& report) {
  const sim::ExperimentConfig config;

  // Grid set-up: the profile list, then for each design one System at
  // the 16 GB timing-only geometry, warmed with the first profile's
  // warm-up stream — the construction and cache warm-up every cell
  // performs before it measures.
  std::vector<trace::WorkloadProfile> profiles;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    profiles = trace::spec2006_profiles();
    for (core::DesignKind kind : kKinds) {
      sim::SystemConfig sys;
      sys.kind = kind;
      sys.design = config.design;
      sim::System system(sys);
      trace::TraceGenerator gen(profiles.front(), config.seed);
      system.run(gen, config.warmup_refs);
    }
    setups.push_back(seconds_since(t0));
  }

  const std::size_t cells = profiles.size() * kNumKinds;
  Rng rng(derive_seed(options.seed, 0xf15));
  const std::size_t check_cell = rng.below(cells);
  const std::uint64_t refs_per_cell = config.warmup_refs + config.measure_refs;

  // Output check: one cell re-run serially must equal the grid's cell.
  const auto check = [&](const Grid& grid) {
    const std::size_t p = check_cell / kNumKinds;
    const std::size_t k = check_cell % kNumKinds;
    const sim::DesignRun serial = sim::run_single(profiles[p], kKinds[k], config);
    ++report.attempted;
    if (!same_result(serial.result, grid.rows[p].runs[k].result)) {
      ++report.failed;
      report.fail("serial re-run of " + profiles[p].name + "/" +
                  design_key(kKinds[k]) + " differs from the grid");
    }
    report.detail("checked cell " + profiles[p].name + "/" + design_key(kKinds[k]) +
                  " serially against the grid");
  };

  if (!options.trace) {
    Measured m = measure(profiles, config, options.seconds, nullptr, report);
    check(m.grids.front());
    const std::vector<sim::BenchmarkRow>& rows = m.grids.front().rows;
    const double refs_per_s =
        static_cast<double>(refs_per_cell * cells * m.grids.size()) /
        (m.busy_s / static_cast<double>(kWorkers));
    const std::size_t n = m.cell_ms.size();
    const double p50 = median(m.cell_ms);
    const std::optional<double> p90 = percentile(m.cell_ms, 0.90);
    if (!p90) report.fail("cell p90 refused: fewer than 10 samples beyond it");
    const double ipc = sim::geomean_ipc(rows, core::DesignKind::kCcNvm);
    const double writes = sim::geomean_writes(rows, core::DesignKind::kCcNvm);
    report.add_e2e("ops_per_s", refs_per_s, "1/s");
    report.add_e2e("latency_p50_ms", p50, "ms");
    report.add_e2e("latency_tail_ms", p90.value_or(0.0), "ms");
    report.add_e2e("setup_s", median(setups), "s");
    report.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
    report.add_e2e("nvm_write_amp", writes, "B/B");
    report.detail(fmt_metric("sim_refs_per_s", refs_per_s, "1/s") + " (" +
                  std::to_string(m.grids.size()) + " grids)");
    report.detail(fmt_metric("cell_ms_p50", p50, "ms") + " (n=" +
                  std::to_string(n) + ")");
    report.detail(fmt_metric("cell_ms_p90", p90.value_or(0.0), "ms") + " (n=" +
                  std::to_string(n) + ")");
    report.detail(fmt_metric("sim_ipc_norm", ipc, "ratio") +
                  " (cc-NVM geomean / w/o CC, simulated, exact)");
    report.detail(fmt_metric("sim_writes_norm", writes, "ratio") +
                  " (cc-NVM geomean / w/o CC, simulated, exact)");
    report.detail("ops_per_s counts simulated references per second of "
                  "the 4 workers' busy time; "
                  "latency_* are host times of one grid cell; nvm_write_amp "
                  "is sim_writes_norm");
    return;
  }

  const double half = options.seconds / 2.0;
  Measured plain = measure(profiles, config, half, nullptr, report);
  SpanLog spans;
  Measured traced = measure(profiles, config, half, &spans, report);
  check(traced.grids.front());
  const std::vector<sim::BenchmarkRow>& rows = traced.grids.front().rows;

  std::map<core::DesignKind, double> host_s;
  for (const Grid& g : traced.grids) {
    for (std::size_t c = 0; c < cells; ++c) {
      host_s[kKinds[c % kNumKinds]] += g.cell_ms[c] / 1e3;
    }
  }
  const double grids = static_cast<double>(traced.grids.size());
  for (core::DesignKind kind : kKinds) {
    report.add_layer("sim.host_s." + design_key(kind), host_s[kind] / grids, "s");
  }
  for (core::DesignKind kind : kKinds) {
    if (kind == core::DesignKind::kWoCc) continue;
    report.add_layer("sim.ipc_norm." + design_key(kind), sim::geomean_ipc(rows, kind),
                     "ratio");
    report.add_layer("sim.writes_norm." + design_key(kind),
                     sim::geomean_writes(rows, kind), "ratio");
  }

  // Cache and core figures over the cc-NVM cells; one op = one measured
  // simulated reference.
  double l2_hits = 0, l2_misses = 0, meta_hits = 0, meta_misses = 0;
  core::DesignStats cc{};
  std::uint64_t dirty_evictions = 0;
  for (const sim::BenchmarkRow& row : rows) {
    for (const sim::DesignRun& run : row.runs) {
      l2_hits += static_cast<double>(run.result.l2_stats.hits);
      l2_misses += static_cast<double>(run.result.l2_stats.misses);
      if (run.kind != core::DesignKind::kCcNvm) continue;
      meta_hits += static_cast<double>(run.result.meta_stats.hits);
      meta_misses += static_cast<double>(run.result.meta_stats.misses);
      dirty_evictions += run.result.meta_stats.dirty_evictions;
      const core::DesignStats& d = run.result.design_stats;
      cc.write_backs += d.write_backs;
      cc.reads += d.reads;
      cc.drains += d.drains;
      for (std::size_t k = 0; k < 4; ++k) {
        cc.drains_by_trigger[k] += d.drains_by_trigger[k];
      }
      cc.drain_cycles += d.drain_cycles;
      cc.page_reencryptions += d.page_reencryptions;
      cc.hmac_ops += d.hmac_ops;
      cc.aes_ops += d.aes_ops;
    }
  }
  const double refs = static_cast<double>(config.measure_refs * profiles.size());
  report.add_layer("cache.l2_miss_rate", l2_misses / (l2_hits + l2_misses), "ratio");
  report.add_layer("cache.meta_hit_rate.cc_nvm",
                   meta_hits / (meta_hits + meta_misses), "ratio");
  report.add_layer("sim.drains_per_kref.cc_nvm",
                   static_cast<double>(cc.drains) * 1e3 / refs, "count");
  report.add_layer("core.write_backs_per_op",
                   static_cast<double>(cc.write_backs) / refs, "count");
  report.add_layer("core.reads_per_op", static_cast<double>(cc.reads) / refs,
                   "count");
  report.add_layer("core.meta_hit_rate", meta_hits / (meta_hits + meta_misses),
                   "ratio");
  report.add_layer("core.meta_misses_per_op", meta_misses / refs, "count");
  report.add_layer("core.meta_dirty_evictions_per_op",
                   static_cast<double>(dirty_evictions) / refs, "count");
  report.add_layer("core.drains_per_op", static_cast<double>(cc.drains) / refs,
                   "count");
  const char* const triggers[] = {"core.drains.daq", "core.drains.evict",
                                  "core.drains.limit", "core.drains.explicit"};
  for (std::size_t k = 0; k < 4; ++k) {
    report.add_layer(triggers[k], static_cast<double>(cc.drains_by_trigger[k]),
                     "count");
  }
  report.add_layer("core.drain_cycles_per_op",
                   static_cast<double>(cc.drain_cycles) / refs, "cycles");
  report.add_layer("core.page_reencryptions",
                   static_cast<double>(cc.page_reencryptions), "count");
  report.add_layer("crypto.hmac_per_op", static_cast<double>(cc.hmac_ops) / refs,
                   "count");
  report.add_layer("crypto.aes_per_op", static_cast<double>(cc.aes_ops) / refs,
                   "count");

  // Timing-only mode models crypto latency instead of computing it, so
  // the host share estimate is 0 here by construction.
  const CryptoUnitCosts costs = measure_crypto_unit_costs(options.seed);
  add_crypto_layer(costs, 0.0, 0.0, traced.busy_s, report);

  const double plain_rate = static_cast<double>(plain.grids.size()) / plain.busy_s;
  const double traced_rate = grids / traced.busy_s;
  report.add_layer("trace.overhead_pct",
                   (plain_rate - traced_rate) / plain_rate * 100.0, "%");
  report.add_layer("trace.spans", static_cast<double>(spans.spans().size()), "count");
  dump_spans(spans.spans(),
             options.work_dir + "/spans-" + options.workload + "-" +
                 std::to_string(options.seed) + ".csv",
             report);
}

}  // namespace perfbench
