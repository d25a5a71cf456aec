// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <kv-a-mem|kv-a-durable|reopen-crashed|fig5-sim>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints human-readable detail lines, then, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. perfbench/run.py builds this binary and keeps the metrics
// BENCHMARK.json declares in the JSON line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string fmt_metric(const std::string& name, double value,
                       const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s = %.9g %s", name.c_str(), value,
                unit.c_str());
  return buf;
}

void dump_spans(const std::vector<Span>& spans, const std::string& path,
                RunReport& report) {
  std::map<std::uint64_t, std::uint64_t> child_ns;  // parent id -> sum
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Agg {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> by_name;
  std::ofstream out(path);
  out << "id,parent,request,thread,name,start_ns,end_ns,self_ns\n";
  for (const Span& s : spans) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t kids = it == child_ns.end() ? 0 : it->second;
    const std::uint64_t self = kids > dur ? 0 : dur - kids;
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.thread
        << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
        << self << '\n';
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_ms += static_cast<double>(dur) / 1e6;
    a.self_ms += static_cast<double>(self) / 1e6;
  }
  for (const auto& [name, a] : by_name) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "span %-24s count=%-8llu total_ms=%.3f self_ms=%.3f",
                  name.c_str(), static_cast<unsigned long long>(a.count),
                  a.total_ms, a.self_ms);
    report.detail(buf);
  }
}

namespace {

// Every metric the binary reports. Every run prints all of the list it
// belongs to; a per-layer metric a workload does not load reads 0.
// run.py passes on the ones BENCHMARK.json declares (the reopen-only
// metrics belong to a workload it does not gate).
const char* const kPerLayer[][2] = {
    {"service.batch_avg", "count"},
    {"service.ops_per_barrier", "count"},
    {"service.barriers_per_op", "count"},
    {"service.queue_high_water", "count"},
    {"service.overhead_us_p50", "us"},
    {"store.probe_reads_per_op", "count"},
    {"store.value_line_reads_per_op", "count"},
    {"store.value_line_writes_per_op", "count"},
    {"store.header_writes_per_op", "count"},
    {"store.op_us_p50", "us"},
    {"store.put_us_p50", "us"},
    {"store.get_us_p50", "us"},
    {"store.checkpoint_us_p50", "us"},
    {"store.open_ms", "ms"},
    {"core.write_backs_per_op", "count"},
    {"core.reads_per_op", "count"},
    {"core.meta_hit_rate", "ratio"},
    {"core.meta_misses_per_op", "count"},
    {"core.meta_dirty_evictions_per_op", "count"},
    {"core.drains_per_op", "count"},
    {"core.drains.daq", "count"},
    {"core.drains.evict", "count"},
    {"core.drains.limit", "count"},
    {"core.drains.explicit", "count"},
    {"core.drain_cycles_per_op", "cycles"},
    {"core.page_reencryptions", "count"},
    {"core.restore_ms", "ms"},
    {"core.recover_ms", "ms"},
    {"core.recover_retries", "count"},
    {"core.counters_recovered", "count"},
    {"core.rebuild_hash_ops", "count"},
    {"core.tree_nodes_rebuilt", "count"},
    {"crypto.hmac_per_op", "count"},
    {"crypto.aes_per_op", "count"},
    {"crypto.hmac_per_reopen", "count"},
    {"crypto.hmac_tag_ns", "ns"},
    {"crypto.tag_many8_ns_per_tag", "ns"},
    {"crypto.otp_pad_ns", "ns"},
    {"crypto.est_share", "ratio"},
    {"nvm.line_reads_per_op", "count"},
    {"nvm.line_writes_per_op", "count"},
    {"nvm.ecc_writes_per_op", "count"},
    {"nvm.data_writes_per_op", "count"},
    {"nvm.counter_writes_per_op", "count"},
    {"nvm.mt_writes_per_op", "count"},
    {"nvm.dh_writes_per_op", "count"},
    {"nvm.barriers_per_op", "count"},
    {"nvm.barrier_us_p50", "us"},
    {"nvm.barrier_us_p99", "us"},
    {"nvm.backend_share", "ratio"},
    {"nvm.open_ms", "ms"},
    {"nvm.reopen_line_reads", "count"},
    {"sim.host_s.wo_cc", "s"},
    {"sim.host_s.strict", "s"},
    {"sim.host_s.osiris_plus", "s"},
    {"sim.host_s.cc_nvm_nods", "s"},
    {"sim.host_s.cc_nvm", "s"},
    {"sim.ipc_norm.strict", "ratio"},
    {"sim.ipc_norm.osiris_plus", "ratio"},
    {"sim.ipc_norm.cc_nvm_nods", "ratio"},
    {"sim.ipc_norm.cc_nvm", "ratio"},
    {"sim.writes_norm.strict", "ratio"},
    {"sim.writes_norm.osiris_plus", "ratio"},
    {"sim.writes_norm.cc_nvm_nods", "ratio"},
    {"sim.writes_norm.cc_nvm", "ratio"},
    {"cache.l2_miss_rate", "ratio"},
    {"cache.meta_hit_rate.cc_nvm", "ratio"},
    {"sim.drains_per_kref.cc_nvm", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

const char* const kEndToEnd[] = {"ops_per_s",      "latency_p50_ms",
                                 "latency_tail_ms", "setup_s",
                                 "peak_rss_mb",    "nvm_write_amp"};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <kv-a-mem|kv-a-durable|"
               "reopen-crashed|fig5-sim> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n");
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Completes the per-layer list with zeros for layers this workload does
/// not load, and orders both lists as BENCHMARK.json does.
std::vector<Metric> canonical_layer(const std::vector<Metric>& measured,
                                    RunReport& report) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : measured) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const auto& entry : kPerLayer) {
    const auto it = by_name.find(entry[0]);
    if (it == by_name.end()) {
      out.push_back({entry[0], 0.0, entry[1]});
    } else {
      if (it->second.unit != entry[1]) {
        report.fail(std::string("unit mismatch for ") + entry[0]);
      }
      out.push_back(it->second);
      by_name.erase(it);
    }
  }
  for (const auto& [name, m] : by_name) {
    report.fail("metric outside the per-layer list: " + name);
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      ok = parse_u64(value, options.seed);
      have_seed = ok;
    } else if (flag == "--seconds") {
      ok = parse_u64(value, seconds) && seconds >= 1 && seconds <= 600;
    } else if (flag == "--trace") {
      ok = parse_u64(value, trace) && trace <= 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      ok = false;
    }
    if (!ok) {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || !have_seed ||
      seconds == 0 || options.work_dir.empty()) {
    usage();
    return 2;
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;

  RunReport report;
  try {
    if (options.workload == "kv-a-mem") {
      run_kv(options, /*durable=*/false, report);
    } else if (options.workload == "kv-a-durable") {
      run_kv(options, /*durable=*/true, report);
    } else if (options.workload == "reopen-crashed") {
      run_reopen(options, report);
    } else if (options.workload == "fig5-sim") {
      run_fig5(options, report);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = canonical_layer(report.layer, report);
  } else {
    for (const char* name : kEndToEnd) {
      bool found = false;
      for (const Metric& m : report.e2e) {
        if (m.name == name) {
          metrics.push_back(m);
          found = true;
        }
      }
      if (!found) report.fail(std::string("missing metric ") + name);
    }
  }

  std::printf("workload = %s, seed = %llu, seconds = %llu, trace = %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(seconds), options.trace ? 1 : 0);
  for (const std::string& line : report.details) {
    std::printf("%s\n", line.c_str());
  }
  const double error_rate =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("%s (failed %llu of %llu attempted)\n",
              fmt_metric("error_rate", error_rate, "ratio").c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& e : report.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s\n", fmt_metric(m.name, m.value, m.unit).c_str());
  }

  std::ostringstream json;
  json << "{\"correct\": "
       << (report.correct && report.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json << ", ";
    json << '"' << metrics[i].name << "\": {\"value\": "
         << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return 0;
}
