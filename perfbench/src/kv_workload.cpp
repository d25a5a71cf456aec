// kv-a-mem / kv-a-durable: YCSB-A (50/50 read/update, zipf 0.99, 100 B
// values) from 4 closed-loop blocking clients over one KvService on the
// cc-NVM design, ServiceConfig defaults (2 shards, greedy group commit,
// the paper's Meta Cache / DAQ / update limit). Each client owns a
// disjoint key range, so the final content is a pure function of the
// seed and the ops each client issued, and is checked exactly.
//
//   kv-a-mem:     8 k records per client on MapBackend. The 64 MB data
//                 region has ~21 k metadata lines against the 2 k-line
//                 Meta Cache; the work is CPU: crypto, the
//                 write-back/drain path, the store.
//   kv-a-durable: 1 k records per client on FileBackend kBarrier files;
//                 every group-commit barrier is a real msync, and the
//                 4 MB region's metadata fits in the Meta Cache.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/design.h"
#include "counting_backend.h"
#include "nvm/file_backend.h"
#include "service/kv_service.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"
#include "trace/ycsb.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ccnvm;

constexpr std::size_t kClients = 4;
constexpr std::size_t kSetupRepeats = 3;
// The untraced run reports medians over equal time windows, so a short
// disturbance from outside the process moves one window, not the result.
constexpr std::size_t kWindows = 10;
// Sizes the per-client sample buffers; beyond it they grow.
constexpr double kMaxOpsPerClientSecond = 25000.0;

std::string value_for(std::uint64_t seed, std::uint64_t client,
                      std::uint64_t key_id, std::uint64_t version,
                      std::uint32_t bytes) {
  std::string v(bytes, '\0');
  const std::uint64_t tag =
      derive_seed(derive_seed(seed, client + 1, key_id), version);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>(
        static_cast<std::uint8_t>(splitmix64(tag + i / 8) >> (8 * (i % 8))));
  }
  return v;
}

struct Client {
  std::vector<std::uint32_t> version;  // per owned record; 0 = loaded value
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  std::uint64_t value_bytes = 0;  // user value bytes of acknowledged puts
  std::string first_error;
  // Per request: latency, and completion time since the phase started
  // (for windowing). Sized before the phase, so their memory does not
  // grow with throughput and move peak_rss_mb.
  std::vector<float> latency_us;
  std::vector<float> end_s;
  SpanLog spans;

  void fail(const std::string& why) {
    ++failures;
    if (first_error.empty()) first_error = why;
  }
};

/// Every counter the traced phase reads, summed over service shards.
struct Snapshot {
  service::ServiceStats service;
  store::StoreStats store;
  core::DesignStats design;
  nvm::TrafficStats traffic;
  cache::CacheStats meta;
  IoCounts io;
  std::vector<std::size_t> barrier_samples;  // per decorator
};

class KvBench {
 public:
  KvBench(const RunOptions& options, bool durable)
      : options_(options), durable_(durable) {
    workload_ = trace::ycsb_by_name("ycsb-a");
    workload_.record_count = durable ? 1024 : 8192;
    workload_.validate();
    records_ = workload_.record_count;
    cfg_.kind = core::DesignKind::kCcNvm;
    // Each engine is sized for the whole keyspace: routing is hashed.
    cfg_.store = store::StoreConfig::sized_for(kClients * records_,
                                               workload_.value_bytes, 1);
    cfg_.design.data_capacity = store::capacity_for(cfg_.store);
    cfg_.design.key_seed = derive_seed(options.seed, 0x6b6579);
  }

  /// Builds a service and loads every client's records; returns the
  /// set-up wall time. With `traced` the backends are decorated.
  double setup(bool traced) {
    service_.reset();
    decorators_.clear();
    const auto t0 = Clock::now();
    service::ServiceConfig cfg = cfg_;
    const std::uint64_t data_capacity = cfg_.design.data_capacity;
    const bool durable = durable_;
    const std::string prefix = options_.work_dir + "/kv-shard-";
    cfg.backend_factory =
        [this, traced, durable, data_capacity, prefix](
            std::size_t shard,
            std::uint64_t bytes) -> std::unique_ptr<nvm::Backend> {
      std::unique_ptr<nvm::Backend> media;
      if (durable) {
        media = nvm::FileBackend::create(
            prefix + std::to_string(shard), bytes,
            nvm::FileBackend::SyncMode::kBarrier, /*unlink_after_create=*/true);
      } else {
        media = std::make_unique<nvm::MapBackend>();
      }
      if (!traced) return media;
      auto counted = std::make_unique<CountingBackend>(
          std::move(media), data_capacity,
          static_cast<std::uint32_t>(kClients + shard));
      decorators_.push_back(counted.get());
      return counted;
    };
    service_ = std::make_unique<service::KvService>(cfg);
    clients_.assign(kClients, Client{});
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([this, t] {
        Client& c = clients_[t];
        c.version.assign(records_, 0);
        for (std::uint64_t id = 0; id < records_; ++id) {
          const std::string key = trace::YcsbGenerator::key_name(t * records_ + id);
          if (!service_->put(key, value_for(options_.seed, t, id, 0,
                                            workload_.value_bytes))
                   .ok) {
            c.fail("load put rejected: " + key);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    return seconds_since(t0);
  }

  struct Phase {
    double seconds = 0.0;
    std::uint64_t ops = 0;
    double wall_s = 0.0;
  };

  /// The timed closed loop: every client issues its YCSB-A stream until
  /// the deadline, timing each blocking call.
  Phase run(double seconds, bool traced) {
    const std::size_t capacity =
        static_cast<std::size_t>(seconds * kMaxOpsPerClientSecond);
    for (Client& c : clients_) {
      c.latency_us.assign(capacity, 0.0f);  // touch the pages now
      c.latency_us.clear();
      c.end_s.assign(capacity, 0.0f);
      c.end_s.clear();
    }
    std::atomic<bool> go{false};
    Clock::time_point start;
    std::uint64_t start_ns = 0;
    std::vector<Clock::time_point> finish(kClients);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        Client& c = clients_[t];
        trace::YcsbGenerator gen(workload_, derive_seed(options_.seed, t, 0x51c));
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        while (Clock::now() < deadline) {
          const trace::KvOp op = gen.next();
          const std::string key =
              trace::YcsbGenerator::key_name(t * records_ + op.key_id);
          std::uint64_t t0 = 0;
          std::uint64_t t1 = 0;
          if (op.type == trace::KvOpType::kRead) {
            t0 = now_ns();
            const service::Result got = service_->get(key);
            t1 = now_ns();
            if (!got.ok ||
                *got.value != value_for(options_.seed, t, op.key_id,
                                        c.version[op.key_id],
                                        workload_.value_bytes)) {
              c.fail("stale read: " + key);
            }
          } else {
            const std::uint32_t next = c.version[op.key_id] + 1;
            const std::string value =
                value_for(options_.seed, t, op.key_id, next, op.value_bytes);
            t0 = now_ns();
            const service::Result put = service_->put(key, value);
            t1 = now_ns();
            if (put.ok) {
              c.version[op.key_id] = next;
              c.value_bytes += value.size();
            } else {
              c.fail("put rejected: " + key);
            }
          }
          c.latency_us.push_back(static_cast<float>(t1 - t0) / 1e3f);
          c.end_s.push_back(static_cast<float>(t1 - start_ns) / 1e9f);
          if (traced) {
            c.spans.record("service.request", t0, t1, 0,
                           (static_cast<std::uint64_t>(t) << 40) | c.ops,
                           static_cast<std::uint32_t>(t));
          }
          ++c.ops;
        }
        finish[t] = Clock::now();
      });
    }
    start = Clock::now();
    start_ns = now_ns();
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();
    Phase phase;
    phase.seconds = seconds;
    for (std::size_t t = 0; t < kClients; ++t) {
      phase.ops += clients_[t].ops;
      phase.wall_s = std::max(
          phase.wall_s, std::chrono::duration<double>(finish[t] - start).count());
    }
    return phase;
  }

  /// Every client's latencies of the last phase, split into kWindows
  /// equal time windows by completion time.
  std::vector<std::vector<double>> windows(const Phase& phase) const {
    std::vector<std::vector<double>> out(kWindows);
    const double window_s = phase.seconds / static_cast<double>(kWindows);
    for (const Client& c : clients_) {
      for (std::size_t i = 0; i < c.latency_us.size(); ++i) {
        const std::size_t w = std::min<std::size_t>(
            kWindows - 1, static_cast<std::size_t>(c.end_s[i] / window_s));
        out[w].push_back(c.latency_us[i]);
      }
    }
    return out;
  }

  /// Counters of every shard. Safe between phases: each client has joined
  /// after its last ack, and a drain worker updates engine state only
  /// before it acks.
  Snapshot snapshot() {
    Snapshot s;
    s.service = service_->stats();
    for (std::size_t sh = 0; sh < service_->shards(); ++sh) {
      core::SecureNvmBase& base = service_->engine_base(sh);
      const store::StoreStats& st = service_->engine_store(sh).stats();
      s.store.puts += st.puts;
      s.store.gets += st.gets;
      s.store.probe_reads += st.probe_reads;
      s.store.value_line_reads += st.value_line_reads;
      s.store.value_line_writes += st.value_line_writes;
      s.store.header_writes += st.header_writes;
      const core::DesignStats& d = base.stats();
      s.design.write_backs += d.write_backs;
      s.design.reads += d.reads;
      s.design.drains += d.drains;
      for (std::size_t k = 0; k < d.drains_by_trigger.size(); ++k) {
        s.design.drains_by_trigger[k] += d.drains_by_trigger[k];
      }
      s.design.page_reencryptions += d.page_reencryptions;
      s.design.hmac_ops += d.hmac_ops;
      s.design.aes_ops += d.aes_ops;
      s.design.drain_cycles += d.drain_cycles;
      const nvm::TrafficStats& tr = base.traffic();
      s.traffic.data_writes += tr.data_writes;
      s.traffic.counter_writes += tr.counter_writes;
      s.traffic.mt_writes += tr.mt_writes;
      s.traffic.dh_writes += tr.dh_writes;
      s.traffic.reads += tr.reads;
      const cache::CacheStats m = base.meta_cache_stats();
      s.meta.hits += m.hits;
      s.meta.misses += m.misses;
      s.meta.evictions += m.evictions;
      s.meta.dirty_evictions += m.dirty_evictions;
    }
    for (CountingBackend* d : decorators_) {
      s.io += d->counts();
      s.barrier_samples.push_back(d->barrier_us().size());
    }
    return s;
  }

  /// Quiesces the service: every residual batch gets its barrier.
  void shutdown() { service_->shutdown(); }

  /// After shutdown(), checks every shard: audit clean, every key routed
  /// to its shard, content equal to the merged client models. Reads every
  /// shard, so counters are snapshotted before it.
  void verify(RunReport& report) {
    std::unordered_map<std::string, std::string> expected;
    for (std::size_t t = 0; t < kClients; ++t) {
      Client& c = clients_[t];
      report.attempted += c.ops;
      report.failed += c.failures;
      if (!c.first_error.empty()) report.fail(c.first_error);
      for (std::uint64_t id = 0; id < records_; ++id) {
        expected.emplace(trace::YcsbGenerator::key_name(t * records_ + id),
                         value_for(options_.seed, t, id, c.version[id],
                                   workload_.value_bytes));
      }
    }
    std::uint64_t found = 0;
    std::uint64_t wrong = 0;
    for (std::size_t sh = 0; sh < service_->shards(); ++sh) {
      if (!service_->engine_base(sh).audit_image().empty()) {
        ++wrong;
        report.fail("shard " + std::to_string(sh) + " does not audit clean");
      }
      service_->engine_store(sh).for_each(
          [&](std::string_view key, std::string_view value) {
            ++found;
            const auto it = expected.find(std::string(key));
            if (it == expected.end() || it->second != value ||
                service::KvService::shard_of(key, service_->shards()) != sh) {
              ++wrong;
            }
          });
    }
    if (found != expected.size()) wrong += 1;
    if (wrong != 0) {
      report.failed += wrong;
      report.fail("final store content diverges from the client models (" +
                  std::to_string(wrong) + " keys)");
    }
  }

  std::uint64_t user_value_bytes() const {
    std::uint64_t total = 0;
    for (const Client& c : clients_) total += c.value_bytes;
    return total;
  }

  std::uint64_t client0_ops() const { return clients_[0].ops; }

  std::vector<Span> take_spans() {
    std::vector<Span> all;
    for (Client& c : clients_) {
      all.insert(all.end(), c.spans.spans().begin(), c.spans.spans().end());
    }
    for (CountingBackend* d : decorators_) {
      all.insert(all.end(), d->spans().spans().begin(), d->spans().spans().end());
    }
    return all;
  }

  std::vector<double> barrier_us_since(const Snapshot& before) {
    std::vector<double> out;
    for (std::size_t i = 0; i < decorators_.size(); ++i) {
      const std::vector<double>& all = decorators_[i]->barrier_us();
      out.insert(out.end(),
                 all.begin() + static_cast<std::ptrdiff_t>(before.barrier_samples[i]),
                 all.end());
    }
    return out;
  }

  /// Replays client 0's op stream directly on one SecureKvStore built
  /// like service shard 0 — the store's own cost per op, with one
  /// checkpoint per update as a one-request batch pays.
  /// Returns each replayed op's time (store call plus checkpoint), us.
  std::vector<double> replay_store(std::uint64_t ops, std::vector<Span>& spans,
                                   RunReport& report) {
    core::DesignConfig dc = service::KvService::engine_design_config(cfg_, 0);
    if (durable_) {
      const std::string path = options_.work_dir + "/kv-replay";
      dc.backend_factory = [path](std::uint64_t bytes) {
        return nvm::FileBackend::create(path, bytes,
                                        nvm::FileBackend::SyncMode::kBarrier,
                                        /*unlink_after_create=*/true);
      };
    }
    auto design = core::make_design(core::DesignKind::kCcNvm, dc);
    auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
    store::SecureKvStore kv(*base, cfg_.store);
    std::vector<std::uint32_t> version(records_, 0);
    for (std::uint64_t id = 0; id < records_; ++id) {
      if (!kv.put(trace::YcsbGenerator::key_name(id),
                  value_for(options_.seed, 0, id, 0, workload_.value_bytes))) {
        report.fail("replay load put rejected");
      }
    }
    kv.checkpoint();

    SpanLog log;
    std::vector<double> op_us, put_us, get_us, ckpt_us;
    trace::YcsbGenerator gen(workload_, derive_seed(options_.seed, 0, 0x51c));
    for (std::uint64_t i = 0; i < ops; ++i) {
      const trace::KvOp op = gen.next();
      const std::string key = trace::YcsbGenerator::key_name(op.key_id);
      const std::uint64_t parent = SpanLog::reserve_id();
      ++report.attempted;
      if (op.type == trace::KvOpType::kRead) {
        const std::uint64_t t0 = now_ns();
        const std::optional<std::string> got = kv.get(key);
        const std::uint64_t t1 = now_ns();
        log.record("store.get", t0, t1, parent, i);
        log.record_with_id(parent, "store.op", t0, t1, 0, i);
        get_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        op_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        if (!got || *got != value_for(options_.seed, 0, op.key_id,
                                      version[op.key_id],
                                      workload_.value_bytes)) {
          ++report.failed;
          report.fail("store replay: stale read " + key);
        }
      } else {
        const std::uint32_t next = version[op.key_id] + 1;
        const std::string value =
            value_for(options_.seed, 0, op.key_id, next, op.value_bytes);
        const std::uint64_t t0 = now_ns();
        const bool ok = kv.put(key, value);
        const std::uint64_t t1 = now_ns();
        kv.checkpoint();
        const std::uint64_t t2 = now_ns();
        log.record("store.put", t0, t1, parent, i);
        log.record("store.checkpoint", t1, t2, parent, i);
        log.record_with_id(parent, "store.op", t0, t2, 0, i);
        put_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        ckpt_us.push_back(static_cast<double>(t2 - t1) / 1e3);
        op_us.push_back(static_cast<double>(t2 - t0) / 1e3);
        if (ok) {
          version[op.key_id] = next;
        } else {
          ++report.failed;
          report.fail("store replay: put rejected " + key);
        }
      }
    }
    spans.insert(spans.end(), log.spans().begin(), log.spans().end());
    report.add_layer("store.op_us_p50", median(op_us), "us");
    report.add_layer("store.put_us_p50", median(put_us), "us");
    report.add_layer("store.get_us_p50", median(get_us), "us");
    report.add_layer("store.checkpoint_us_p50", median(ckpt_us), "us");
    report.detail("store replay: " + std::to_string(ops) + " ops of client 0 (" +
                  std::to_string(put_us.size()) + " puts, " +
                  std::to_string(get_us.size()) + " gets)");
    return op_us;
  }

  const std::vector<float>& client0_latency_us() const {
    return clients_[0].latency_us;
  }

 private:
  const RunOptions& options_;
  bool durable_;
  trace::YcsbWorkload workload_;
  std::uint64_t records_ = 0;
  service::ServiceConfig cfg_;
  std::vector<Client> clients_;
  std::vector<CountingBackend*> decorators_;  // owned by service_'s engines
  std::unique_ptr<service::KvService> service_;
};

double per(double count, double ops) { return ops > 0.0 ? count / ops : 0.0; }

/// Throughput, p50 and p99 as medians over the phase's time windows; the
/// p99 of a window is refused (failing the run) when fewer than 10 of
/// its samples lie beyond it.
void add_windowed(const KvBench::Phase& phase,
                  std::vector<std::vector<double>> window_us, RunReport& report) {
  const double window_s = phase.seconds / static_cast<double>(kWindows);
  std::vector<double> rate, p50_us, p99_us;
  std::size_t min_n = phase.ops;
  for (std::vector<double>& w : window_us) {
    min_n = std::min(min_n, w.size());
    rate.push_back(static_cast<double>(w.size()) / window_s);
    p50_us.push_back(median(w));
    const std::optional<double> p99 = percentile(w, 0.99);
    if (!p99) {
      report.fail("p99 refused: a window has fewer than 10 samples beyond it (n=" +
                  std::to_string(w.size()) + ")");
    }
    p99_us.push_back(p99.value_or(0.0));
  }
  const double ops_per_s = median(rate);
  const double p50 = median(p50_us);
  const double p99 = median(p99_us);
  report.add_e2e("ops_per_s", ops_per_s, "1/s");
  report.add_e2e("latency_p50_ms", p50 / 1e3, "ms");
  report.add_e2e("latency_tail_ms", p99 / 1e3, "ms");
  const std::string windows = " (median of " + std::to_string(kWindows) +
                              " windows of " + std::to_string(window_s) +
                              " s, >= " + std::to_string(min_n) +
                              " samples each; " + std::to_string(phase.ops) +
                              " ops in total)";
  report.detail(fmt_metric("ops_per_s", ops_per_s, "1/s") + windows);
  report.detail(fmt_metric("latency_p50_us", p50, "us") + windows);
  report.detail(fmt_metric("latency_p99_us", p99, "us") + windows);
  report.detail("latency_tail_ms is the p99 request latency");
}

}  // namespace

void run_kv(const RunOptions& options, bool durable, RunReport& report) {
  KvBench bench(options, durable);
  if (!options.trace) {
    // setup_s is the median of several set-ups. The measured service is
    // the first; the others come after peak_rss_mb is read, so the peak
    // is one service's and not how freed arenas happen to be reused.
    std::vector<double> setups{bench.setup(false)};
    const Snapshot before = bench.snapshot();
    const std::uint64_t bytes_before = bench.user_value_bytes();
    const KvBench::Phase phase = bench.run(options.seconds, false);
    bench.shutdown();
    const Snapshot after = bench.snapshot();
    const double rss_mb = peak_rss_mb();
    bench.verify(report);
    const double nvm_bytes =
        static_cast<double>(after.traffic.total_writes() -
                            before.traffic.total_writes()) *
        static_cast<double>(ccnvm::kLineSize);
    const double user_bytes =
        static_cast<double>(bench.user_value_bytes() - bytes_before);
    add_windowed(phase, bench.windows(phase), report);
    while (setups.size() < kSetupRepeats) setups.push_back(bench.setup(false));
    report.add_e2e("setup_s", median(setups), "s");
    report.add_e2e("peak_rss_mb", rss_mb, "MB");
    report.add_e2e("nvm_write_amp", user_bytes > 0 ? nvm_bytes / user_bytes : 0.0,
                   "B/B");
    return;
  }

  // Traced run: an untraced pass and a traced pass of equal length; the
  // difference in throughput is the tracing overhead.
  const double half = options.seconds / 2.0;
  bench.setup(false);
  const KvBench::Phase plain = bench.run(half, false);
  bench.shutdown();
  bench.verify(report);
  const double plain_ops_per_s = static_cast<double>(plain.ops) / plain.wall_s;

  bench.setup(true);
  const Snapshot before = bench.snapshot();
  const KvBench::Phase phase = bench.run(half, true);
  bench.shutdown();
  const Snapshot after = bench.snapshot();
  bench.verify(report);
  const double ops = static_cast<double>(phase.ops);
  const double traced_ops_per_s = ops / phase.wall_s;
  std::vector<Span> spans = bench.take_spans();

  const service::ServiceStats& s0 = before.service;
  const service::ServiceStats& s1 = after.service;
  const double batches = static_cast<double>(s1.batches - s0.batches);
  const double barriers = static_cast<double>(s1.barriers - s0.barriers);
  report.add_layer("service.batch_avg",
                   per(static_cast<double>(s1.batched_ops - s0.batched_ops), batches),
                   "count");
  report.add_layer("service.ops_per_barrier",
                   per(static_cast<double>(s1.mutations - s0.mutations), barriers),
                   "count");
  report.add_layer("service.barriers_per_op", per(barriers, ops), "count");
  report.add_layer("service.queue_high_water",
                   static_cast<double>(s1.queue_high_water), "count");

  const store::StoreStats& st0 = before.store;
  const store::StoreStats& st1 = after.store;
  report.add_layer("store.probe_reads_per_op",
                   per(static_cast<double>(st1.probe_reads - st0.probe_reads), ops),
                   "count");
  report.add_layer(
      "store.value_line_reads_per_op",
      per(static_cast<double>(st1.value_line_reads - st0.value_line_reads), ops),
      "count");
  report.add_layer(
      "store.value_line_writes_per_op",
      per(static_cast<double>(st1.value_line_writes - st0.value_line_writes), ops),
      "count");
  report.add_layer(
      "store.header_writes_per_op",
      per(static_cast<double>(st1.header_writes - st0.header_writes), ops),
      "count");

  const ccnvm::core::DesignStats& d0 = before.design;
  const ccnvm::core::DesignStats& d1 = after.design;
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.add_layer("core.write_backs_per_op",
                   per(delta(d0.write_backs, d1.write_backs), ops), "count");
  report.add_layer("core.reads_per_op", per(delta(d0.reads, d1.reads), ops),
                   "count");
  const double hits = delta(before.meta.hits, after.meta.hits);
  const double misses = delta(before.meta.misses, after.meta.misses);
  report.add_layer("core.meta_hit_rate", per(hits, hits + misses), "ratio");
  report.add_layer("core.meta_misses_per_op", per(misses, ops), "count");
  report.add_layer(
      "core.meta_dirty_evictions_per_op",
      per(delta(before.meta.dirty_evictions, after.meta.dirty_evictions), ops),
      "count");
  report.add_layer("core.drains_per_op", per(delta(d0.drains, d1.drains), ops),
                   "count");
  const char* const triggers[] = {"core.drains.daq", "core.drains.evict",
                                  "core.drains.limit", "core.drains.explicit"};
  for (std::size_t k = 0; k < 4; ++k) {
    report.add_layer(triggers[k],
                     delta(d0.drains_by_trigger[k], d1.drains_by_trigger[k]),
                     "count");
  }
  report.add_layer("core.drain_cycles_per_op",
                   per(delta(d0.drain_cycles, d1.drain_cycles), ops), "cycles");
  report.add_layer("core.page_reencryptions",
                   delta(d0.page_reencryptions, d1.page_reencryptions), "count");

  const double hmacs = delta(d0.hmac_ops, d1.hmac_ops);
  const double pads = delta(d0.aes_ops, d1.aes_ops);
  report.add_layer("crypto.hmac_per_op", per(hmacs, ops), "count");
  report.add_layer("crypto.aes_per_op", per(pads, ops), "count");

  const IoCounts io = after.io - before.io;
  add_io_per_op(io, ops, report);
  std::vector<double> barrier_us = bench.barrier_us_since(before);
  const std::size_t nb = barrier_us.size();
  report.add_layer("nvm.barrier_us_p50", median(barrier_us), "us");
  const std::optional<double> b99 = percentile(barrier_us, 0.99);
  if (b99) {
    report.add_layer("nvm.barrier_us_p99", *b99, "us");
  } else {
    report.fail("nvm.barrier_us_p99 refused: fewer than 10 samples beyond it");
  }
  report.detail("nvm.barrier_us percentiles over n=" + std::to_string(nb) +
                " barriers");
  // Share of drain-worker time (one worker per service shard) spent
  // inside backend calls.
  report.add_layer("nvm.backend_share",
                   static_cast<double>(io.io_ns + io.barrier_ns) / 1e9 /
                       (phase.wall_s * 2.0),
                   "ratio");

  // The replay issues client 0's exact op sequence, so op i of the
  // replay and request i of client 0 did the same store work; their
  // difference is what the service layer adds to that request.
  const std::vector<double> store_op_us = bench.replay_store(
      std::min<std::uint64_t>(bench.client0_ops(), 50000), spans, report);
  const std::vector<float>& client0_us = bench.client0_latency_us();
  std::vector<double> overhead_us;
  for (std::size_t i = 0; i < store_op_us.size(); ++i) {
    overhead_us.push_back(client0_us[i] - store_op_us[i]);
  }
  report.add_layer("service.overhead_us_p50", median(overhead_us), "us");

  const CryptoUnitCosts costs = measure_crypto_unit_costs(options.seed);
  add_crypto_layer(costs, hmacs, pads, phase.wall_s, report);

  report.add_layer("trace.overhead_pct",
                   (plain_ops_per_s - traced_ops_per_s) / plain_ops_per_s * 100.0,
                   "%");
  report.add_layer("trace.spans", static_cast<double>(spans.size()), "count");
  report.detail(fmt_metric("untraced ops_per_s", plain_ops_per_s, "1/s"));
  report.detail(fmt_metric("traced ops_per_s", traced_ops_per_s, "1/s"));
  dump_spans(spans,
             options.work_dir + "/spans-" + options.workload + "-" +
                 std::to_string(options.seed) + ".csv",
             report);
}

}  // namespace perfbench
