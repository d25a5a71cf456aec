// reopen-crashed: reopen a crashed cc-NVM SecureKvStore image of 8 k
// keys (16 MB data region, larger than the Meta Cache) again and again.
//
// Set-up builds the image on a FileBackend, loads the keys, applies an
// update phase without a checkpoint and calls crash_power_loss(), so
// recovery has live epoch work. Each sample copies that crashed image
// (untimed), checks the copy's hash, then times the reopen path a host
// runs after a power cut:
//   FileBackend::open + load_registers/decode_tcb   (nvm.open)
//   -> restore_from_power_down                      (core.restore)
//   -> recover()                                    (core.recover)
//   -> SecureKvStore::open                          (store.open)
// The reopened store must hold exactly the pre-crash model.
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/design.h"
#include "core/tcb.h"
#include "counting_backend.h"
#include "nvm/file_backend.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"
#include "trace/ycsb.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ccnvm;

constexpr std::uint64_t kKeys = 8192;
constexpr std::uint64_t kUpdates = 4096;
constexpr std::uint32_t kValueBytes = 100;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinReopens = 110;  // p90 needs >= 10 beyond it

std::uint64_t fnv_fold(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= 0xff;
  h *= 1099511628211ull;
  return h;
}

/// Hash of a whole file, 8 bytes at a time.
std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  std::uint64_t h = 0xcbf29ce484222325ull;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    std::size_t i = 0;
    for (; i + 8 <= got; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, buf.data() + i, 8);
      h = splitmix64(h ^ w);
    }
    for (; i < got; ++i) h = splitmix64(h ^ static_cast<std::uint8_t>(buf[i]));
  }
  return h;
}

std::string value_for(std::uint64_t seed, std::uint64_t key,
                      std::uint64_t version) {
  std::string v(kValueBytes, '\0');
  const std::uint64_t tag = derive_seed(derive_seed(seed, 0x7e0, key), version);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>(
        static_cast<std::uint8_t>(splitmix64(tag + i / 8) >> (8 * (i % 8))));
  }
  return v;
}

struct Image {
  core::DesignConfig design;
  store::StoreConfig store;
  std::string master;
  std::uint64_t master_hash = 0;
  std::map<std::string, std::string> model;
  std::uint64_t model_digest = 0;
  std::uint64_t live_value_bytes = 0;
};

/// Builds the crashed master image; returns false on a failed put.
bool build_image(const RunOptions& options, Image& img) {
  img.store = store::StoreConfig::sized_for(kKeys, kValueBytes);
  img.design = core::DesignConfig{};
  img.design.data_capacity = store::capacity_for(img.store);
  img.design.key_seed = derive_seed(options.seed, 0x6b6579);
  img.master = options.work_dir + "/reopen-master.img";
  img.model.clear();

  core::DesignConfig build = img.design;
  const std::string path = img.master;
  build.backend_factory = [path](std::uint64_t bytes) {
    return nvm::FileBackend::create(path, bytes);
  };
  auto design = core::make_design(core::DesignKind::kCcNvm, build);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  store::SecureKvStore kv(*base, img.store);
  bool ok = true;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::string key = trace::YcsbGenerator::key_name(k);
    std::string value = value_for(options.seed, k, 0);
    ok = kv.put(key, value) && ok;
    img.model[key] = std::move(value);
  }
  kv.checkpoint();
  // Update phase after the last checkpoint: the crash leaves this epoch's
  // metadata unpersisted, so recover() has counters to roll forward.
  Rng rng(derive_seed(options.seed, 0x0bd));
  for (std::uint64_t u = 0; u < kUpdates; ++u) {
    const std::uint64_t k = rng.below(kKeys);
    const std::string key = trace::YcsbGenerator::key_name(k);
    std::string value = value_for(options.seed, k, u + 1);
    ok = kv.put(key, value) && ok;
    img.model[key] = std::move(value);
  }
  base->crash_power_loss();
  design.reset();  // unmaps; the crashed image stays in the file

  img.model_digest = 0xcbf29ce484222325ull;
  img.live_value_bytes = 0;
  for (const auto& [key, value] : img.model) {
    img.model_digest = fnv_fold(fnv_fold(img.model_digest, key), value);
    img.live_value_bytes += value.size();
  }
  img.master_hash = file_hash(img.master);
  return ok;
}

struct Sample {
  double total_ms = 0.0;
  double open_ms = 0.0;
  double restore_ms = 0.0;
  double recover_ms = 0.0;
  double store_open_ms = 0.0;
  double write_amp = 0.0;
  std::uint64_t hmacs = 0;
  core::RecoveryReport recovery;
  IoCounts io;
};

/// One reopen of a fresh copy of the master image. Returns false (with a
/// reason in `why`) when any output check fails.
bool reopen_once(const Image& img, const std::string& work, bool traced,
                 SpanLog& spans, Sample& s, std::string& why) {
  std::filesystem::copy_file(img.master, work,
                             std::filesystem::copy_options::overwrite_existing);
  // Flush the copy before timing, so the reopen does not overlap the
  // kernel writing it back.
  const int fd = ::open(work.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    why = "cannot flush the image copy";
    return false;
  }
  ::close(fd);
  if (file_hash(work) != img.master_hash) {
    why = "image copy differs from the crashed master";
    return false;
  }

  CountingBackend* counted = nullptr;
  const std::uint64_t parent = SpanLog::reserve_id();
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<nvm::Backend> backend = nvm::FileBackend::open(work);
  if (backend == nullptr) {
    why = "FileBackend::open failed";
    return false;
  }
  std::uint8_t regs[nvm::Backend::kRegisterCapacity];
  const std::size_t reg_len = backend->load_registers(regs, sizeof(regs));
  core::TcbRegisters tcb;
  if (!core::decode_tcb(regs, reg_len, tcb)) {
    why = "image carries no TCB registers";
    return false;
  }
  if (traced) {
    auto wrapped = std::make_unique<CountingBackend>(
        std::move(backend), img.design.data_capacity, 0);
    counted = wrapped.get();
    backend = std::move(wrapped);
  }
  const std::uint64_t t1 = now_ns();
  auto design = core::make_design(core::DesignKind::kCcNvm, img.design);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  base->restore_from_power_down(nvm::NvmImage(std::move(backend)), tcb);
  const std::uint64_t hmac_before = base->stats().hmac_ops;
  const std::uint64_t t2 = now_ns();
  s.recovery = base->recover();
  const std::uint64_t t3 = now_ns();
  store::SecureKvStore kv = store::SecureKvStore::open(*base, img.store);
  const std::uint64_t t4 = now_ns();

  s.open_ms = static_cast<double>(t1 - t0) / 1e6;
  s.restore_ms = static_cast<double>(t2 - t1) / 1e6;
  s.recover_ms = static_cast<double>(t3 - t2) / 1e6;
  s.store_open_ms = static_cast<double>(t4 - t3) / 1e6;
  s.total_ms = static_cast<double>(t4 - t0) / 1e6;
  s.hmacs = base->stats().hmac_ops - hmac_before;
  s.write_amp = static_cast<double>(base->image().write_count() * kLineSize) /
                static_cast<double>(img.live_value_bytes);
  if (traced) {
    spans.record("nvm.open", t0, t1, parent);
    spans.record("core.restore", t1, t2, parent);
    spans.record("core.recover", t2, t3, parent);
    spans.record("store.open", t3, t4, parent);
    spans.record_with_id(parent, "reopen", t0, t4);
    s.io = counted->counts();
    for (const Span& b : counted->spans().spans()) spans.spans().push_back(b);
  }

  if (!s.recovery.clean || !s.recovery.metadata_recovered) {
    why = "recovery not clean: " + s.recovery.detail;
    return false;
  }
  if (kv.size() != img.model.size()) {
    why = "reopened store holds " + std::to_string(kv.size()) + " keys, expected " +
          std::to_string(img.model.size());
    return false;
  }
  std::map<std::string, std::string> found;
  kv.for_each([&](std::string_view key, std::string_view value) {
    found.emplace(std::string(key), std::string(value));
  });
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto& [key, value] : found) {
    digest = fnv_fold(fnv_fold(digest, key), value);
  }
  if (digest != img.model_digest) {
    why = "reopened store content differs from the pre-crash model";
    return false;
  }
  return true;
}

struct Series {
  std::vector<double> total, open, restore, recover, store_open;
  double write_amp = 0.0;
  Sample last;
  IoCounts io;
};

/// Reopens until `seconds` have passed and at least kMinReopens samples
/// exist.
Series measure(const Image& img, const RunOptions& options, double seconds,
               bool traced, SpanLog& spans, RunReport& report) {
  Series series;
  const std::string work = options.work_dir + "/reopen-work.img";
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || series.total.size() < kMinReopens) {
    Sample s;
    std::string why;
    ++report.attempted;
    if (!reopen_once(img, work, traced, spans, s, why)) {
      ++report.failed;
      report.fail(why);
      if (report.failed > 3) break;
      continue;
    }
    series.total.push_back(s.total_ms);
    series.open.push_back(s.open_ms);
    series.restore.push_back(s.restore_ms);
    series.recover.push_back(s.recover_ms);
    series.store_open.push_back(s.store_open_ms);
    series.write_amp = s.write_amp;
    series.io += s.io;
    series.last = s;
  }
  std::filesystem::remove(work);
  return series;
}

}  // namespace

void run_reopen(const RunOptions& options, RunReport& report) {
  Image img;
  std::vector<double> setups;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    if (!build_image(options, img)) {
      report.failed += 1;
      report.fail("image build: a put was rejected");
    }
    setups.push_back(seconds_since(t0));
  }

  SpanLog spans;
  if (!options.trace) {
    Series series = measure(img, options, options.seconds, false, spans, report);
    const std::size_t n = series.total.size();
    const double p50 = median(series.total);
    const std::optional<double> p90 = percentile(series.total, 0.90);
    if (!p90) report.fail("reopen p90 refused: fewer than 10 samples beyond it");
    const double sum_ms = [&] {
      double s = 0.0;
      for (double v : series.total) s += v;
      return s;
    }();
    report.add_e2e("ops_per_s", static_cast<double>(n) / (sum_ms / 1e3), "1/s");
    report.add_e2e("latency_p50_ms", p50, "ms");
    report.add_e2e("latency_tail_ms", p90.value_or(0.0), "ms");
    report.add_e2e("setup_s", median(setups), "s");
    report.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
    report.add_e2e("nvm_write_amp", series.write_amp, "B/B");
    report.detail(fmt_metric("reopen_ms_p50", p50, "ms") + " (n=" +
                  std::to_string(n) + ")");
    report.detail(fmt_metric("reopen_ms_p90", p90.value_or(0.0), "ms") +
                  " (n=" + std::to_string(n) + ")");
    report.detail("ops_per_s counts reopens per second of reopen time; "
                  "latency_tail_ms is the p90 reopen time; nvm_write_amp is "
                  "the bytes one reopen writes per live value byte");
    std::filesystem::remove(img.master);
    return;
  }

  const double half = options.seconds / 2.0;
  Series plain = measure(img, options, half, false, spans, report);
  Series traced = measure(img, options, half, true, spans, report);
  std::filesystem::remove(img.master);
  const double n = static_cast<double>(traced.total.size());
  const core::RecoveryReport& rec = traced.last.recovery;
  report.add_layer("store.open_ms", median(traced.store_open), "ms");
  report.add_layer("core.restore_ms", median(traced.restore), "ms");
  report.add_layer("core.recover_ms", median(traced.recover), "ms");
  report.add_layer("core.recover_retries", static_cast<double>(rec.total_retries),
                   "count");
  report.add_layer("core.counters_recovered",
                   static_cast<double>(rec.counters_recovered), "count");
  report.add_layer("core.rebuild_hash_ops", static_cast<double>(rec.rebuild_hash_ops),
                   "count");
  report.add_layer("core.tree_nodes_rebuilt",
                   static_cast<double>(rec.tree_nodes_rebuilt), "count");
  report.add_layer("crypto.hmac_per_reopen", static_cast<double>(traced.last.hmacs),
                   "count");
  report.add_layer("nvm.open_ms", median(traced.open), "ms");
  report.add_layer("nvm.reopen_line_reads",
                   static_cast<double>(traced.io.line_reads) / n, "count");
  // Per reopen: the reopen path's own media traffic.
  add_io_per_op(traced.io, n, report);
  double traced_sum_ms = 0.0;
  for (double v : traced.total) traced_sum_ms += v;
  report.add_layer("nvm.backend_share",
                   static_cast<double>(traced.io.io_ns + traced.io.barrier_ns) / 1e6 /
                       traced_sum_ms,
                   "ratio");

  const CryptoUnitCosts costs = measure_crypto_unit_costs(options.seed);
  add_crypto_layer(costs, static_cast<double>(traced.last.hmacs) * n, 0.0,
                   traced_sum_ms / 1e3, report);

  const double plain_p50 = median(plain.total);
  const double traced_p50 = median(traced.total);
  report.add_layer("trace.overhead_pct", (traced_p50 - plain_p50) / plain_p50 * 100.0,
                   "%");
  report.add_layer("trace.spans", static_cast<double>(spans.spans().size()), "count");
  report.detail(fmt_metric("untraced reopen_ms_p50", plain_p50, "ms"));
  report.detail(fmt_metric("traced reopen_ms_p50", traced_p50, "ms"));
  dump_spans(spans.spans(),
             options.work_dir + "/spans-" + options.workload + "-" +
                 std::to_string(options.seed) + ".csv",
             report);
}

}  // namespace perfbench
