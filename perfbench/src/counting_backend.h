// nvm::Backend decorator owned by the benchmark: forwards every call to
// the real media backend and counts (and times) the line I/O, the ECC
// side band and the persist barriers. Only traced runs install it —
// through ServiceConfig::backend_factory / DesignConfig::backend_factory,
// or around FileBackend::open() on the reopen path — so untraced numbers
// measure the program unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "nvm/backend.h"
#include "nvm/layout.h"
#include "report.h"

namespace perfbench {

/// Counters of one decorated backend. Line writes are split by the
/// region the address falls in (nvm::LineKind order: data, counter,
/// Merkle-tree node, data HMAC).
struct IoCounts {
  std::uint64_t line_reads = 0;
  std::uint64_t line_writes = 0;
  std::uint64_t ecc_reads = 0;
  std::uint64_t ecc_writes = 0;
  std::uint64_t barriers = 0;
  std::array<std::uint64_t, 4> writes_by_kind{};
  /// Wall time inside line/ECC calls and inside persist_barrier().
  std::uint64_t io_ns = 0;
  std::uint64_t barrier_ns = 0;

  IoCounts& operator+=(const IoCounts& o) {
    line_reads += o.line_reads;
    line_writes += o.line_writes;
    ecc_reads += o.ecc_reads;
    ecc_writes += o.ecc_writes;
    barriers += o.barriers;
    for (std::size_t k = 0; k < writes_by_kind.size(); ++k) {
      writes_by_kind[k] += o.writes_by_kind[k];
    }
    io_ns += o.io_ns;
    barrier_ns += o.barrier_ns;
    return *this;
  }
  IoCounts operator-(const IoCounts& o) const {
    IoCounts d = *this;
    d.line_reads -= o.line_reads;
    d.line_writes -= o.line_writes;
    d.ecc_reads -= o.ecc_reads;
    d.ecc_writes -= o.ecc_writes;
    d.barriers -= o.barriers;
    for (std::size_t k = 0; k < d.writes_by_kind.size(); ++k) {
      d.writes_by_kind[k] -= o.writes_by_kind[k];
    }
    d.io_ns -= o.io_ns;
    d.barrier_ns -= o.barrier_ns;
    return d;
  }
};

/// Adds the nvm.*_per_op counts of `io` over `ops` operations.
inline void add_io_per_op(const IoCounts& io, double ops, RunReport& report) {
  const auto per_op = [ops](std::uint64_t count) {
    return ops > 0.0 ? static_cast<double>(count) / ops : 0.0;
  };
  report.add_layer("nvm.line_reads_per_op", per_op(io.line_reads), "count");
  report.add_layer("nvm.line_writes_per_op", per_op(io.line_writes), "count");
  report.add_layer("nvm.ecc_writes_per_op", per_op(io.ecc_writes), "count");
  const char* const kinds[] = {"nvm.data_writes_per_op",
                               "nvm.counter_writes_per_op",
                               "nvm.mt_writes_per_op", "nvm.dh_writes_per_op"};
  for (std::size_t k = 0; k < io.writes_by_kind.size(); ++k) {
    report.add_layer(kinds[k], per_op(io.writes_by_kind[k]), "count");
  }
  report.add_layer("nvm.barriers_per_op", per_op(io.barriers), "count");
}

class CountingBackend final : public ccnvm::nvm::Backend {
 public:
  /// `data_capacity` is the design's protected data size; it fixes the
  /// layout used to classify written lines by kind.
  CountingBackend(std::unique_ptr<ccnvm::nvm::Backend> inner,
                  std::uint64_t data_capacity, std::uint32_t thread)
      : inner_(std::move(inner)), layout_(data_capacity), thread_(thread) {}

  const char* name() const override { return inner_->name(); }

  bool read_line(ccnvm::Addr addr, ccnvm::Line& out) const override {
    const std::uint64_t t0 = now_ns();
    const bool hit = inner_->read_line(addr, out);
    ++counts_.line_reads;
    counts_.io_ns += now_ns() - t0;
    return hit;
  }
  void write_line(ccnvm::Addr addr, const ccnvm::Line& value) override {
    const std::uint64_t t0 = now_ns();
    inner_->write_line(addr, value);
    ++counts_.line_writes;
    ++counts_.writes_by_kind[kind_of(addr)];
    counts_.io_ns += now_ns() - t0;
  }
  bool has_line(ccnvm::Addr addr) const override {
    return inner_->has_line(addr);
  }
  std::size_t populated_lines() const override {
    return inner_->populated_lines();
  }
  void for_each_line(const std::function<void(ccnvm::Addr, const ccnvm::Line&)>&
                         fn) const override {
    inner_->for_each_line(fn);
  }

  bool read_ecc(ccnvm::Addr addr, ccnvm::nvm::EccBytes& out) const override {
    const std::uint64_t t0 = now_ns();
    const bool hit = inner_->read_ecc(addr, out);
    ++counts_.ecc_reads;
    counts_.io_ns += now_ns() - t0;
    return hit;
  }
  void write_ecc(ccnvm::Addr addr,
                 const ccnvm::nvm::EccBytes& value) override {
    const std::uint64_t t0 = now_ns();
    inner_->write_ecc(addr, value);
    ++counts_.ecc_writes;
    counts_.io_ns += now_ns() - t0;
  }
  bool has_ecc(ccnvm::Addr addr) const override {
    return inner_->has_ecc(addr);
  }
  void for_each_ecc(
      const std::function<void(ccnvm::Addr, const ccnvm::nvm::EccBytes&)>& fn)
      const override {
    inner_->for_each_ecc(fn);
  }

  void persist_barrier() override {
    const std::uint64_t t0 = now_ns();
    inner_->persist_barrier();
    const std::uint64_t t1 = now_ns();
    ++counts_.barriers;
    counts_.barrier_ns += t1 - t0;
    barrier_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
    spans_.record("nvm.persist_barrier", t0, t1, 0, 0, thread_);
  }

  void store_registers(const std::uint8_t* data, std::size_t len) override {
    inner_->store_registers(data, len);
  }
  std::size_t load_registers(std::uint8_t* out,
                             std::size_t cap) const override {
    return inner_->load_registers(out, cap);
  }
  std::unique_ptr<ccnvm::nvm::Backend> clone() const override {
    return inner_->clone();
  }

  /// Read only while the thread that drives this backend is quiescent.
  const IoCounts& counts() const { return counts_; }
  std::vector<double>& barrier_us() { return barrier_us_; }
  SpanLog& spans() { return spans_; }

 private:
  std::size_t kind_of(ccnvm::Addr addr) const {
    if (layout_.is_data_addr(addr)) return 0;
    if (layout_.is_counter_addr(addr)) return 1;
    if (layout_.is_mt_addr(addr)) return 2;
    return 3;
  }

  std::unique_ptr<ccnvm::nvm::Backend> inner_;
  ccnvm::nvm::NvmLayout layout_;
  std::uint32_t thread_;
  mutable IoCounts counts_;
  std::vector<double> barrier_us_;
  SpanLog spans_;
};

}  // namespace perfbench
