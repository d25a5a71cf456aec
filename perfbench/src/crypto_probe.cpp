// Crypto unit costs, timed from outside through the public API: one
// 64-byte line tag (HmacEngine::tag), eight line tags in one batch
// (HmacEngine::tag_many), one 64-byte one-time pad (generate_otp).
#include <array>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/hmac_sha1.h"
#include "crypto/otp.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Median over 7 rounds of the per-call cost of `body` run `iters` times.
template <typename Body>
double ns_per_call(std::size_t iters, Body&& body) {
  std::vector<double> rounds;
  for (int r = 0; r < 7; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) body(i);
    rounds.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(iters));
  }
  return median(rounds);
}

}  // namespace

CryptoUnitCosts measure_crypto_unit_costs(std::uint64_t seed) {
  using namespace ccnvm;
  CryptoUnitCosts costs;
  Rng rng(derive_seed(seed, 0xc0de));
  std::array<std::array<std::uint8_t, kLineSize>, 8> lines{};
  for (auto& line : lines) {
    for (auto& b : line) b = static_cast<std::uint8_t>(rng.next());
  }
  const crypto::HmacEngine engine(crypto::HmacKey::from_seed(rng.next()));

  std::uint8_t sink = 0;
  costs.hmac_tag_ns = ns_per_call(20000, [&](std::size_t i) {
    lines[0][0] = static_cast<std::uint8_t>(i);
    sink ^= engine.tag(lines[0]).bytes[0];
  });

  std::array<crypto::LineRef, 8> refs;
  for (std::size_t k = 0; k < refs.size(); ++k) refs[k] = lines[k];
  std::array<Tag128, 8> tags{};
  costs.tag_many8_ns_per_tag =
      ns_per_call(4000, [&](std::size_t i) {
        lines[1][0] = static_cast<std::uint8_t>(i);
        engine.tag_many(refs, tags);
        sink ^= tags[7].bytes[0];
      }) /
      8.0;

  crypto::Aes128::Key key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  const crypto::Aes128 cipher(key);
  costs.otp_pad_ns = ns_per_call(20000, [&](std::size_t i) {
    const Line pad = crypto::generate_otp(cipher, i * kLineSize, {1, i});
    sink ^= pad[0];
  });

  // Keeps the timed results observable so no call is elided.
  if (sink == 0x5a) std::fputs("", stderr);
  return costs;
}

void add_crypto_layer(const CryptoUnitCosts& costs, double hmacs, double pads,
                      double wall_s, RunReport& report) {
  report.add_layer("crypto.hmac_tag_ns", costs.hmac_tag_ns, "ns");
  report.add_layer("crypto.tag_many8_ns_per_tag", costs.tag_many8_ns_per_tag,
                   "ns");
  report.add_layer("crypto.otp_pad_ns", costs.otp_pad_ns, "ns");
  // An estimate: counts times serial unit costs, over the traced phase's
  // wall time (several threads can overlap, so it may exceed 1).
  const double est =
      wall_s > 0.0
          ? (hmacs * costs.hmac_tag_ns + pads * costs.otp_pad_ns) / 1e9 / wall_s
          : 0.0;
  report.add_layer("crypto.est_share", est, "ratio");
  report.detail(fmt_metric("crypto.est_share (estimate: count x unit cost / wall)",
                           est, "ratio"));
}

}  // namespace perfbench
