// The benchmark's workloads. Each runs one measurement for
// `options.seconds`, checks its outputs, and fills `report`: with
// options.trace false the end-to-end metrics, with it true the per-layer
// metrics (plus the tracing overhead against an untraced pass of equal
// length).
#pragma once

#include <cstdint>

#include "report.h"

namespace perfbench {

/// YCSB-A over KvService, 4 closed-loop clients; `durable` selects
/// kBarrier FileBackend media instead of the in-memory map.
void run_kv(const RunOptions& options, bool durable, RunReport& report);

/// Repeated reopen of a crashed cc-NVM SecureKvStore image.
void run_reopen(const RunOptions& options, RunReport& report);

/// The Figure-5 grid in timing-only mode.
void run_fig5(const RunOptions& options, RunReport& report);

/// Unit costs of the crypto primitives, timed through the public API.
struct CryptoUnitCosts {
  double hmac_tag_ns = 0.0;
  double tag_many8_ns_per_tag = 0.0;
  double otp_pad_ns = 0.0;
};
CryptoUnitCosts measure_crypto_unit_costs(std::uint64_t seed);

/// Adds the crypto unit costs and the count-times-cost share estimate.
/// `hmacs`/`pads` are the counts the traced phase performed and
/// `wall_s` its wall time.
void add_crypto_layer(const CryptoUnitCosts& costs, double hmacs, double pads,
                      double wall_s, RunReport& report);

}  // namespace perfbench
