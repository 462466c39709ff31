#ifndef QANAAT_SIM_ENV_H_
#define QANAAT_SIM_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/types.h"
#include "crypto/signer.h"
#include "sim/simulator.h"

namespace qanaat {

class Network;

/// CPU / transport cost model: the knobs that calibrate simulated
/// performance against the paper's c4.2xlarge testbed. All times in
/// microseconds of simulated time.
/// Constants are calibrated so that one cluster of
/// c4.2xlarge-class nodes saturates near the paper's per-cluster
/// throughput; what the experiments compare is protocols, not absolute
/// hardware speed.
struct CostModel {
  /// Fixed cost of handling any message (deserialize + dispatch).
  SimTime base_proc_us = 8;
  /// Cost per signature verification performed on receipt.
  SimTime verify_sig_us = 35;
  /// Cost of verifying a MAC (crash clusters authenticate clients and
  /// each other with MACs instead of signatures).
  SimTime mac_verify_us = 6;
  /// Cost of executing one transaction against the store.
  SimTime exec_tx_us = 15;
  /// Per-transaction ordering cost at the primary: dedup, serialization,
  /// hashing into the batch, amortized signing.
  SimTime batch_tx_us = 103;
  /// Extra per-transaction cost at ordering nodes when the privacy
  /// firewall is deployed: encrypted request/reply bodies and
  /// threshold-share handling (§3.4; calibrated to the 6-8% throughput
  /// overhead reported in §5.1).
  SimTime pf_tx_overhead_us = 8;
  // ---- Fabric-family baseline costs (see src/baselines) ----
  /// Endorsement: simulate the transaction, produce read/write sets.
  SimTime endorse_tx_us = 45;
  /// Per-transaction ordering cost at the Raft leader (Fabric's single
  /// ordering service is the bottleneck the paper measures, §5.1).
  SimTime fabric_order_tx_us = 95;
  /// FastFabric sends only transaction hashes to the orderers.
  SimTime fastfabric_order_tx_us = 28;
  /// MVCC validation + commit per transaction at a peer.
  SimTime validate_tx_us = 25;
  /// Processing the hash of a private transaction at a non-member peer.
  SimTime hash_tx_us = 8;

  /// One-way latency between nodes in the same datacenter.
  SimTime lan_latency_us = 250;
  /// Random additional delay, uniform in [0, jitter].
  SimTime jitter_us = 50;
  /// NIC bandwidth in bytes per microsecond (1250 = 10 Gbit/s).
  double bandwidth_bytes_per_us = 1250.0;
};

/// Named counters + histograms for a simulation run.
class Metrics {
 public:
  void Inc(const std::string& name, uint64_t by = 1) { counters_[name] += by; }
  uint64_t Get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  Histogram& Hist(const std::string& name) { return hists_[name]; }
  const std::map<std::string, uint64_t>& counters() const { return counters_; }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Histogram> hists_;
};

/// Shared context for one simulation run: clock/event queue, transport,
/// PKI, cost model, metrics and the root RNG. Owned by the topology
/// builder; actors borrow it.
struct Env {
  explicit Env(uint64_t seed)
      : rng(seed), keystore(SplitMix64Seed(seed)) {}

  Simulator sim;
  Rng rng;
  KeyStore keystore;
  CostModel costs;
  Metrics metrics;
  Network* net = nullptr;  // set by Network's constructor

 private:
  static uint64_t SplitMix64Seed(uint64_t s) {
    uint64_t st = s ^ 0x9e3779b97f4a7c15ULL;
    return SplitMix64(st);
  }
};

}  // namespace qanaat

#endif  // QANAAT_SIM_ENV_H_
