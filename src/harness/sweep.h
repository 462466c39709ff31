#ifndef QANAAT_HARNESS_SWEEP_H_
#define QANAAT_HARNESS_SWEEP_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/fabric.h"
#include "protocols/context.h"
#include "qanaat/system.h"
#include "workload/smallbank.h"

namespace qanaat {

/// One measured point of a throughput/latency curve.
struct LoadPoint {
  double offered_tps = 0;
  double measured_tps = 0;
  double avg_latency_ms = 0;
  double p99_latency_ms = 0;
  /// Host cost of the point: the events Simulator::Run executed and the
  /// wall time spent inside it (system setup excluded).
  uint64_t events = 0;
  double run_wall_s = 0;
};

/// Simulated time a point keeps running after its clients stop, so
/// in-flight transactions settle before the counters are read.
constexpr SimTime kPointDrain = 500 * kMillisecond;

/// Result of a saturation sweep: the full curve plus the knee — the
/// point "just below saturation" the paper reports in its tables.
struct SweepResult {
  std::vector<LoadPoint> curve;
  LoadPoint knee;
};

/// A full Qanaat measurement configuration.
struct QanaatRunConfig {
  SystemParams params;
  WorkloadParams workload;
  std::vector<int> cluster_regions;  // §5.4 geo experiments
  int client_machines = 16;
  SimTime duration = 1500 * kMillisecond;
  SimTime warmup = 300 * kMillisecond;
  uint64_t seed = 1;
  /// Crash `count` non-primary ordering nodes (+1 exec node and +1 filter
  /// per cluster when the firewall is on) at t=0 — Table 3.
  int faulty_ordering_nodes = 0;
  /// Crash-and-recover scenario (checkpoint/state-transfer overhead
  /// bench): one non-primary ordering node per cluster crashes at
  /// `crash_at` and recovers at `recover_at` (both 0 disables); the
  /// replica catches up through certified checkpoints and state transfer.
  SimTime crash_at = 0;
  SimTime recover_at = 0;
  /// Uniform message-loss probability on every link (§5 failure runs).
  double drop_rate = 0;
  /// Client retransmission period; 0 disables (enable under loss).
  SimTime client_retransmit_us = 0;
};

/// Runs one Qanaat configuration at a fixed offered load.
LoadPoint RunQanaatPoint(const QanaatRunConfig& cfg, double offered_tps);

/// A Fabric-family baseline measurement configuration.
struct FabricRunConfig {
  FabricConfig fabric;
  WorkloadParams workload;
  int client_machines = 16;
  SimTime duration = 1500 * kMillisecond;
  SimTime warmup = 300 * kMillisecond;
  /// Crash one Raft follower at t=0 (Table 3).
  bool fail_follower = false;
  /// Message-loss probability on client links only. Peers do survive
  /// loss on block-delivery links (they fetch missed blocks from the
  /// orderer), but this knob models lossy client access alone.
  double drop_rate = 0;
};

/// Runs one Fabric configuration at a fixed offered load. Throughput
/// counts only transactions that pass MVCC validation.
LoadPoint RunFabricPoint(const FabricRunConfig& cfg, double offered_tps);

/// Two-phase sweep (cheaper; used by the bench binaries): first
/// over-drives the system at `capacity_guess` to measure its plateau
/// throughput, then measures the curve at ~{0.5, 0.75, 0.92} of the
/// discovered capacity. The knee is the highest point whose throughput
/// tracks its offered load — the paper's "just below saturation".
SweepResult SmartSweep(const std::function<LoadPoint(double)>& run_point,
                       double capacity_guess);

/// Plateau sweep for invalidation-limited systems (the contention
/// experiments of §5.7): useful throughput can keep growing with offered
/// load long past the point where most transactions fail, so this sweep
/// raises offered load geometrically until *measured* throughput stops
/// improving, and reports the best point.
SweepResult PlateauSweep(const std::function<LoadPoint(double)>& run_point,
                         double start_tps, double growth = 1.7,
                         int max_points = 7);

/// Printer helpers shared by the bench binaries.
void PrintCurveHeader(const std::string& series_name);
void PrintCurve(const std::string& series_name, const SweepResult& r);

}  // namespace qanaat

#endif  // QANAAT_HARNESS_SWEEP_H_
