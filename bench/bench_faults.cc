// Throughput/latency under failures — the paper's §5 failure experiments:
// Qanaat-PBFT (Byzantine, flattened) vs Fabric at a fixed offered load,
// fault-free vs one crashed backup per cluster (Table 3's setup) vs 1%
// uniform message loss. Emits the standard bench JSON (one line per
// point) after the human-readable table.

#include <cstdio>

#include "bench_common.h"

namespace qanaat {
namespace bench {
namespace {

struct Scenario {
  const char* name;
  int crash_backups = 0;
  double loss = 0.0;
  /// Crash-and-recover window (one backup per cluster) — the
  /// checkpoint/state-transfer overhead point.
  bool crash_recover = false;
};

const Scenario kScenarios[] = {
    {"baseline", 0, 0.0},
    {"crash_backup", 1, 0.0},
    {"loss_1pct", 0, 0.01},
    // One backup per cluster crashes mid-run and recovers under load,
    // catching up through certified checkpoints and state transfer; set
    // against `baseline` this is what recovery costs (checkpoint votes,
    // transfer bytes). recovery_test.cc covers the safety side.
    {"crash_recover_st", 0, 0.0, /*crash_recover=*/true},
};

void Run() {
  std::printf("Failure experiments: fixed offered load, fault-free vs one "
              "crashed backup per cluster vs 1%% message loss\n"
              "(2 enterprises x 2 shards, f=1, SmallBank, 10%% "
              "cross-enterprise)\n\n");
  const double kQanaatLoad = FastMode() ? 4000 : 12000;
  const double kFabricLoad = FastMode() ? 2000 : 6000;

  PrintCurveHeader("Qanaat-PBFT (Flt-B)");
  for (const Scenario& sc : kScenarios) {
    QanaatRunConfig cfg;
    cfg.params.num_enterprises = 2;
    cfg.params.shards_per_enterprise = 2;
    cfg.params.failure_model = FailureModel::kByzantine;
    cfg.params.family = ProtocolFamily::kFlattened;
    cfg.workload.cross_kind = CrossKind::kIntraShardCrossEnterprise;
    cfg.workload.cross_fraction = 0.1;
    cfg.duration = BenchDuration();
    cfg.warmup = BenchWarmup();
    cfg.faulty_ordering_nodes = sc.crash_backups;
    cfg.drop_rate = sc.loss;
    if (sc.loss > 0) cfg.client_retransmit_us = 250 * kMillisecond;
    if (sc.crash_recover) {
      cfg.crash_at = cfg.duration / 4;
      cfg.recover_at = cfg.duration / 2;
      cfg.client_retransmit_us = 250 * kMillisecond;
    }
    LoadPoint p = RunQanaatPoint(cfg, kQanaatLoad);
    std::printf("%-14s %-14.0f %-12.2f %-12.2f  (%s)\n", "", p.measured_tps,
                p.avg_latency_ms, p.p99_latency_ms, sc.name);
    PrintJsonPoint("faults", "qanaat-pbft", sc.name, p);
  }
  std::printf("\n");

  PrintCurveHeader("Fabric");
  for (const Scenario& sc : kScenarios) {
    if (sc.crash_recover) continue;  // Qanaat-only recovery scenarios
    FabricRunConfig cfg;
    cfg.fabric.enterprises = 2;
    cfg.workload.cross_kind = CrossKind::kIntraShardCrossEnterprise;
    cfg.workload.cross_fraction = 0.1;
    cfg.duration = BenchDuration();
    cfg.warmup = BenchWarmup();
    cfg.fail_follower = sc.crash_backups > 0;
    cfg.drop_rate = sc.loss;
    LoadPoint p = RunFabricPoint(cfg, kFabricLoad);
    std::printf("%-14s %-14.0f %-12.2f %-12.2f  (%s)\n", "", p.measured_tps,
                p.avg_latency_ms, p.p99_latency_ms, sc.name);
    PrintJsonPoint("faults", "fabric", sc.name, p);
  }
}

}  // namespace
}  // namespace bench
}  // namespace qanaat

int main() {
  qanaat::bench::Run();
  return 0;
}
