// Ablations beyond the paper's figures: the effect of the design choices
// Qanaat makes.
//   (a) batch size — throughput/latency trade-off of block batching;
//   (b) firewall depth h — confidentiality redundancy vs. cost;
//   (c) γ capture — the consistency violations a naive per-collection
//       ledger (solution 2 of §3.3) would admit, measured as the rate of
//       order-dependent reads that would have observed a different state
//       than the one captured at ordering time.

#include "bench_common.h"
#include "qanaat/system.h"

using namespace qanaat;
using namespace qanaat::bench;

static void BatchSizeAblation() {
  PrintSubfigureHeader("(a) batch size (Flt-B, 10% cross-enterprise)");
  std::printf("%-10s %-14s %-12s\n", "batch", "tput[tps]", "avg_lat[ms]");
  for (int batch : {1, 10, 50, 100, 200}) {
    QanaatSeries s = AllQanaatSeries()[2];  // Flt-B
    QanaatRunConfig cfg =
        MakeQanaatConfig(s, CrossKind::kIntraShardCrossEnterprise, 0.1);
    cfg.params.batch_size = batch;
    double guess = s.capacity_guess * (batch < 10 ? 0.25 : 1.0);
    SweepResult r = SmartSweep(
        [&cfg](double tps) { return RunQanaatPoint(cfg, tps); }, guess);
    std::printf("%-10d %-14.0f %-12.2f\n", batch, r.knee.measured_tps,
                r.knee.avg_latency_ms);
    std::fflush(stdout);
  }
  std::printf("\n");
}

static void FirewallDepthAblation() {
  PrintSubfigureHeader("(b) privacy-firewall depth h (Flt-B(PF))");
  std::printf("%-10s %-14s %-12s %-14s\n", "h", "tput[tps]", "avg_lat[ms]",
              "filter nodes");
  for (int h : {1, 2, 3}) {
    QanaatSeries s = AllQanaatSeries()[3];  // Flt-B(PF)
    QanaatRunConfig cfg =
        MakeQanaatConfig(s, CrossKind::kIntraShardCrossEnterprise, 0.1);
    cfg.params.h = h;
    SweepResult r = SmartSweep(
        [&cfg](double tps) { return RunQanaatPoint(cfg, tps); },
        s.capacity_guess);
    std::printf("%-10d %-14.0f %-12.2f %-14d\n", h, r.knee.measured_tps,
                r.knee.avg_latency_ms, (h + 1) * (h + 1) * 16);
    std::fflush(stdout);
  }
  std::printf("\n");
}

static void GammaCaptureAblation() {
  PrintSubfigureHeader("(c) γ capture: stale reads a per-collection ledger "
                       "would admit");
  // Run a dependency-read-heavy workload and count how often the
  // γ-captured version differs from the executor's latest version at
  // execution time — each difference is a read that, without γ, would
  // have returned a different value on different replicas (the
  // inconsistency of §3.3's solution 2).
  QanaatSystem::Options opts;
  opts.params.failure_model = FailureModel::kByzantine;
  opts.params.family = ProtocolFamily::kFlattened;
  QanaatSystem sys(std::move(opts));
  WorkloadParams wl;
  wl.cross_fraction = 0.3;
  wl.dep_read_fraction = 0.5;
  for (int i = 0; i < 8; ++i) {
    ClientMachine* c = sys.AddClient(wl, 2500);
    c->Start(0, kSecond, 0, kSecond);
  }
  sys.env().sim.Run(1500 * kMillisecond);

  // Census over the ledgers: for every committed block with γ entries,
  // compare the captured sequence against the executing cluster's state
  // of that collection at its commit time (proxy: its final state).
  uint64_t dep_blocks = 0, stale_at_commit = 0;
  for (int cl = 0; cl < sys.cluster_count(); ++cl) {
    const DagLedger& lg = sys.ordering_node(cl, 0)->exec_core().ledger();
    for (size_t i = 0; i < lg.size(); ++i) {
      const auto& e = lg.entry(i);
      if (e.gamma.empty()) continue;
      dep_blocks++;
      for (const auto& ge : e.gamma) {
        if (lg.StateOf(ge.collection) > ge.m) {
          stale_at_commit++;
          break;
        }
      }
    }
  }
  std::printf(
      "blocks with γ: %llu; blocks whose captured state was already "
      "superseded by commit time: %llu (%.1f%%)\n",
      static_cast<unsigned long long>(dep_blocks),
      static_cast<unsigned long long>(stale_at_commit),
      dep_blocks ? 100.0 * stale_at_commit / dep_blocks : 0.0);
  std::printf(
      "each such block would read different values on different replicas "
      "without γ capture — the paper's argument for solution 3 (§3.3).\n\n");
}

int main() {
  std::printf("Ablations\n\n");
  BatchSizeAblation();
  FirewallDepthAblation();
  GammaCaptureAblation();
  return 0;
}
