#ifndef QANAAT_BENCH_BENCH_COMMON_H_
#define QANAAT_BENCH_BENCH_COMMON_H_

// Shared configuration for the paper-reproduction bench binaries. Each
// binary regenerates one table/figure of the paper's §5 and prints the
// same series the paper plots.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/sweep.h"

namespace qanaat {
namespace bench {

/// One Qanaat protocol series of the paper's plots.
struct QanaatSeries {
  const char* name;
  FailureModel fm;
  bool firewall;
  ProtocolFamily family;
  /// Rough expected capacity at 4x4 with 10% cross (used to seed the
  /// two-phase sweep; the sweep self-corrects).
  double capacity_guess;
};

inline const std::vector<QanaatSeries>& AllQanaatSeries() {
  static const std::vector<QanaatSeries> kSeries = {
      {"Crd-B", FailureModel::kByzantine, false, ProtocolFamily::kCoordinator,
       80000},
      {"Crd-B(PF)", FailureModel::kByzantine, true,
       ProtocolFamily::kCoordinator, 74000},
      {"Flt-B", FailureModel::kByzantine, false, ProtocolFamily::kFlattened,
       84000},
      {"Flt-B(PF)", FailureModel::kByzantine, true,
       ProtocolFamily::kFlattened, 78000},
      {"Crd-C", FailureModel::kCrash, false, ProtocolFamily::kCoordinator,
       104000},
      {"Flt-C", FailureModel::kCrash, false, ProtocolFamily::kFlattened,
       110000},
  };
  return kSeries;
}

struct FabricSeries {
  const char* name;
  FabricVariant variant;
  double capacity_guess;
};

inline const std::vector<FabricSeries>& AllFabricSeries() {
  static const std::vector<FabricSeries> kSeries = {
      {"Fabric", FabricVariant::kFabric, 9700},
      {"Fabric++", FabricVariant::kFabricPP, 10000},
      {"FastFabric", FabricVariant::kFastFabric, 28000},
  };
  return kSeries;
}

/// QANAAT_BENCH_FAST=1 shrinks durations for quick iteration.
inline bool FastMode() {
  const char* v = std::getenv("QANAAT_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

inline SimTime BenchDuration() {
  return FastMode() ? 400 * kMillisecond : 900 * kMillisecond;
}
inline SimTime BenchWarmup() { return FastMode() ? 150 * kMillisecond
                                                 : 200 * kMillisecond; }

inline QanaatRunConfig MakeQanaatConfig(const QanaatSeries& s,
                                        CrossKind kind, double cross_frac,
                                        int enterprises = 4, int shards = 4,
                                        double zipf = 0.0) {
  QanaatRunConfig cfg;
  cfg.params.num_enterprises = enterprises;
  cfg.params.shards_per_enterprise = shards;
  cfg.params.failure_model = s.fm;
  cfg.params.use_firewall = s.firewall;
  cfg.params.family = s.family;
  cfg.workload.cross_kind = kind;
  cfg.workload.cross_fraction = cross_frac;
  cfg.workload.zipf_s = zipf;
  cfg.duration = BenchDuration();
  cfg.warmup = BenchWarmup();
  return cfg;
}

inline FabricRunConfig MakeFabricConfig(const FabricSeries& s,
                                        CrossKind kind, double cross_frac,
                                        double zipf = 0.0) {
  FabricRunConfig cfg;
  cfg.fabric.variant = s.variant;
  cfg.workload.cross_kind = kind;
  cfg.workload.cross_fraction = cross_frac;
  cfg.workload.zipf_s = zipf;
  cfg.duration = BenchDuration();
  cfg.warmup = BenchWarmup();
  return cfg;
}

inline void PrintSubfigureHeader(const std::string& title) {
  std::printf("==== %s ====\n", title.c_str());
}

/// The standard bench JSON record: one line per measured point, greppable
/// and machine-parseable next to the human-readable tables.
inline void PrintJsonPoint(const char* bench, const char* system,
                           const char* scenario, const LoadPoint& p) {
  std::printf(
      "{\"bench\":\"%s\",\"system\":\"%s\",\"scenario\":\"%s\","
      "\"offered_tps\":%.0f,\"tput_tps\":%.0f,\"avg_lat_ms\":%.2f,"
      "\"p99_lat_ms\":%.2f}\n",
      bench, system, scenario, p.offered_tps, p.measured_tps,
      p.avg_latency_ms, p.p99_latency_ms);
}

/// Shared driver for Figures 7, 8 and 9: one subfigure per cross-cluster
/// fraction in {10%, 50%, 90%}, all Qanaat series (+ optionally the
/// Fabric family).
inline void RunCrossFigure(const std::string& title, CrossKind kind,
                           bool include_fabric) {
  std::printf("%s\n(4 enterprises x 4 shards, f=g=h=1, SmallBank, uniform "
              "keys)\n\n",
              title.c_str());
  const char* sub[] = {"a", "b", "c"};
  const double fracs[] = {0.1, 0.5, 0.9};
  for (int i = 0; i < 3; ++i) {
    double frac = fracs[i];
    PrintSubfigureHeader(std::string("(") + sub[i] + "): " +
                         std::to_string(int(frac * 100)) +
                         "% cross-cluster transactions");
    for (const auto& s : AllQanaatSeries()) {
      QanaatRunConfig cfg = MakeQanaatConfig(s, kind, frac);
      // Cross-cluster consensus is costlier; scale the sweep seed.
      double guess = s.capacity_guess * (1.0 - 0.55 * frac);
      SweepResult r = SmartSweep(
          [&cfg](double tps) { return RunQanaatPoint(cfg, tps); }, guess);
      PrintCurve(s.name, r);
    }
    if (!include_fabric) continue;
    for (const auto& s : AllFabricSeries()) {
      FabricRunConfig cfg = MakeFabricConfig(s, kind, frac);
      SweepResult r = SmartSweep(
          [&cfg](double tps) { return RunFabricPoint(cfg, tps); },
          s.capacity_guess * (1.0 - 0.25 * frac));
      PrintCurve(s.name, r);
    }
  }
}

}  // namespace bench
}  // namespace qanaat

#endif  // QANAAT_BENCH_BENCH_COMMON_H_
