#include "harness/sweep.h"

#include <cstdio>

namespace qanaat {

namespace {
// The paper's reported operating point: the highest-throughput point
// whose throughput still tracks offered load; if none does (heavily
// invalidation-limited runs), the highest-throughput point outright.
LoadPoint PickKnee(const std::vector<LoadPoint>& curve) {
  const LoadPoint* best_ok = nullptr;
  const LoadPoint* best_any = &curve.front();
  for (const auto& p : curve) {
    if (p.measured_tps >= best_any->measured_tps) best_any = &p;
    if (p.measured_tps >= 0.85 * p.offered_tps &&
        (best_ok == nullptr || p.measured_tps >= best_ok->measured_tps)) {
      best_ok = &p;
    }
  }
  return best_ok != nullptr ? *best_ok : *best_any;
}

// Runs a loaded system (Qanaat or Fabric) until its clients stop plus
// the drain, then reads the point off its measurement window.
template <class System>
LoadPoint Measure(System& sys, double offered_tps, SimTime duration,
                  SimTime measure_from, SimTime measure_to) {
  LoadPoint p;
  p.offered_tps = offered_tps;
  p.events = sys.env().sim.Run(duration + kPointDrain);
  p.run_wall_s = sys.env().sim.wall_seconds_in_run();
  double window_s =
      static_cast<double>(measure_to - measure_from) / kSecond;
  p.measured_tps = static_cast<double>(sys.TotalMeasuredCommits()) / window_s;
  Histogram lat = sys.MergedLatencies();
  p.avg_latency_ms = lat.Mean() / 1000.0;
  p.p99_latency_ms = static_cast<double>(lat.Percentile(0.99)) / 1000.0;
  return p;
}
}  // namespace

LoadPoint RunQanaatPoint(const QanaatRunConfig& cfg, double offered_tps) {
  QanaatSystem::Options opts;
  opts.params = cfg.params;
  opts.cluster_regions = cfg.cluster_regions;
  opts.seed = cfg.seed;
  QanaatSystem sys(std::move(opts));

  // §5.4 region RTTs (Tokyo, Seoul, Virginia, California).
  if (!cfg.cluster_regions.empty()) {
    int regions = sys.net().region_count();
    static const SimTime kRtt[4][4] = {
        {0, 33000, 148000, 107000},
        {33000, 0, 175000, 135000},
        {148000, 175000, 0, 62000},
        {107000, 135000, 62000, 0},
    };
    for (int a = 0; a < regions && a < 4; ++a) {
      for (int b = a + 1; b < regions && b < 4; ++b) {
        sys.net().SetRtt(a, b, kRtt[a][b]);
      }
    }
  }

  // Fault injection (§5.6): crash one non-primary ordering node per
  // cluster (f=1 tolerated), plus one execution node and one filter when
  // the firewall is deployed.
  if (cfg.faulty_ordering_nodes > 0) {
    for (int c = 0; c < sys.cluster_count(); ++c) {
      const ClusterConfig& cc = sys.directory().Cluster(c);
      for (int i = 0; i < cfg.faulty_ordering_nodes &&
                      i + 1 < static_cast<int>(cc.ordering.size());
           ++i) {
        sys.ordering_node(c, static_cast<int>(cc.ordering.size()) - 1 - i)
            ->Crash();
      }
      if (!cc.execution.empty()) {
        sys.execution_node(c, static_cast<int>(cc.execution.size()) - 1)
            ->Crash();
      }
      if (!cc.filter_rows.empty()) {
        sys.filter_node(c, 0,
                        static_cast<int>(cc.filter_rows[0].size()) - 1)
            ->Crash();
      }
    }
  }

  if (cfg.drop_rate > 0) sys.net().SetDropRate(cfg.drop_rate);

  if (cfg.recover_at > cfg.crash_at && cfg.crash_at > 0) {
    for (int c = 0; c < sys.cluster_count(); ++c) {
      const ClusterConfig& cc = sys.directory().Cluster(c);
      Actor* victim = sys.ordering_node(
          c, static_cast<int>(cc.ordering.size()) - 1);
      sys.env().sim.ScheduleAt(cfg.crash_at, [victim]() { victim->Crash(); });
      sys.env().sim.ScheduleAt(cfg.recover_at,
                               [victim]() { victim->Recover(); });
    }
  }

  double per_client = offered_tps / cfg.client_machines;
  SimTime measure_from = cfg.warmup;
  SimTime measure_to = cfg.duration - cfg.warmup / 3;
  for (int i = 0; i < cfg.client_machines; ++i) {
    ClientMachine* c = sys.AddClient(cfg.workload, per_client);
    if (cfg.client_retransmit_us > 0) {
      c->SetRetransmitTimeout(cfg.client_retransmit_us);
    }
    c->Start(0, cfg.duration, measure_from, measure_to);
  }
  return Measure(sys, offered_tps, cfg.duration, measure_from, measure_to);
}

SweepResult SmartSweep(const std::function<LoadPoint(double)>& run_point,
                       double capacity_guess) {
  // Bracket the saturation knee starting from a calibrated guess: step
  // up while throughput tracks offered load, step down once it stops.
  // All probe loads stay near capacity, so no run degenerates into the
  // intake-flooded regime.
  auto saturated = [](const LoadPoint& p) {
    return p.measured_tps < 0.87 * p.offered_tps;
  };
  SweepResult result;
  double offered = capacity_guess * 0.8;
  bool seen_ok = false, seen_sat = false;
  for (int i = 0; i < 4 && !(seen_ok && seen_sat); ++i) {
    LoadPoint p = run_point(offered);
    result.curve.push_back(p);
    if (saturated(p)) {
      seen_sat = true;
      offered *= seen_ok ? 0.9 : 0.72;
    } else {
      seen_ok = true;
      offered *= 1.3;
    }
  }
  result.knee = PickKnee(result.curve);
  // Refine: if the gap between the best non-saturated point and the
  // lowest saturated point is wide, probe the midpoint once.
  double best_ok = 0, low_sat = 0;
  for (const auto& p : result.curve) {
    if (!saturated(p)) {
      best_ok = std::max(best_ok, p.offered_tps);
    } else if (low_sat == 0 || p.offered_tps < low_sat) {
      low_sat = p.offered_tps;
    }
  }
  if (best_ok > 0 && low_sat > 1.12 * best_ok) {
    result.curve.push_back(run_point(0.5 * (best_ok + low_sat)));
    result.knee = PickKnee(result.curve);
  }
  // One half-load point for the latency floor of the curve.
  result.curve.insert(result.curve.begin(),
                      run_point(result.knee.measured_tps * 0.5));
  result.knee = PickKnee(result.curve);
  return result;
}

SweepResult PlateauSweep(const std::function<LoadPoint(double)>& run_point,
                         double start_tps, double growth, int max_points) {
  SweepResult result;
  double offered = start_tps;
  double best = 0;
  int flat = 0;
  for (int i = 0; i < max_points; ++i) {
    LoadPoint p = run_point(offered);
    result.curve.push_back(p);
    // Under heavy invalidation useful throughput can dip before rising
    // again at higher offered load; require two consecutive
    // non-improving points before declaring the plateau.
    if (p.measured_tps < best * 1.08) {
      if (++flat >= 2) break;
    } else {
      flat = 0;
    }
    best = std::max(best, p.measured_tps);
    offered *= growth;
  }
  result.knee = PickKnee(result.curve);
  return result;
}

LoadPoint RunFabricPoint(const FabricRunConfig& cfg, double offered_tps) {
  FabricSystem sys(cfg.fabric);
  if (cfg.fail_follower) sys.orderer(1)->Crash();
  double per_client = offered_tps / cfg.client_machines;
  SimTime measure_from = cfg.warmup;
  SimTime measure_to = cfg.duration - cfg.warmup / 3;
  std::vector<FabricClient*> clients;
  for (int i = 0; i < cfg.client_machines; ++i) {
    FabricClient* c = sys.AddClient(cfg.workload, per_client);
    c->Start(0, cfg.duration, measure_from, measure_to);
    clients.push_back(c);
  }
  if (cfg.drop_rate > 0) {
    // Loss on client links only (see FabricRunConfig::drop_rate).
    Network::LinkFault lf;
    lf.drop = cfg.drop_rate;
    for (FabricClient* c : clients) {
      sys.net().SetLinkFaultBetween(c->id(), sys.leader_id(), lf);
      for (const auto& peer : sys.peers()) {
        sys.net().SetLinkFaultBetween(c->id(), peer->id(), lf);
      }
    }
  }
  return Measure(sys, offered_tps, cfg.duration, measure_from, measure_to);
}

void PrintCurveHeader(const std::string& series_name) {
  std::printf("# %s\n", series_name.c_str());
  std::printf("%-14s %-14s %-12s %-12s\n", "offered[tps]", "tput[tps]",
              "avg_lat[ms]", "p99_lat[ms]");
}

void PrintCurve(const std::string& series_name, const SweepResult& r) {
  PrintCurveHeader(series_name);
  for (const auto& p : r.curve) {
    std::printf("%-14.0f %-14.0f %-12.2f %-12.2f\n", p.offered_tps,
                p.measured_tps, p.avg_latency_ms, p.p99_latency_ms);
  }
  std::printf("knee: %.0f tps @ %.2f ms\n\n", r.knee.measured_tps,
              r.knee.avg_latency_ms);
}

}  // namespace qanaat
