// qbench — the benchmark program. benchmark/run.py builds it and runs one
// workload per child process:
//
//   qbench --workload=W --seed=S --seconds=T --trace=0|1 [--trace-out=F]
//   qbench --selftest
//
// A run repeats the workload's rep until T seconds of reps have passed
// (at least kMinReps), cycling through kSubSeeds inputs derived from the
// seed. End-to-end simulated metrics pool the sub-seeds, per-layer counts
// come from rep 1, a repeated sub-seed must reproduce its first rep bit
// for bit, and host metrics are medians across reps. --trace=0 adds the
// knee ladder (end-to-end metrics); --trace=1 adds one traced rep and the
// isolated layer benches (per-layer metrics). The last stdout line is one
// JSON object; a `workload metric value unit` line per metric goes to
// stderr.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "scenario.h"
#include "trace.h"

namespace qbench {
namespace {

/// Each run simulates kSubSeeds independent inputs derived from --seed
/// and pools their end-to-end simulated metrics, which damps
/// seed-to-seed variation; at least one sub-seed is run twice, so every
/// run also checks determinism.
constexpr size_t kSubSeeds = 4;
constexpr size_t kMinReps = kSubSeeds + 1;
constexpr int kLayerReps = 5;
/// Knee ladder: multiples of the workload's base rate, tried in order
/// until the first step that misses a condition; then the bracket is
/// bisected kBisections times.
constexpr double kLadder[] = {1.0, 1.25, 1.5, 2.0, 2.5};
constexpr int kBisections = 2;
/// Step load of a step that failed outright; loads above it carry no
/// information about where the knee lies, so interpolation caps them.
constexpr double kFailedLoad = 2.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Run {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  std::vector<RepResult> reps;
  std::string error;  // first correctness failure
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sub-seed 0 is the run's seed itself.
uint64_t SubSeed(uint64_t seed, size_t k) {
  return seed + k * 0x9e3779b97f4a7c15ULL;
}

/// How close one knee-ladder step is to failing; it passes at <= 1. The
/// load is the larger of p99 over the SLO (a transaction that never
/// settles counts as beyond it) and the backlog when the window closes
/// over 50 ms of offered load. A step whose commit rate falls below 95%
/// of its realised issue rate is not keeping up and fails outright.
double StepLoad(const Workload& w, double rate, const RepResult& r) {
  const double n = static_cast<double>(r.latencies_us.size());
  const double unsettled = static_cast<double>(r.failed());
  if (unsettled >= 0.01 * (n + unsettled) ||
      r.CommitTps() < 0.95 * r.IssueTps()) {
    return kFailedLoad;
  }
  // p99 over settled plus never-settled transactions (the latter last).
  double p99 = r.PercentileUs(0.99 * (n + unsettled) / n);
  return std::max(p99 / (w.slo_ms * 1000),
                  r.backlog_at_close / (0.05 * rate));
}

/// The knee: the highest offered rate whose step load stays at most 1.
/// The ladder brackets it, kBisections halve the bracket, and the final
/// bracket is interpolated linearly in step load, so the knee moves
/// continuously with capacity instead of in ladder-sized jumps.
double KneeTps(const Workload& w, uint64_t seed) {
  auto load_at = [&](double rate) {
    RepOptions o;
    o.rate_tps = rate;
    o.timeline = kLadderTimeline;
    o.inject_fault = false;
    const auto t0 = std::chrono::steady_clock::now();
    RepResult r = RunRep(w, seed, o);
    double load = StepLoad(w, rate, r);
    std::fprintf(
        stderr, "  ladder %s %.0f tx/s: commit %.0f p99 %.2f ms backlog "
        "%llu failed %llu load %.3f (%.1f s)\n",
        w.name, rate, r.CommitTps(), r.PercentileUs(0.99) / 1000,
        static_cast<unsigned long long>(r.backlog_at_close),
        static_cast<unsigned long long>(r.failed()), load,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    return load;
  };
  double lo = 0, lo_load = 0, hi = 0, hi_load = 0;
  for (double step : kLadder) {
    double rate = w.rate_tps * step;
    double load = load_at(rate);
    if (load > 1) {
      hi = rate;
      hi_load = load;
      break;
    }
    lo = rate;
    lo_load = load;
  }
  if (lo == 0 || hi == 0) return lo;  // base already fails, or never does
  for (int i = 0; i < kBisections; ++i) {
    double mid = 0.5 * (lo + hi);
    double load = load_at(mid);
    (load > 1 ? hi : lo) = mid;
    (load > 1 ? hi_load : lo_load) = load;
  }
  double frac = (1 - lo_load) / (std::min(hi_load, kFailedLoad) - lo_load);
  return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
}

/// Per-layer counts of one rep (deterministic, so rep 1's stand for all).
void AddLayerCounts(const Workload& w, const RepResult& r,
                    std::vector<Metric>* out) {
  const double commits = static_cast<double>(r.settled);
  auto add = [out](const char* name, double v, const char* unit) {
    out->push_back({name, v, unit});
  };
  add("sim.events_per_commit", Ratio(r.events, commits), "events/tx");
  add("sim.queue_peak", r.queue_peak, "events");
  add("sim.msgs_per_commit", Ratio(r.messages, commits), "msgs/tx");
  add("sim.kb_per_commit", Ratio(r.bytes / 1024.0, commits), "KB/tx");
  add("consensus.txs_per_block", r.txs_per_block, "tx/block");
  add("consensus.view_changes",
      r.Counter("pbft.view_installed") + r.Counter("paxos.leader_takeover"),
      "count");
  add("consensus.ckpt_stable", r.Counter("ckpt.stable"), "count");
  add("consensus.fills",
      r.Counter("pbft.slot_filled") + r.Counter("paxos.noop_filled"),
      "count");
  add("protocols.cross_abort_ratio",
      Ratio(r.aborted_blocks, r.committed_blocks + r.aborted_blocks),
      "ratio");
  add("protocols.cross_redrives",
      r.Counter("cross.redrive") + r.Counter("cross.timeout"), "count");
  add("protocols.cross_deferred", r.Counter("cross.deferred_conflict"),
      "count");
  add("protocols.conflict_nacks", r.Counter("cross.conflict_nack"), "count");
  add("protocols.dup_requests", r.Counter("order.duplicate_request"),
      "count");
  add("protocols.primary_suspected", r.Counter("order.primary_suspected"),
      "count");
  add("protocols.max_commit_gap_ms", r.max_commit_gap_us / 1000.0, "ms");
  // exec.deferred counts every ExecutorCore; behind the firewall only the
  // separated execution nodes execute, so it is the firewall's there.
  add("firewall.exec_deferred", w.firewall ? r.Counter("exec.deferred") : 0,
      "count");
  add("firewall.settles_per_cert", r.settles_per_cert, "tx/cert");
  add("firewall.push_replays",
      r.Counter("order.exec_push_replayed") +
          r.Counter("order.exec_push_backup"),
      "count");
  add("firewall.state_blocks", r.Counter("exec.pull_block_installed"),
      "blocks");
  add("qanaat.retransmits_per_1k_issued",
      Ratio(1000.0 * r.Counter("client.retransmit"), r.issued), "1/1000tx");
  add("qanaat.backlog_at_close", r.backlog_at_close, "tx");
}

void Fail(Run* run, const std::string& why) {
  if (run->error.empty()) run->error = why;
}

void Measure(Run* run, double seconds, bool traced,
             const std::string& trace_out) {
  const Workload& w = *run->w;
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // ---- measured reps, cycling through the sub-seeds. Rep 1 (sub-seed
  // 0 = the run's seed) is audited; a repeated sub-seed must reproduce
  // its first rep bit for bit.
  auto& reps = run->reps;
  while (reps.size() < kMinReps || elapsed() < seconds) {
    const size_t k = reps.size() % kSubSeeds;
    RepOptions o;
    o.rate_tps = w.rate_tps;
    o.audit = o.record_links = reps.empty();
    reps.push_back(RunRep(w, SubSeed(run->seed, k), o));
    const RepResult& r = reps.back();
    run->attempted += r.issued;
    run->failed += r.failed();
    if (!r.latency_cross_check) Fail(run, "client latency cross-check");
    if (!r.audit.ok()) Fail(run, "audit: " + r.audit.ToString());
    std::string diff = CompareSimulated(reps[k], r);
    if (!diff.empty()) {
      Fail(run, "rep " + std::to_string(reps.size()) + " differs from rep " +
                    std::to_string(k + 1) + " (same sub-seed) in " + diff);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const RepResult& r1 = reps.front();
  // End-to-end simulated metrics pool the first rep of every sub-seed.
  RepResult pooled;
  for (size_t k = 0; k < kSubSeeds; ++k) {
    pooled.latencies_us.insert(pooled.latencies_us.end(),
                               reps[k].latencies_us.begin(),
                               reps[k].latencies_us.end());
    pooled.window_s += reps[k].window_s;
  }
  std::sort(pooled.latencies_us.begin(), pooled.latencies_us.end());
  // Host medians skip rep 1: it starts on a cold heap and also records
  // delivered links for the audit.
  std::vector<double> speeds, setups, ns_per_event;
  for (size_t i = 1; i < reps.size(); ++i) {
    speeds.push_back(reps[i].SimSpeed());
    setups.push_back(reps[i].setup_s);
    ns_per_event.push_back(1e9 * reps[i].run_s / reps[i].events);
  }
  std::fprintf(stderr, "  %s: %zu reps, sim_speed %.3f |", w.name,
               reps.size(), r1.SimSpeed());
  for (double s : speeds) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  std::vector<Metric>& m = run->metrics;
  if (!traced) {
    m.push_back({"commit_tps", pooled.CommitTps(), "tx/s"});
    m.push_back({"knee_tps", KneeTps(w, run->seed), "tx/s"});
    m.push_back({"lat_p50_ms", pooled.PercentileUs(0.50) / 1000, "ms"});
    m.push_back({"lat_p99_ms", pooled.PercentileUs(0.99) / 1000, "ms"});
    m.push_back({"lat_mean_ms", pooled.MeanUs() / 1000, "ms"});
    m.push_back({"setup_s", Median(setups), "s"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    return;
  }

  // ---- traced rep + isolated layer benches
  SpanRecorder rec;
  rec.Begin("workload");
  rec.Begin("rep");
  RepOptions o;
  o.rate_tps = w.rate_tps;
  o.audit = true;
  o.trace = &rec;
  RepResult traced_rep = RunRep(w, run->seed, o);
  rec.End("\"seed\":" + std::to_string(run->seed));
  std::string diff = CompareSimulated(r1, traced_rep);
  if (!diff.empty()) Fail(run, "traced rep differs from rep 1 in " + diff);
  if (!traced_rep.audit.ok()) {
    Fail(run, "traced rep audit: " + traced_rep.audit.ToString());
  }
  std::vector<LayerResult> layers = RunLayerBenches(kLayerReps, &rec);
  rec.End("\"workload\":\"" + std::string(w.name) + "\"");
  if (!trace_out.empty() && !rec.WriteChromeJson(trace_out)) {
    std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
  }

  AddLayerCounts(w, r1, &m);
  m.push_back({"qanaat.lat_samples",
               static_cast<double>(pooled.latencies_us.size()), "count"});
  m.push_back({"sim.speed", Median(speeds), "sim-s/s"});
  m.push_back({"sim.host_ns_per_event", Median(ns_per_event), "ns"});
  for (const LayerResult& l : layers) m.push_back({l.name, l.value, l.unit});
  // The later reps of sub-seed 0 do the traced rep's work minus the spans.
  std::vector<double> plain;
  for (size_t i = kSubSeeds; i < reps.size(); i += kSubSeeds) {
    plain.push_back(reps[i].SimSpeed());
  }
  m.push_back({"trace_overhead", Median(plain) / traced_rep.SimSpeed() - 1,
               "ratio"});
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

void PrintResult(const Run& run) {
  for (const Metric& m : run.metrics) {
    std::fprintf(stderr, "%s %s %.6g %s\n", run.w->name, m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"reps\":%zu,"
              "\"correct\":%s,\"error\":\"%s\",\"attempted\":%llu,"
              "\"failed\":%llu,\"metrics\":{",
              run.w->name, static_cast<unsigned long long>(run.seed),
              run.reps.size(), run.error.empty() ? "true" : "false",
              JsonEscape(run.error).c_str(),
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i ? "," : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

// ------------------------------------------------------------- selftest

bool Check(bool ok, const std::string& what) {
  std::fprintf(stderr, "selftest %-64s %s\n", what.c_str(),
               ok ? "ok" : "FAILED");
  return ok;
}

int Selftest() {
  bool ok = true;
  const Workload& pbft = *FindWorkload("pbft_intra");
  const Workload& fw = *FindWorkload("fw_recovery");

  // Slicing and tracing are observation only: one Run() per phase, 1 ms
  // slices and a traced rep simulate the same thing.
  RepOptions o;
  o.rate_tps = pbft.rate_tps;
  o.timeline = Timeline{200'000, 500'000, 200'000};
  o.sliced = false;
  RepResult whole = RunRep(pbft, 1, o);
  o.sliced = true;
  RepResult sliced = RunRep(pbft, 1, o);
  SpanRecorder rec;
  o.trace = &rec;
  RepResult traced = RunRep(pbft, 1, o);
  for (const RepResult* r : {&sliced, &traced}) {
    ok &= Check(r->trace_hash == whole.trace_hash &&
                    r->events == whole.events && r->settled == whole.settled,
                std::string(r == &sliced ? "sliced" : "traced") +
                    " run matches one Run() per phase");
  }
  ok &= Check(rec.size() > 0, "traced run recorded spans");

  // The workloads do what they are for.
  auto counts = [](const Workload& w) {
    RepOptions ro;
    ro.rate_tps = w.rate_tps;
    ro.audit = true;
    RepResult r = RunRep(w, 1, ro);
    std::vector<Metric> m;
    AddLayerCounts(w, r, &m);
    std::map<std::string, double> out;
    for (const Metric& x : m) out[x.name] = x.value;
    out["failed"] = r.failed();
    out["audit_ok"] = r.audit.ok();
    return out;
  };
  auto p = counts(pbft);
  ok &= Check(p["audit_ok"] == 1 && p["failed"] == 0,
              "pbft_intra audits clean, nothing fails");
  ok &= Check(p["consensus.view_changes"] == 0, "pbft_intra: no view change");
  ok &= Check(p["firewall.exec_deferred"] + p["firewall.settles_per_cert"] +
                      p["firewall.push_replays"] +
                      p["firewall.state_blocks"] ==
                  0,
              "pbft_intra: firewall counters are zero");
  auto f = counts(fw);
  ok &= Check(f["audit_ok"] == 1 && f["failed"] == 0,
              "fw_recovery audits clean (recovered replicas converge)");
  ok &= Check(f["firewall.state_blocks"] >= 1 &&
                  f["firewall.settles_per_cert"] > 0,
              "fw_recovery: executors catch up through the firewall");
  std::fprintf(stderr, "selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

bool Flag(const char* arg, const char* name, std::string* value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: qbench --workload=W --seed=S --seconds=T "
               "[--trace=0|1] [--trace-out=FILE]\n"
               "       qbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace qbench

int main(int argc, char** argv) {
  using namespace qbench;
  std::string workload, seed = "1", seconds = "10", trace = "0", trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--selftest") == 0) return Selftest();
    if (Flag(argv[i], "--workload", &v)) {
      workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      seed = v;
    } else if (Flag(argv[i], "--seconds", &v)) {
      seconds = v;
    } else if (Flag(argv[i], "--trace", &v)) {
      trace = v;
    } else if (Flag(argv[i], "--trace-out", &v)) {
      trace_out = v;
    } else {
      return Usage();
    }
  }
  Run run;
  run.w = FindWorkload(workload);
  char* end = nullptr;
  run.seed = std::strtoull(seed.c_str(), &end, 10);
  double secs = std::strtod(seconds.c_str(), nullptr);
  if (run.w == nullptr || *end != '\0' || secs <= 0 ||
      (trace != "0" && trace != "1")) {
    return Usage();
  }
  Measure(&run, secs, trace == "1", trace_out);
  PrintResult(run);
  if (!run.error.empty()) {
    std::fprintf(stderr, "correctness check failed: %s\nrepro: qbench "
                 "--workload=%s --seed=%llu\n",
                 run.error.c_str(), run.w->name,
                 static_cast<unsigned long long>(run.seed));
    return 1;
  }
  return 0;
}
