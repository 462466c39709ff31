#ifndef QANAAT_BENCHMARK_SCENARIO_H_
#define QANAAT_BENCHMARK_SCENARIO_H_

// The benchmark's workloads and the one measured repetition ("rep") each
// of them runs. Everything here observes the system from outside: public
// constructors build it, public accessors are read between 1 ms
// Simulator::Run slices, and host time is the benchmark's own clock
// around those calls.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "protocols/context.h"
#include "workload/smallbank.h"

#include "trace.h"

namespace qbench {

using qanaat::SimTime;

/// One benchmark workload: a deployment, a traffic mix, an offered rate
/// and (optionally) a fault. The table in scenario.cc says why each one
/// exists.
struct Workload {
  const char* name;
  int enterprises;
  int shards;
  qanaat::FailureModel failure_model;
  qanaat::ProtocolFamily family;
  bool firewall;
  qanaat::CrossKind cross_kind;
  double cross_fraction;
  double rate_tps;
  /// Latency limit on p99 that a knee-ladder step must meet.
  double slo_ms;
  /// At `crash_at_us` one backup ordering node, one execution node and
  /// one bottom-row filter of every cluster crash; they recover at
  /// `recover_at_us` and catch up by state transfer (0 = no fault).
  /// Knee-ladder steps never inject it.
  SimTime crash_at_us;
  SimTime recover_at_us;
};

const std::vector<Workload>& Workloads();
/// nullptr when `name` names no workload.
const Workload* FindWorkload(const std::string& name);

/// Simulated phases of one rep: clients issue during warm-up and window,
/// latency and throughput are counted in the window, and the drain lets
/// retransmissions settle what is still in flight.
struct Timeline {
  SimTime warmup_us;
  SimTime window_us;
  SimTime drain_us;
  SimTime total_us() const { return warmup_us + window_us + drain_us; }
};

/// The measured reps; the knee ladder uses a shorter timeline.
constexpr Timeline kRepTimeline{500'000, 2'000'000, 500'000};
constexpr Timeline kLadderTimeline{300'000, 1'000'000, 300'000};

struct RepOptions {
  double rate_tps = 0;
  Timeline timeline = kRepTimeline;
  bool inject_fault = true;
  /// Advance in 1 ms slices (the default) or in one Run() per phase; the
  /// selftest proves both give the same simulation.
  bool sliced = true;
  /// Run SafetyAuditor + VerifyAllLedgers after the drain (untimed).
  bool audit = false;
  /// Record delivered links for the auditor's firewall-containment check.
  /// The recording costs host time inside Run, so only rep 1 pays it; a
  /// traced rep replays rep 1 exactly, so its links are rep 1's.
  bool record_links = false;
  /// Record setup/warmup/window/slice/drain/audit spans here.
  SpanRecorder* trace = nullptr;
};

/// Everything one rep measures. Simulated fields are a pure function of
/// (workload, seed, options); host fields are wall-clock.
struct RepResult {
  // ---- simulated
  uint64_t trace_hash = 0;
  uint64_t events = 0;
  uint64_t issued = 0;
  uint64_t settled = 0;  // client settles over the whole rep
  std::vector<int64_t> latencies_us;  // settles inside the window, sorted
  uint64_t issued_in_window = 0;
  uint64_t backlog_at_close = 0;  // issued - settled as the window closes
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t queue_peak = 0;  // max Simulator::pending() over the slices
  /// Longest stretch of the window, sampled at 1 ms, between successive
  /// increases of one cluster's commit count (max committed_txs() over
  /// its ordering nodes), open-ended at the window's close.
  SimTime max_commit_gap_us = 0;
  uint64_t committed_blocks = 0;  // summed over every ordering node
  uint64_t aborted_blocks = 0;
  double txs_per_block = 0;
  double settles_per_cert = 0;
  std::map<std::string, uint64_t> counters;  // Env::metrics at the end
  double window_s = 0;
  double sim_s = 0;

  // ---- correctness
  qanaat::Status audit = qanaat::Status::Ok();
  /// The latencies observed from outside reproduce every client's own
  /// histogram (sample count and exact sum).
  bool latency_cross_check = true;

  // ---- host
  double setup_s = 0;  // topology + clients + simulated warm-up
  double run_s = 0;    // wall time spent inside Simulator::Run

  uint64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  uint64_t failed() const { return issued - settled; }
  double SimSpeed() const { return sim_s / run_s; }
  double CommitTps() const { return latencies_us.size() / window_s; }
  double IssueTps() const { return issued_in_window / window_s; }
  /// Linear interpolation between the closest ranks (q in [0, 1]).
  double PercentileUs(double q) const;
  double MeanUs() const;
};

RepResult RunRep(const Workload& w, uint64_t seed, const RepOptions& opts);

/// Empty when two reps of one (workload, seed) produced the same
/// simulated outputs bit for bit; otherwise names the first difference.
std::string CompareSimulated(const RepResult& a, const RepResult& b);

}  // namespace qbench

#endif  // QANAAT_BENCHMARK_SCENARIO_H_
