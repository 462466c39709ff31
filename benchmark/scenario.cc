#include "scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "harness/chaos.h"
#include "qanaat/system.h"

namespace qbench {

using namespace qanaat;

namespace {

constexpr int kClientMachines = 16;
/// Real clients retransmit; with it, `failed` counts only transactions
/// that never settle rather than ones a lost message merely delayed.
constexpr SimTime kRetransmitUs = 250 * kMillisecond;
constexpr SimTime kSliceUs = kMillisecond;
constexpr SimTime kTraceSliceUs = 10 * kMillisecond;

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A ClientMachine whose requests and replies the benchmark watches from
/// outside, to time every settled request exactly: the client's own
/// Histogram quantises to 12.5% buckets. Issue times are recorded when an
/// issue timer fires (timestamps are sequential from 1); settles are
/// found by replaying the client's acceptance rule on each reply before
/// the client consumes it. The client's accepted() count checks that
/// replay after every message.
class ObservedClient : public ClientMachine {
 public:
  ObservedClient(Env* env, const Directory* dir,
                 std::unique_ptr<SmallBankWorkload> workload, double rate_tps,
                 uint64_t seed, SimTime window_from, SimTime window_to,
                 std::vector<int64_t>* window_latencies)
      : ClientMachine(env, dir, std::move(workload), rate_tps, seed),
        needed_(dir->params.failure_model == FailureModel::kByzantine &&
                        !dir->params.use_firewall
                    ? static_cast<size_t>(dir->params.f) + 1
                    : 1),
        window_from_(window_from),
        window_to_(window_to),
        window_latencies_(window_latencies) {}

  void OnTimer(uint64_t tag, uint64_t payload) override {
    uint64_t before = issued();
    ClientMachine::OnTimer(tag, payload);
    if (issued() != before) {
      sent_at_.push_back(now());
      settled_.push_back(false);
    }
  }

  void OnMessage(NodeId from, const MessageRef& msg) override {
    uint64_t before = accepted();
    uint64_t replayed = 0;
    if (msg->type == MsgType::kReplyCert) {
      for (const auto& [client, ts] : msg->As<ReplyCertMsg>()->clients) {
        if (client == id()) replayed += SettleIfPending(ts);
      }
    } else if (msg->type == MsgType::kReply) {
      const ReplyMsg& m = *msg->As<ReplyMsg>();
      for (const auto& [client, ts] : m.clients) {
        if (client == id()) replayed += Vote(ts, m);
      }
    }
    ClientMachine::OnMessage(from, msg);
    if (accepted() - before != replayed) replay_mismatch_ = true;
  }

  bool replay_mismatch() const { return replay_mismatch_; }

 private:
  bool Pending(uint64_t ts) const {
    return ts >= 1 && ts <= settled_.size() && !settled_[ts - 1];
  }

  uint64_t SettleIfPending(uint64_t ts) {
    if (!Pending(ts)) return 0;
    settled_[ts - 1] = true;
    votes_.erase(ts);
    if (now() >= window_from_ && now() < window_to_) {
      window_latencies_->push_back(now() - sent_at_[ts - 1]);
    }
    return 1;
  }

  /// The f+1-matching-replies rule of a Byzantine cluster without the
  /// firewall (ClientMachine::HandleReply); one reply settles otherwise.
  uint64_t Vote(uint64_t ts, const ReplyMsg& m) {
    if (!Pending(ts)) return 0;
    if (needed_ == 1) return SettleIfPending(ts);
    uint64_t result = m.result_digest.Prefix64();
    auto& votes = votes_[ts];
    size_t matching = 1;
    for (const auto& [r, signer] : votes) {
      if (signer == m.sig.signer && r == result) return 0;
      if (r == result) ++matching;
    }
    votes.emplace_back(result, m.sig.signer);
    return matching >= needed_ ? SettleIfPending(ts) : 0;
  }

  const size_t needed_;
  const SimTime window_from_;
  const SimTime window_to_;
  std::vector<int64_t>* window_latencies_;
  std::vector<SimTime> sent_at_;  // index ts - 1
  std::vector<bool> settled_;
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, NodeId>>>
      votes_;
  bool replay_mismatch_ = false;
};

uint64_t ViewChanges(const Metrics& m) {
  return m.Get("pbft.view_installed") + m.Get("paxos.leader_takeover");
}

}  // namespace

// Why each workload exists (benchmark/README.md has the full table):
//  * pbft_intra  — the Fig 7a point: PBFT, batching and the event core do
//    the work; the cross-cluster layer is nearly idle.
//  * flat_xshard — Fig 9c: the flattened cross-cluster protocol dominates
//    (all-to-all accept/commit, ~450 messages per commit).
//  * paxos_scale — the largest topology with the cheapest messages (MACs,
//    no firewall): per-event sim-core and allocation cost dominates.
//  * fw_recovery — the only run through the privacy firewall, with
//    replicas that crash and catch up by state transfer. A primary crash
//    would also exercise view change, but every primary-crash variant
//    leaves transactions that never settle, and a workload must not fail
//    operations.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"pbft_intra", 4, 4, FailureModel::kByzantine,
       ProtocolFamily::kCoordinator, false,
       CrossKind::kIntraShardCrossEnterprise, 0.1, 30000, 50, 0, 0},
      {"flat_xshard", 4, 4, FailureModel::kByzantine,
       ProtocolFamily::kFlattened, false,
       CrossKind::kCrossShardCrossEnterprise, 0.9, 2000, 400, 0, 0},
      {"paxos_scale", 8, 4, FailureModel::kCrash, ProtocolFamily::kFlattened,
       false, CrossKind::kCrossShardIntraEnterprise, 0.1, 60000, 50, 0, 0},
      {"fw_recovery", 4, 4, FailureModel::kByzantine,
       ProtocolFamily::kCoordinator, true,
       CrossKind::kIntraShardCrossEnterprise, 0.1, 30000, 50,
       1500 * kMillisecond, 2000 * kMillisecond},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double RepResult::PercentileUs(double q) const {
  if (latencies_us.empty()) return 0;
  double pos = q * static_cast<double>(latencies_us.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, latencies_us.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(latencies_us[lo]) * (1 - frac) +
         static_cast<double>(latencies_us[hi]) * frac;
}

double RepResult::MeanUs() const {
  if (latencies_us.empty()) return 0;
  double sum = 0;
  for (int64_t v : latencies_us) sum += static_cast<double>(v);
  return sum / static_cast<double>(latencies_us.size());
}

RepResult RunRep(const Workload& w, uint64_t seed, const RepOptions& opts) {
  const auto t_start = std::chrono::steady_clock::now();
  RepResult r;
  const Timeline& tl = opts.timeline;
  const SimTime window_from = tl.warmup_us;
  const SimTime window_to = tl.warmup_us + tl.window_us;
  SpanRecorder* trace = opts.trace;

  auto setup_span = std::make_unique<ScopedSpan>(trace, "setup");
  QanaatSystem::Options so;
  so.params.num_enterprises = w.enterprises;
  so.params.shards_per_enterprise = w.shards;
  so.params.failure_model = w.failure_model;
  so.params.family = w.family;
  so.params.use_firewall = w.firewall;
  so.seed = seed;
  QanaatSystem sys(std::move(so));
  Env& env = sys.env();
  sys.net().set_record_delivered_links(opts.record_links);

  // The benchmark's own clients (QanaatSystem::AddClient would pin every
  // client seed to a constant): all inputs derive from `seed`.
  WorkloadParams wl;
  wl.cross_kind = w.cross_kind;
  wl.cross_fraction = w.cross_fraction;
  std::vector<std::unique_ptr<ObservedClient>> clients;
  for (int i = 0; i < kClientMachines; ++i) {
    uint64_t base = Mix64(seed * 0x9e3779b97f4a7c15ULL + 2 * i + 1);
    auto workload = std::make_unique<SmallBankWorkload>(
        &sys.model(), &sys.directory(), wl, Rng(base));
    clients.push_back(std::make_unique<ObservedClient>(
        &env, &sys.directory(), std::move(workload),
        opts.rate_tps / kClientMachines, Mix64(base + 1), window_from,
        window_to, &r.latencies_us));
    clients.back()->SetRetransmitTimeout(kRetransmitUs);
    clients.back()->Start(0, window_to, window_from, window_to);
  }

  if (opts.inject_fault && w.crash_at_us > 0) {
    for (int c = 0; c < sys.cluster_count(); ++c) {
      const ClusterConfig& cc = sys.directory().Cluster(c);
      std::vector<Actor*> victims = {sys.ordering_node(
          c, static_cast<int>(cc.ordering.size()) - 1)};
      if (cc.SeparatedExecution()) {
        victims.push_back(sys.execution_node(
            c, static_cast<int>(cc.execution.size()) - 1));
      }
      if (cc.HasFirewall()) {
        victims.push_back(sys.filter_node(
            c, 0, static_cast<int>(cc.filter_rows[0].size()) - 1));
      }
      for (Actor* v : victims) {
        env.sim.ScheduleAt(w.crash_at_us, [v]() { v->Crash(); });
        env.sim.ScheduleAt(w.recover_at_us, [v]() { v->Recover(); });
      }
    }
  }
  setup_span.reset();

  auto totals = [&](uint64_t* issued, uint64_t* settled) {
    *issued = 0;
    *settled = 0;
    for (const auto& c : clients) {
      *issued += c->issued();
      *settled += c->accepted();
    }
  };
  const int clusters = sys.cluster_count();
  auto cluster_commits = [&](int c) {
    uint64_t best = 0;
    const size_t n = sys.directory().Cluster(c).ordering.size();
    for (size_t i = 0; i < n; ++i) {
      const OrderingNode* node = sys.ordering_node(c, static_cast<int>(i));
      best = std::max(best, node->committed_txs());
    }
    return best;
  };

  // Commit gaps: per cluster, the time since its count last rose.
  std::vector<uint64_t> last_count(clusters, 0);
  std::vector<SimTime> last_rise(clusters, window_from);
  auto watch_window = [&](SimTime t) {
    for (int c = 0; c < clusters; ++c) {
      uint64_t n = cluster_commits(c);
      if (n > last_count[c]) {
        r.max_commit_gap_us =
            std::max(r.max_commit_gap_us, t - last_rise[c]);
        last_rise[c] = t;
        last_count[c] = n;
      }
    }
  };

  auto run_until = [&](SimTime t) {
    auto t0 = std::chrono::steady_clock::now();
    env.sim.Run(t);
    r.run_s += Since(t0);
    r.queue_peak = std::max<uint64_t>(r.queue_peak, env.sim.pending());
  };

  // One phase: 1 ms slices (optionally grouped into traced 10 ms spans
  // carrying per-slice deltas), or a single Run() when unsliced.
  struct Snapshot {
    uint64_t events, messages, bytes, settled, retransmits, view_changes;
  };
  auto snapshot = [&]() {
    uint64_t issued, settled;
    totals(&issued, &settled);
    return Snapshot{env.sim.events_executed(), sys.net().messages_sent(),
                    sys.net().bytes_sent(),    settled,
                    env.metrics.Get("client.retransmit"),
                    ViewChanges(env.metrics)};
  };
  auto run_phase = [&](SimTime from, SimTime to, bool in_window) {
    if (!opts.sliced) {
      run_until(to);
      return;
    }
    const bool trace_slices = trace != nullptr && in_window;
    Snapshot before{};
    for (SimTime t = from + kSliceUs; t <= to; t += kSliceUs) {
      if (trace_slices && (t - from) % kTraceSliceUs == kSliceUs) {
        trace->Begin("slice");
        before = snapshot();
      }
      run_until(t);
      if (in_window) watch_window(t);
      if (trace_slices && ((t - from) % kTraceSliceUs == 0 || t == to)) {
        Snapshot after = snapshot();
        char args[256];
        std::snprintf(
            args, sizeof(args),
            "\"sim_ms\":%lld,\"events\":%llu,\"messages\":%llu,"
            "\"bytes\":%llu,\"commits\":%llu,\"retransmits\":%llu,"
            "\"view_changes\":%llu",
            static_cast<long long>(t / kMillisecond),
            static_cast<unsigned long long>(after.events - before.events),
            static_cast<unsigned long long>(after.messages - before.messages),
            static_cast<unsigned long long>(after.bytes - before.bytes),
            static_cast<unsigned long long>(after.settled - before.settled),
            static_cast<unsigned long long>(after.retransmits -
                                            before.retransmits),
            static_cast<unsigned long long>(after.view_changes -
                                            before.view_changes));
        trace->End(args);
      }
    }
  };

  {
    ScopedSpan span(trace, "warmup");
    run_phase(0, window_from, false);
  }
  r.setup_s = Since(t_start);

  uint64_t issued_at_open, settled_at_open;
  totals(&issued_at_open, &settled_at_open);
  for (int c = 0; c < clusters; ++c) last_count[c] = cluster_commits(c);
  {
    ScopedSpan span(trace, "window");
    run_phase(window_from, window_to, true);
  }
  for (int c = 0; c < clusters; ++c) {
    r.max_commit_gap_us =
        std::max(r.max_commit_gap_us, window_to - last_rise[c]);
  }
  uint64_t issued_at_close, settled_at_close;
  totals(&issued_at_close, &settled_at_close);
  r.issued_in_window = issued_at_close - issued_at_open;
  r.backlog_at_close = issued_at_close - settled_at_close;
  {
    ScopedSpan span(trace, "drain");
    run_phase(window_to, tl.total_us(), false);
  }

  // ---- collect (untimed)
  totals(&r.issued, &r.settled);
  r.trace_hash = sys.net().trace_hash();
  r.events = env.sim.events_executed();
  r.messages = sys.net().messages_sent();
  r.bytes = sys.net().bytes_sent();
  r.window_s = static_cast<double>(tl.window_us) / kSecond;
  r.sim_s = static_cast<double>(tl.total_us()) / kSecond;
  for (int c = 0; c < clusters; ++c) {
    const size_t n = sys.directory().Cluster(c).ordering.size();
    for (size_t i = 0; i < n; ++i) {
      const OrderingNode* node = sys.ordering_node(c, static_cast<int>(i));
      r.committed_blocks += node->committed_blocks();
      r.aborted_blocks += node->aborted_blocks();
    }
  }
  r.txs_per_block = env.metrics.Hist("batch.txs").Mean();
  r.settles_per_cert = env.metrics.Hist("client.settles_per_cert").Mean();
  r.counters = env.metrics.counters();
  std::sort(r.latencies_us.begin(), r.latencies_us.end());

  uint64_t hist_count = 0;
  double hist_sum = 0;
  for (const auto& c : clients) {
    if (c->replay_mismatch()) r.latency_cross_check = false;
    hist_count += c->latencies().count();
    hist_sum += c->latencies().Mean() * c->latencies().count();
  }
  double exact_sum = r.MeanUs() * r.latencies_us.size();
  if (hist_count != r.latencies_us.size() ||
      std::fabs(hist_sum - exact_sum) > 1e-9 * std::max(1.0, exact_sum)) {
    r.latency_cross_check = false;
  }

  if (opts.audit) {
    ScopedSpan span(trace, "audit");
    // Every replica is up again by the end, so all of them must converge.
    static const std::set<NodeId> kNoneExcluded;
    r.audit = SafetyAuditor::AuditQanaat(sys, /*full=*/true, &kNoneExcluded);
    if (r.audit.ok()) r.audit = sys.VerifyAllLedgers();
  }
  return r;
}

std::string CompareSimulated(const RepResult& a, const RepResult& b) {
  if (a.trace_hash != b.trace_hash) return "trace_hash";
  if (a.events != b.events) return "event count";
  if (a.settled != b.settled) return "commit count";
  if (a.latencies_us != b.latencies_us) return "latency histogram";
  if (a.issued != b.issued || a.backlog_at_close != b.backlog_at_close) {
    return "client counts";
  }
  if (a.messages != b.messages || a.bytes != b.bytes) return "traffic";
  if (a.max_commit_gap_us != b.max_commit_gap_us ||
      a.queue_peak != b.queue_peak) {
    return "sampled commit gap/queue";
  }
  if (a.counters != b.counters) return "metric counters";
  return "";
}

}  // namespace qbench
