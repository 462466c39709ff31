// Host-speed baseline: how fast the event core and the protocol hot
// paths run, one isolated lever at a time, composed in a Figure-7-style
// end-to-end run at three cluster scales.
//
//  * raw_message_events — a message ring through Network/Actor with no
//    protocol logic: scheduling + delivery + CPU-model overhead per
//    event.
//  * raw_timer_events — a self-rearming 1-7 us timer storm: the event
//    core's timer path, with every timer in wheel level 0.
//  * paxos_slot_churn — a 3-node Multi-Paxos cluster wired with
//    zero-latency loopback delivery, driven through N slots: measures
//    the flat slot map, vote-set and delivery bookkeeping per decided
//    slot with no transport or CPU model in the way.
//  * signable_fresh / signable_memoized — ConsensusSignable derivations
//    with and without the per-slot SignableCache, on a protocol-shaped
//    access pattern (one miss, then hits for the same (view, slot,
//    digest) as votes arrive).
//  * wheel_storm — self-rearming timers over protocol-shaped delays
//    (sub-slot watchdogs to multi-second retries, with occasional ones
//    past the wheel's horizon): cascades through the wheel levels and
//    the overflow store.
//  * e2e — RunQanaatPoint on the Figure 7a configuration at 2x2, 4x4
//    and 8x4 enterprises x shards, with the offered load per cluster
//    held constant.
//
// The event-core levers report the simulator's own meter: events
// executed over wall time spent inside Run/RunAll. Each record prints as
// a bench JSON line when it completes, and the set is written to
// BENCH_protocol.json (override with a path argument). --quick runs one
// repetition with reduced counts for the CI bench-smoke job; committed
// baselines use the full default (best-of-3).

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "consensus/paxos.h"
#include "sim/network.h"

namespace qanaat {
namespace bench {
namespace {

/// printf into a string: every JSON field goes through here.
__attribute__((format(printf, 1, 2))) std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One timed run of a lever: `count` units of work in `wall_s` seconds.
/// `head` holds the record's JSON fields up to and including the count,
/// `tail` any fields after the rate.
struct Sample {
  uint64_t count = 0;
  double wall_s = 0;
  std::string head;
  std::string tail;
  /// RunSignable folds every derivation into the sample it returns, so
  /// the optimizer must keep each one.
  uint64_t check = 0;
};

Sample Counted(const char* key, uint64_t count, double wall_s) {
  Sample s;
  s.count = count;
  s.wall_s = wall_s;
  s.head = Fmt("\"%s\":%llu,", key, static_cast<unsigned long long>(count));
  return s;
}

// ------------------------------------------------------------ event core

/// Forwards a token to the next actor until the ring's hop budget of all
/// tokens is exhausted.
class RingActor : public Actor {
 public:
  RingActor(Env* env, int index, uint64_t* hops_left)
      : Actor(env, "ring/" + std::to_string(index)), hops_left_(hops_left) {}

  void set_next(NodeId next) { next_ = next; }

  void OnMessage(NodeId /*from*/, const MessageRef& msg) override {
    if (*hops_left_ == 0) return;
    --*hops_left_;
    Send(next_, msg);
  }

 private:
  NodeId next_ = kInvalidNode;
  uint64_t* hops_left_;
};

Sample RunMessageRing(uint64_t hops) {
  Env env(42);
  Network net(&env);
  env.costs.verify_sig_us = 0;
  constexpr int kActors = 16;
  constexpr int kTokens = 8;
  uint64_t hops_left = hops;
  std::vector<std::unique_ptr<RingActor>> ring;
  for (int i = 0; i < kActors; ++i) {
    ring.push_back(std::make_unique<RingActor>(&env, i, &hops_left));
  }
  for (int i = 0; i < kActors; ++i) {
    ring[i]->set_next(ring[(i + 1) % kActors]->id());
  }
  for (int t = 0; t < kTokens; ++t) {
    auto m = std::make_shared<Message>(MsgType::kRequest);
    m->sig_verify_ops = 0;
    net.Send(ring[t % kActors]->id(), ring[(t + 1) % kActors]->id(), m);
  }
  uint64_t events = env.sim.RunAll();
  return Counted("events", events, env.sim.wall_seconds_in_run());
}

/// Rearms its timer on every firing until the budget is exhausted.
class RearmActor : public Actor {
 public:
  using DelayFn = SimTime (*)(uint64_t payload);

  RearmActor(Env* env, uint64_t* left, DelayFn delay)
      : Actor(env, "rearm"), left_(left), delay_(delay) {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    if (*left_ == 0) return;
    --*left_;
    StartTimer(delay_(payload), tag, payload + 1);
  }
  void Kick(int streams) {
    for (int i = 0; i < streams; ++i) StartTimer(1 + i, 1, i);
  }

 private:
  uint64_t* left_;
  DelayFn delay_;
};

/// 1-7 us: every timer stays in wheel level 0.
SimTime ShortDelay(uint64_t payload) { return 1 + payload % 7; }

/// Protocol-shaped delays (batcher deadline, slot watchdog, cross retry,
/// checkpoint horizon) cascade through the wheel levels; every 97th is
/// 20 s, past the wheel's horizon, and waits in the overflow store.
SimTime ProtocolDelay(uint64_t payload) {
  static constexpr SimTime kDelays[] = {120, 2000, 65000, 400000};
  return payload % 97 == 0 ? 20 * kSecond : kDelays[payload % 4];
}

Sample RunTimerStorm(uint64_t seed, RearmActor::DelayFn delay, int streams,
                     uint64_t firings) {
  Env env(seed);
  Network net(&env);
  uint64_t left = firings;
  RearmActor actor(&env, &left, delay);
  actor.Kick(streams);
  uint64_t events = env.sim.RunAll();
  return Counted("events", events, env.sim.wall_seconds_in_run());
}

// ------------------------------------------------------ paxos slot churn

/// Drives a 3-node PaxosEngine cluster through `slots` decided slots with
/// synchronous loopback delivery: every broadcast/send invokes the peer
/// handler inline, so the measurement is pure engine bookkeeping.
Sample RunPaxosSlotChurn(uint64_t slots) {
  Env env(7);
  constexpr int kN = 3;
  std::vector<std::unique_ptr<PaxosEngine>> engines(kN);
  std::vector<NodeId> cluster = {0, 1, 2};
  uint64_t delivered = 0;
  uint64_t messages = 0;

  for (int i = 0; i < kN; ++i) {
    EngineContext ctx;
    ctx.env = &env;
    ctx.self = static_cast<NodeId>(i);
    ctx.cluster = cluster;
    ctx.self_index = i;
    ctx.send = [&, i](NodeId to, MessageRef m) {
      ++messages;
      engines[to]->OnMessage(static_cast<NodeId>(i), m);
    };
    ctx.broadcast = [&, i](MessageRef m) {
      for (int p = 0; p < kN; ++p) {
        if (p == i) continue;
        ++messages;
        engines[p]->OnMessage(static_cast<NodeId>(i), m);
      }
    };
    ctx.start_timer = [](SimTime, uint64_t, uint64_t) {};  // never fires
    ctx.deliver = [&](uint64_t, const ConsensusValue&) { ++delivered; };
    engines[i] = std::make_unique<PaxosEngine>(std::move(ctx), /*f=*/1,
                                               /*base_timeout_us=*/100000);
  }

  auto t0 = std::chrono::steady_clock::now();
  ConsensusValue v;  // noop values: churn measures slot state, not blocks
  for (uint64_t s = 0; s < slots; ++s) engines[0]->Propose(v);
  Sample r = Counted("slots", delivered / kN, WallSince(t0));
  r.head +=
      Fmt("\"messages\":%llu,", static_cast<unsigned long long>(messages));
  return r;
}

// --------------------------------------------------- signable throughput

/// Protocol-shaped access pattern: per slot, one derivation then
/// `kHitsPerSlot` re-uses (self-sign, vote verifies, commit sign).
Sample RunSignable(uint64_t slot_count, bool memoized) {
  constexpr int kHitsPerSlot = 6;
  Sample r = Counted("ops", slot_count * kHitsPerSlot, 0);
  Sha256Digest d;
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t s = 1; s <= slot_count; ++s) {
    d.bytes[0] = static_cast<uint8_t>(s);
    d.bytes[8] = static_cast<uint8_t>(s >> 8);
    if (memoized) {
      SignableCache cache;
      for (int k = 0; k < kHitsPerSlot; ++k) {
        r.check ^= cache.Get(3, s, d).Prefix64();
      }
    } else {
      for (int k = 0; k < kHitsPerSlot; ++k) {
        r.check ^= ConsensusSignable(3, s, d).Prefix64();
      }
    }
  }
  r.wall_s = WallSince(t0);
  return r;
}

// --------------------------------------------------------------- e2e

/// The Figure 7a point (Byzantine, coordinator family, 10% intra-shard
/// cross-enterprise) at a given scale, with one client machine and
/// 30k/16 = 1875 offered tx/s per cluster; at 4x4 it is the benchmark's
/// pbft_intra configuration. The run length is fixed rather than taken
/// from QANAAT_BENCH_FAST, so every record does the same work in every
/// environment.
Sample E2ePoint(int enterprises, int shards) {
  const QanaatSeries& crd_b = AllQanaatSeries()[0];
  QanaatRunConfig cfg = MakeQanaatConfig(
      crd_b, CrossKind::kIntraShardCrossEnterprise, 0.1, enterprises, shards);
  cfg.client_machines = enterprises * shards;
  cfg.duration = 900 * kMillisecond;
  cfg.warmup = 200 * kMillisecond;
  LoadPoint p = RunQanaatPoint(cfg, 1875.0 * cfg.client_machines);
  Sample r;
  r.count = p.events;
  r.wall_s = p.run_wall_s;
  r.head = Fmt(
      "\"enterprises\":%d,\"shards\":%d,\"offered_tps\":%.0f,"
      "\"tput_tps\":%.0f,\"avg_lat_ms\":%.2f,\"events\":%llu,",
      enterprises, shards, p.offered_tps, p.measured_tps, p.avg_latency_ms,
      static_cast<unsigned long long>(p.events));
  double sim_s = static_cast<double>(cfg.duration + kPointDrain) / kSecond;
  r.tail = Fmt(",\"sim_time_ratio\":%.3f", sim_s / p.run_wall_s);
  return r;
}

// ----------------------------------------------------------- the table

struct Lever {
  const char* metric;
  const char* rate_key;
  int reps;  // in full mode; --quick runs every lever once
  std::function<Sample()> run;
  /// In quick mode, one untimed run first (see the churn lever).
  bool warm_up = false;
};

/// The simulated work is identical per repetition, so the minimum wall
/// clock is the least-noisy estimate on a shared machine.
Sample BestOf(int reps, const std::function<Sample()>& run) {
  Sample best = run();
  for (int i = 1; i < reps; ++i) {
    Sample s = run();
    if (s.wall_s < best.wall_s) best = std::move(s);
  }
  return best;
}

}  // namespace
}  // namespace bench
}  // namespace qanaat

int main(int argc, char** argv) {
  using namespace qanaat;
  using namespace qanaat::bench;

  bool quick = false;
  const char* path = "BENCH_protocol.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      path = argv[i];
    }
  }
  const char* mode = quick ? "quick" : "full";
  const uint64_t core_events = quick ? 500000 : 2000000;  // hops, firings
  const uint64_t signable_slots = quick ? 300000 : 1000000;
  // Churn keeps its full slot count even in quick mode: the run is
  // cheap, and a shorter one is dominated by allocator/map warm-up,
  // which would read as a spurious regression against the full-mode
  // baseline. For the same reason quick mode warms it up once untimed:
  // the first churn run is dominated by page faults growing the
  // allocator arena for the ~200k-slot maps, which best-of-3 hides in
  // full mode.
  const uint64_t churn_slots = 200000;

  // The event-core levers run first, so they see a fresh process. The
  // 4x4 e2e point is the Figure 7a configuration (best-of-3); the outer
  // scales bound how the protocol layer behaves as the cluster count
  // shrinks and grows, one repetition each.
  const Lever levers[] = {
      {"raw_message_events", "events_per_sec", 3,
       [&] { return RunMessageRing(core_events); }},
      {"raw_timer_events", "events_per_sec", 3,
       [&] { return RunTimerStorm(43, ShortDelay, 8, core_events); }},
      {"paxos_slot_churn", "slots_per_sec", 3,
       [&] { return RunPaxosSlotChurn(churn_slots); }, /*warm_up=*/true},
      {"signable_fresh", "events_per_sec", 3,
       [&] { return RunSignable(signable_slots, false); }},
      {"signable_memoized", "events_per_sec", 3,
       [&] { return RunSignable(signable_slots, true); }},
      {"wheel_storm", "events_per_sec", 3,
       [&] { return RunTimerStorm(11, ProtocolDelay, 64, core_events); }},
      {"e2e", "events_per_sec", 1, [] { return E2ePoint(2, 2); }},
      {"e2e", "events_per_sec", 3, [] { return E2ePoint(4, 4); }},
      {"e2e", "events_per_sec", 1, [] { return E2ePoint(8, 4); }},
  };

  std::printf("bench_protocol — event core, protocol hot-path levers and "
              "e2e scales (%s mode)\n\n", mode);
  std::string json =
      Fmt("{\"bench\":\"protocol\",\"mode\":\"%s\",\"series\":[", mode);
  const char* sep = "\n";
  for (const Lever& lever : levers) {
    if (quick && lever.warm_up) lever.run();
    Sample s = BestOf(quick ? 1 : lever.reps, lever.run);
    std::string row =
        Fmt("  {\"metric\":\"%s\",", lever.metric) + s.head +
        Fmt("\"wall_s\":%.4f,\"%s\":%.0f", s.wall_s, lever.rate_key,
            static_cast<double>(s.count) / s.wall_s) +
        s.tail + "}";
    std::printf("%s\n", row.c_str());
    std::fflush(stdout);
    json += sep + row;
    sep = ",\n";
  }
  json += "\n]}\n";

  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "could not write %s\n", path);
    return 1;
  }
  return 0;
}
