#include <gtest/gtest.h>

#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"

namespace qanaat {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, TieBreaksByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, RunStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { fired++; });
  sim.Schedule(100, [&] { fired++; });
  sim.Run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.Run(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.Schedule(10, recurse);
  };
  sim.Schedule(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(SimulatorTest, PooledEventsPreserveOrderAcrossPoolReuse) {
  // The simulator recycles closure-pool slots after each executed
  // closure. (time, insertion-seq) ordering must survive reuse: a second
  // wave of same-time closures, landing in slots freed by the first wave,
  // still executes in exact insertion order.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  // Second wave, alternating between two times: ties break by insertion
  // order, and every time-7 event runs before every time-8 event even
  // though their closure-pool slots interleave.
  for (int i = 16; i < 32; ++i) {
    sim.Schedule(i % 2 == 0 ? 7 : 8, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  ASSERT_EQ(order.size(), 32u);
  std::vector<int> expect;
  for (int i = 0; i < 16; ++i) expect.push_back(i);
  for (int i = 16; i < 32; i += 2) expect.push_back(i);      // time 7
  for (int i = 17; i < 32; i += 2) expect.push_back(i);      // time 8
  EXPECT_EQ(order, expect);
  EXPECT_EQ(sim.events_executed(), 32u);
}

TEST(SimulatorTest, EventsExecutedCounterAccumulates) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] { fired++; });
  sim.Schedule(2, [&] { fired++; });
  sim.Run(1);
  EXPECT_EQ(sim.events_executed(), 1u);
  sim.RunAll();
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PastScheduleClampedToNow) {
  Simulator sim;
  SimTime observed = -1;
  sim.Schedule(100, [&] {
    sim.ScheduleAt(5, [&] { observed = sim.now(); });
  });
  sim.RunAll();
  EXPECT_EQ(observed, 100);
}

// ------------------------------------------------------------- Network

class EchoActor : public Actor {
 public:
  EchoActor(Env* env, int region) : Actor(env, "echo", region) {}
  void OnMessage(NodeId from, const MessageRef& msg) override {
    received++;
    last_from = from;
    last_time = now();
    (void)msg;
  }
  int received = 0;
  NodeId last_from = kInvalidNode;
  SimTime last_time = 0;
};

struct NetFixture {
  NetFixture() : env(1), net(&env) {}
  Env env;
  Network net;
};

MessageRef MakeMsg() {
  auto m = std::make_shared<Message>(MsgType::kRequest);
  m->sig_verify_ops = 0;
  return m;
}

/// A wire type that carries `n` opaque bytes: charged its envelope, the
/// u32 count and the bytes, like any message with a field list.
struct PayloadMsg : WireMessage<PayloadMsg> {
  explicit PayloadMsg(size_t n) : WireMessage(MsgType::kRequest), payload(n) {
    sig_verify_ops = 0;
  }
  std::vector<uint8_t> payload;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) { return io.List32(m.payload); }
};

TEST(NetworkTest, DeliversWithLanLatency) {
  NetFixture f;
  f.env.costs.jitter_us = 0;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
  // latency + processing cost
  EXPECT_GE(b.last_time, f.env.costs.lan_latency_us);
}

TEST(NetworkTest, WanLatencyFromRttMatrix) {
  NetFixture f;
  f.env.costs.jitter_us = 0;
  int r1 = f.net.AddRegion();
  EchoActor a(&f.env, 0), b(&f.env, r1);
  f.net.SetRtt(0, r1, 100000);  // 100 ms RTT -> 50 ms one-way
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
  EXPECT_GE(b.last_time, 50000);
  EXPECT_LT(b.last_time, 52000);
}

TEST(NetworkTest, CrashedNodesDropTraffic) {
  NetFixture f;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  b.Crash();
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 0);
  b.Recover();
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
}

TEST(NetworkTest, PartitionBlocksBothDirectionsUntilHealed) {
  NetFixture f;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Partition(a.id(), b.id());
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.net.Send(b.id(), a.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(a.received + b.received, 0);
  f.net.HealPartition(a.id(), b.id());
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
}

TEST(NetworkTest, LinkRestrictionEnforcedBothWays) {
  // The privacy firewall's physical wiring: a restricted node can only
  // talk to its allow-list, and others cannot reach it either.
  NetFixture f;
  EchoActor exec(&f.env, 0), filter(&f.env, 0), client(&f.env, 0);
  f.net.RestrictLinks(exec.id(), {filter.id()});
  f.net.Send(exec.id(), client.id(), MakeMsg());  // leak attempt
  f.env.sim.RunAll();
  EXPECT_EQ(client.received, 0);
  EXPECT_EQ(f.net.blocked_sends(), 1u);
  f.net.Send(exec.id(), filter.id(), MakeMsg());  // allowed path
  f.env.sim.RunAll();
  EXPECT_EQ(filter.received, 1);
  f.net.Send(client.id(), exec.id(), MakeMsg());  // reverse also blocked
  f.env.sim.RunAll();
  EXPECT_EQ(exec.received, 0);
}

TEST(NetworkTest, DropRateLosesSomeMessages) {
  NetFixture f;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.SetDropRate(0.5);
  for (int i = 0; i < 200; ++i) f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_GT(b.received, 50);
  EXPECT_LT(b.received, 150);
}

TEST(NetworkTest, SerialCpuQueueDelaysBursts) {
  // Two messages arriving together: the second handler runs after the
  // first's processing completes (M/G/1 behaviour).
  NetFixture f;
  f.env.costs.jitter_us = 0;
  f.env.costs.base_proc_us = 100;
  f.env.costs.verify_sig_us = 0;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 2);
  // Arrival ~250, first done ~350, second done ~450.
  EXPECT_GE(b.last_time, 450);
}

TEST(NetworkTest, BandwidthAddsTransmissionDelay) {
  NetFixture f;
  f.env.costs.jitter_us = 0;
  f.env.costs.bandwidth_bytes_per_us = 1.0;  // 1 byte/us
  EchoActor a(&f.env, 0), b(&f.env, 0);
  auto m = std::make_shared<PayloadMsg>(10000 - kEnvelopeBytes - 4);
  ASSERT_EQ(m->WireBytes(), 10000u);
  f.net.Send(a.id(), b.id(), m);
  f.env.sim.RunAll();
  EXPECT_GE(b.last_time, 10000 + f.env.costs.lan_latency_us);
}

TEST(NetworkTest, MulticastReachesAll) {
  NetFixture f;
  EchoActor a(&f.env, 0), b(&f.env, 0), c(&f.env, 0), d(&f.env, 0);
  f.net.Multicast(a.id(), {b.id(), c.id(), d.id()}, MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received + c.received + d.received, 3);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Env env(seed);
    Network net(&env);
    EchoActor a(&env, 0), b(&env, 0);
    std::vector<SimTime> times;
    for (int i = 0; i < 20; ++i) net.Send(a.id(), b.id(), MakeMsg());
    env.sim.RunAll();
    return b.last_time;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // jitter differs with seed
}

// ----------------------------------------------------------- timers

class TimerActor : public Actor {
 public:
  /// Tags under which a message delivery and a LogClosure() closure are
  /// logged in `fired` (timers log their own tag).
  static constexpr uint64_t kDelivered = 0;
  static constexpr uint64_t kClosureRan = 2;

  explicit TimerActor(Env* env) : Actor(env, "timer") {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    fired.emplace_back(tag, payload);
  }
  /// Runs as a delivery reaches the actor, before CPU queueing: logs the
  /// delivery event itself among the timers.
  SimTime CostOf(const Message& msg) const override {
    fired.emplace_back(kDelivered, 0);
    return Actor::CostOf(msg);
  }
  void Arm(SimTime d, uint64_t tag, uint64_t payload) {
    StartTimer(d, tag, payload);
  }
  /// A closure that logs `id` in `fired` when it runs.
  Simulator::Callback LogClosure(uint64_t id) {
    return [this, id] { fired.emplace_back(kClosureRan, id); };
  }
  mutable std::vector<std::pair<uint64_t, uint64_t>> fired;
};

TEST(ActorTimerTest, TaggedTimersPreserveArmingOrderAcrossPoolReuse) {
  // Actor timers ride the timer wheel; ties on the same firing time must
  // keep arming order, including for timers armed after earlier ones
  // drained their wheel slot.
  NetFixture f;
  TimerActor t(&f.env);
  for (uint64_t i = 0; i < 8; ++i) t.Arm(50, 1, i);
  f.env.sim.RunAll();
  for (uint64_t i = 8; i < 16; ++i) t.Arm(50, 1, i);
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 16u);
  for (uint64_t i = 0; i < 16; ++i) EXPECT_EQ(t.fired[i].second, i);
}

// ------------------------------------------------------- CPU charging

class ChargingActor : public Actor {
 public:
  explicit ChargingActor(Env* env) : Actor(env, "charge") {}
  void OnMessage(NodeId, const MessageRef&) override { handled_at = now(); }
  void OnTimer(uint64_t, uint64_t payload) override {
    ChargeCpu(static_cast<SimTime>(payload));
  }
  void Arm(SimTime d, SimTime charge) {
    StartTimer(d, 1, static_cast<uint64_t>(charge));
  }
  SimTime handled_at = -1;
};

TEST(ActorCpuTest, ChargeCpuAfterIdleStartsFromNow) {
  // Regression: ChargeCpu used to extend a stale busy_until_ that lay in
  // the past, so a node idle since t=0 charging 500us at t=1000 appeared
  // busy only until t=500 — i.e. not at all. The charge must occupy
  // [now, now + d].
  NetFixture f;
  f.env.costs.jitter_us = 0;
  f.env.costs.base_proc_us = 8;
  EchoActor sender(&f.env, 0);
  ChargingActor c(&f.env);
  c.Arm(1000, 500);  // at t=1000, occupy the CPU until t=1500
  f.env.sim.Schedule(1000, [&] {
    auto m = std::make_shared<Message>(MsgType::kRequest);
    m->sig_verify_ops = 0;
    f.net.Send(sender.id(), c.id(), m);  // arrives ~1250, mid-charge
  });
  f.env.sim.RunAll();
  // Processing starts when the charged work completes, not at arrival.
  EXPECT_GE(c.handled_at, 1500 + f.env.costs.base_proc_us);
}

TEST(ActorTimerTest, FiresWithTagAndPayload) {
  NetFixture f;
  TimerActor t(&f.env);
  t.Arm(100, 7, 42);
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 1u);
  EXPECT_EQ(t.fired[0], std::make_pair(uint64_t{7}, uint64_t{42}));
}

TEST(ActorTimerTest, CrashedActorTimersDontFire) {
  NetFixture f;
  TimerActor t(&f.env);
  t.Arm(100, 1, 0);
  t.Crash();
  f.env.sim.RunAll();
  EXPECT_TRUE(t.fired.empty());
}

// ------------------------------------------------ crash epochs (recovery)

TEST(ActorEpochTest, PreCrashTimerDoesNotFireAfterRecovery) {
  // Regression: a timer armed before Crash() must not fire in the
  // recovered life, even though the node is up again when it expires.
  NetFixture f;
  TimerActor t(&f.env);
  t.Arm(100, 7, 1);
  f.env.sim.Schedule(10, [&] { t.Crash(); });
  f.env.sim.Schedule(20, [&] { t.Recover(); });
  f.env.sim.RunAll();
  EXPECT_TRUE(t.fired.empty());
  // A timer armed in the new life fires normally.
  t.Arm(50, 8, 2);
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 1u);
  EXPECT_EQ(t.fired[0].first, 8u);
}

TEST(ActorEpochTest, InFlightDeliveryFromPreviousLifeDiscarded) {
  // A message in flight while the destination crashes is lost with that
  // life, even when it would arrive after recovery.
  NetFixture f;
  f.env.costs.jitter_us = 0;  // arrival exactly at lan latency (250us)
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.Schedule(100, [&] { b.Crash(); });
  f.env.sim.Schedule(150, [&] { b.Recover(); });
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 0);
  // Messages sent to the recovered life are delivered.
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 1);
}

TEST(ActorEpochTest, ProcessingInterruptedByCrashNeverCompletes) {
  // A message whose CPU processing spans a crash must not invoke the
  // handler after recovery (the process that was computing it is gone).
  NetFixture f;
  f.env.costs.jitter_us = 0;
  f.env.costs.base_proc_us = 200;  // arrival 250, handler would run at 450
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.Schedule(300, [&] { b.Crash(); });
  f.env.sim.Schedule(350, [&] { b.Recover(); });
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 0);
}

// -------------------------------------- fault randomness determinism

TEST(NetworkTest, BlockedSendsDoNotConsumeFaultRandomness) {
  // Regression: sends blocked by a crashed endpoint must not draw the
  // drop coin, or replays would diverge based on how many sends were
  // blocked. Two runs differing only in extra sends to a crashed node
  // must deliver the same messages at the same times.
  auto run = [](bool with_blocked_sends) {
    Env env(123);
    Network net(&env);
    EchoActor a(&env, 0), b(&env, 0), dead(&env, 0);
    dead.Crash();
    net.SetDropRate(0.3);
    for (int i = 0; i < 50; ++i) {
      if (with_blocked_sends) {
        net.Send(a.id(), dead.id(), MakeMsg());  // must be side-effect free
      }
      net.Send(a.id(), b.id(), MakeMsg());
    }
    env.sim.RunAll();
    return std::make_pair(b.received, b.last_time);
  };
  EXPECT_EQ(run(false), run(true));
}

// ------------------------------------------- per-link fault injection

TEST(NetworkTest, LinkFaultDuplicatesMessages) {
  NetFixture f;
  Network::LinkFault lf;
  lf.duplicate = 1.0;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.SetLinkFault(a.id(), b.id(), lf);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 2);
  EXPECT_EQ(f.net.duplicated(), 1u);
  EXPECT_EQ(f.env.metrics.Get("net.duplicated"), 1u);
}

TEST(NetworkTest, LinkFaultReordersMessages) {
  // With an aggressive reorder rule, some later-sent messages overtake
  // earlier ones; the metric counts the overtakes.
  NetFixture f;
  f.env.costs.jitter_us = 0;
  Network::LinkFault lf;
  lf.reorder = 1.0;
  lf.reorder_delay_us = 5000;
  EchoActor a(&f.env, 0), b(&f.env, 0);
  f.net.SetDefaultLinkFault(lf);
  for (int i = 0; i < 30; ++i) f.net.Send(a.id(), b.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 30);  // reordering delays, never loses
  EXPECT_GT(f.net.reordered(), 0u);
}

TEST(NetworkTest, LinkFaultDropIsPerLink) {
  NetFixture f;
  Network::LinkFault lf;
  lf.drop = 1.0;
  EchoActor a(&f.env, 0), b(&f.env, 0), c(&f.env, 0);
  f.net.SetLinkFault(a.id(), b.id(), lf);
  f.net.Send(a.id(), b.id(), MakeMsg());
  f.net.Send(a.id(), c.id(), MakeMsg());
  f.env.sim.RunAll();
  EXPECT_EQ(b.received, 0);  // faulted link loses everything
  EXPECT_EQ(c.received, 1);  // other links unaffected
}

// ------------------------------------------- hierarchical timer wheel

TEST(TimerWheelTest, SameTickOrderAcrossWheelOverflowSpillBoundary) {
  // A timer, a closure and a message delivery beyond the wheel horizon
  // wait in the overflow store; a timer and a closure scheduled later for
  // the SAME tick land in the wheel. The run loop must fire all of them
  // in global scheduling (seq) order.
  NetFixture f;
  f.env.costs.jitter_us = 0;
  TimerActor t(&f.env);
  EchoActor sender(&f.env, 0);
  const SimTime kTick = TimerWheel::kHorizon + 1000;
  // Beyond the horizon: these three wait in the overflow store.
  t.Arm(kTick, 1, 100);
  f.env.sim.ScheduleAt(kTick, t.LogClosure(150));
  Network::LinkFault lf;
  lf.extra_delay_us = kTick - f.env.costs.lan_latency_us;
  ASSERT_GE(lf.extra_delay_us, TimerWheel::kHorizon);
  f.net.SetLinkFault(sender.id(), t.id(), lf);
  // No transmission delay: an empty payload is under a microsecond on the
  // wire, so the message arrives at kTick.
  auto msg = std::make_shared<PayloadMsg>(0);
  ASSERT_LT(static_cast<double>(msg->WireBytes()),
            f.env.costs.bandwidth_bytes_per_us);
  f.net.Send(sender.id(), t.id(), msg);
  f.env.sim.Schedule(kTick - 100, [] {});  // advance the clock
  f.env.sim.Run(kTick - 100);
  // The same tick, now within the wheel.
  t.Arm(100, 1, 200);
  f.env.sim.ScheduleAt(kTick, t.LogClosure(250));
  t.Arm(100, 1, 300);
  f.env.sim.RunAll();
  const std::vector<std::pair<uint64_t, uint64_t>> expect = {
      {1, 100}, {TimerActor::kClosureRan, 150}, {TimerActor::kDelivered, 0},
      {1, 200}, {TimerActor::kClosureRan, 250}, {1, 300}};
  EXPECT_EQ(t.fired, expect);
}

TEST(TimerWheelTest, SameTickMergesAcrossWheelLevels) {
  // Entries for one tick can sit at different wheel levels depending on
  // how far ahead they were scheduled (level 2 for a 70 ms delta, level 1
  // for 1 ms, level 0 for 100 us); closures cascade like timers. The
  // drain must merge them back into exact scheduling order.
  NetFixture f;
  TimerActor t(&f.env);
  const SimTime kTick = 70000;
  t.Arm(kTick, 1, 1);  // delta 70000 -> level 2
  f.env.sim.ScheduleAt(kTick, t.LogClosure(1));
  f.env.sim.Schedule(kTick - 1000, [] {});
  f.env.sim.Run(kTick - 1000);
  t.Arm(1000, 1, 2);  // same tick, delta 1000 -> level 1
  f.env.sim.ScheduleAt(kTick, t.LogClosure(2));
  f.env.sim.Schedule(900, [] {});
  f.env.sim.Run(kTick - 100);
  t.Arm(100, 1, 3);  // same tick, delta 100 -> level 0
  f.env.sim.RunAll();
  const std::vector<std::pair<uint64_t, uint64_t>> expect = {
      {1, 1}, {TimerActor::kClosureRan, 1}, {1, 2},
      {TimerActor::kClosureRan, 2}, {1, 3}};
  EXPECT_EQ(t.fired, expect);
}

TEST(TimerWheelTest, CancelledEpochTimersDieAndSlotsAreReusable) {
  // Crash-epoch "cancellation": timers armed before a crash must not
  // fire after recovery, and re-arming onto the same wheel tick (the
  // freed slot) must fire the new-life timers in their own arming order.
  NetFixture f;
  TimerActor t(&f.env);
  for (uint64_t i = 0; i < 4; ++i) t.Arm(500, 1, i);  // old life
  t.Crash();
  t.Recover();
  for (uint64_t i = 10; i < 14; ++i) t.Arm(500, 1, i);  // new life
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(t.fired[i].second, 10 + i);
  // The tick's wheel slot was fully consumed; a later tick mapping to
  // the same level-0 slot index (time + 256) is independent.
  t.Arm(256, 1, 99);
  f.env.sim.RunAll();
  ASSERT_EQ(t.fired.size(), 5u);
  EXPECT_EQ(t.fired[4].second, 99u);
}

TEST(TimerWheelTest, StormDrainsInOrderAndEmptiedSlotsKeepSmallBuffers) {
  // A storm parks far more than kKeptSlotEntries entries in each of 200
  // level-1 and 60 level-2 slots, several per tick. Draining it must
  // pop in global (time, seq) order, and the emptied slots may keep at
  // most kKeptSlotEntries entries of capacity each: cascades and drains
  // hand slots the scratch and bucket buffers, which must not carry a
  // burst's size into the rest of the run.
  TimerWheel wheel;
  uint64_t seq = 0;
  auto insert = [&](SimTime when) { wheel.Emplace(0, when, ++seq); };
  constexpr int kPerSlot = 200;  // > 3 x kKeptSlotEntries
  for (int i = 0; i < kPerSlot; ++i) {
    for (SimTime slot = 1; slot <= 200; ++slot) {
      insert(slot * 256 + (i * 7) % 97);  // level 1: delta < 65536
    }
    for (SimTime slot = 1; slot <= 60; ++slot) {
      insert(slot * 65536 + (i * 331) % 4099);  // level 2
    }
  }
  const size_t inserted = wheel.size();
  ASSERT_EQ(inserted, size_t{260} * kPerSlot);

  SimTime now = 0;
  SimTime last_when = 0;
  uint64_t last_seq = 0;
  size_t popped = 0;
  SimTime when;
  uint64_t s;
  while (wheel.Min(now, &when, &s)) {
    ASSERT_GE(when, now);
    now = when;
    TimerWheel::Entry e = wheel.Pop(now);
    ASSERT_EQ(e.when, when);
    ASSERT_EQ(e.seq, s);
    if (popped > 0) {
      ASSERT_TRUE(when > last_when || (when == last_when && s > last_seq))
          << "out of order at pop " << popped;
    }
    last_when = when;
    last_seq = s;
    ++popped;
  }
  EXPECT_EQ(popped, inserted);
  EXPECT_TRUE(wheel.empty());
  EXPECT_LE(wheel.slot_capacity(), size_t{TimerWheel::kLevels} *
                                       TimerWheel::kSlots *
                                       TimerWheel::kKeptSlotEntries);
}

TEST(TimerWheelTest, MessageDeliveriesRideTheWheelDeterministically) {
  // Deliveries and handler completions ride the wheel too; two runs of
  // the same seed must stay bit-identical (trace hash covers arrival
  // times and endpoints).
  auto run = [](uint64_t seed) {
    Env env(seed);
    Network net(&env);
    EchoActor a(&env, 0), b(&env, 0);
    for (int i = 0; i < 64; ++i) net.Send(a.id(), b.id(), MakeMsg());
    env.sim.RunAll();
    return net.trace_hash();
  };
  EXPECT_EQ(run(9), run(9));
}

TEST(NetworkTest, TraceHashIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    Env env(seed);
    Network net(&env);
    EchoActor a(&env, 0), b(&env, 0);
    Network::LinkFault lf;
    lf.duplicate = 0.2;
    lf.reorder = 0.3;
    net.SetDefaultLinkFault(lf);
    for (int i = 0; i < 40; ++i) net.Send(a.id(), b.id(), MakeMsg());
    env.sim.RunAll();
    return net.trace_hash();
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace qanaat
