#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>

#include "consensus/paxos.h"
#include "consensus/pbft.h"
#include "crypto/sha256.h"
#include "firewall/executor_core.h"
#include "qanaat/system.h"
#include "sim/network.h"
#include "workload/smallbank.h"

namespace qbench {

using namespace qanaat;

namespace {

/// Sink for folded bench outputs, so no timed loop can be optimised
/// away.
volatile uint64_t g_sink = 0;

struct Timed {
  uint64_t ops = 0;
  double wall_s = 0;
};

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------------------ sim

/// Forwards a token around a ring of actors until the shared hop budget
/// runs out: scheduling + delivery + CPU model, no protocol logic.
class RingActor : public Actor {
 public:
  RingActor(Env* env, uint64_t* hops_left)
      : Actor(env, "ring"), hops_left_(hops_left) {}
  void set_next(NodeId next) { next_ = next; }
  void OnMessage(NodeId /*from*/, const MessageRef& msg) override {
    if (*hops_left_ == 0) return;
    --*hops_left_;
    Send(next_, msg);
  }

 private:
  uint64_t* hops_left_;
  NodeId next_ = kInvalidNode;
};

Timed MessageRing() {
  Env env(42);
  Network net(&env);
  constexpr int kActors = 16;
  constexpr int kTokens = 8;
  uint64_t hops_left = 300000;
  std::vector<std::unique_ptr<RingActor>> ring;
  for (int i = 0; i < kActors; ++i) {
    ring.push_back(std::make_unique<RingActor>(&env, &hops_left));
  }
  for (int i = 0; i < kActors; ++i) {
    ring[i]->set_next(ring[(i + 1) % kActors]->id());
  }
  auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kTokens; ++t) {
    auto m = std::make_shared<Message>(MsgType::kRequest);
    m->sig_verify_ops = 0;
    net.Send(ring[t]->id(), ring[t + 1]->id(), m);
  }
  Timed r;
  r.ops = env.sim.RunAll();
  r.wall_s = Since(t0);
  return r;
}

/// Self-rearming timers over protocol-shaped delays: batcher deadline,
/// slot watchdog, cross retry, checkpoint horizon, and a rare far-future
/// timer that spills past the wheel into the heap.
class TimerActor : public Actor {
 public:
  TimerActor(Env* env, uint64_t* left) : Actor(env, "timers"), left_(left) {}
  void OnMessage(NodeId, const MessageRef&) override {}
  void OnTimer(uint64_t tag, uint64_t payload) override {
    if (*left_ == 0) return;
    --*left_;
    static constexpr SimTime kDelays[] = {120, 2000, 65000, 400000};
    SimTime d = payload % 97 == 0 ? 20 * kSecond : kDelays[payload % 4];
    StartTimer(d, tag, payload + 1);
  }
  void Kick(int streams) {
    for (int i = 0; i < streams; ++i) StartTimer(1 + i, 1, i);
  }

 private:
  uint64_t* left_;
};

Timed TimerStorm() {
  Env env(11);
  Network net(&env);
  uint64_t left = 300000;
  TimerActor actor(&env, &left);
  auto t0 = std::chrono::steady_clock::now();
  actor.Kick(64);
  Timed r;
  r.ops = env.sim.RunAll();
  r.wall_s = Since(t0);
  return r;
}

// ------------------------------------------------------------ consensus

/// Drives an n-node engine cluster through `slots` decided slots over a
/// zero-latency loopback: sends queue in FIFO order and are handed to the
/// peer's handler after the sender returns (engines are not re-entrant),
/// and timers never fire. Engine bookkeeping and signatures only, no
/// transport or CPU model.
template <typename Engine>
Timed LoopbackSlots(int n, uint64_t slots) {
  Env env(7);
  std::vector<std::unique_ptr<Engine>> engines(n);
  std::vector<NodeId> cluster;
  for (int i = 0; i < n; ++i) cluster.push_back(static_cast<NodeId>(i));
  struct InFlight {
    NodeId from, to;
    MessageRef msg;
  };
  std::deque<InFlight> wire;
  uint64_t delivered = 0;
  for (int i = 0; i < n; ++i) {
    EngineContext ctx;
    ctx.env = &env;
    ctx.self = static_cast<NodeId>(i);
    ctx.cluster = cluster;
    ctx.self_index = i;
    ctx.checkpoint_interval = 64;
    ctx.send = [&wire, i](NodeId to, MessageRef m) {
      wire.push_back({static_cast<NodeId>(i), to, std::move(m)});
    };
    ctx.broadcast = [&wire, i, n](MessageRef m) {
      for (int p = 0; p < n; ++p) {
        if (p != i) wire.push_back({static_cast<NodeId>(i),
                                    static_cast<NodeId>(p), m});
      }
    };
    ctx.start_timer = [](SimTime, uint64_t, uint64_t) {};
    ctx.deliver = [&delivered](uint64_t, const ConsensusValue&) {
      ++delivered;
    };
    engines[i] = std::make_unique<Engine>(std::move(ctx), /*f=*/1,
                                          /*base_timeout_us=*/100000);
  }
  auto t0 = std::chrono::steady_clock::now();
  ConsensusValue v;
  for (uint64_t s = 0; s < slots; ++s) {
    engines[0]->Propose(v);
    while (!wire.empty()) {
      InFlight m = std::move(wire.front());
      wire.pop_front();
      engines[m.to]->OnMessage(m.from, m.msg);
    }
  }
  Timed r;
  r.wall_s = Since(t0);
  r.ops = delivered / n;
  return r;
}

// --------------------------------------------------------------- crypto

std::vector<Sha256Digest> Digests(size_t n) {
  std::vector<Sha256Digest> out(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = Mix64(i + 1);
    std::memcpy(out[i].bytes.data(), &x, sizeof(x));
  }
  return out;
}

Timed Sign() {
  KeyStore ks(3);
  auto digests = Digests(1024);
  constexpr uint64_t kOps = 200000;
  uint64_t fold = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    fold ^= ks.Sign(static_cast<NodeId>(i % 16), digests[i % 1024]).tag_lo;
  }
  Timed r{kOps, Since(t0)};
  g_sink = g_sink + fold;
  return r;
}

Timed Verify() {
  KeyStore ks(3);
  auto digests = Digests(1024);
  std::vector<Signature> sigs;
  for (size_t i = 0; i < digests.size(); ++i) {
    sigs.push_back(ks.Sign(static_cast<NodeId>(i % 16), digests[i]));
  }
  constexpr uint64_t kOps = 200000;
  uint64_t ok = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    ok += ks.Verify(sigs[i % 1024], digests[i % 1024]) ? 1 : 0;
  }
  Timed r{kOps, Since(t0)};
  g_sink = g_sink + ok;
  return r;
}

Timed Sha256PerKb() {
  std::vector<uint8_t> buf(1024);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint8_t>(i);
  constexpr uint64_t kOps = 20000;
  uint64_t fold = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    buf[0] = static_cast<uint8_t>(i);
    fold ^= Sha256::Hash(buf.data(), buf.size()).Prefix64();
  }
  Timed r{kOps, Since(t0)};
  g_sink = g_sink + fold;
  return r;
}

// ------------------------------------------------------ firewall / exec

/// ExecutorCore::Submit of 100-transaction SmallBank blocks on one
/// shard: ledger append (DagLedger), execution against the MvStore, and
/// result digests.
Timed ExecuteBlocks() {
  constexpr int kBlocks = 200;
  constexpr size_t kTxsPerBlock = 100;
  Env env(5);
  DataModel model(2);
  model.set_default_shard_count(1);
  model.AddWorkflow(EnterpriseSet::All(2));
  Directory dir;
  dir.params.num_enterprises = 2;
  dir.params.shards_per_enterprise = 1;
  WorkloadParams wp;
  wp.cross_fraction = 0;
  wp.dep_read_fraction = 0;
  SmallBankWorkload wl(&model, &dir, wp, Rng(9));
  const CollectionId local{EnterpriseSet::Single(0)};

  std::vector<BlockPtr> blocks;
  uint64_t ts = 0;
  for (int b = 0; b < kBlocks; ++b) {
    auto block = std::make_shared<Block>();
    block->id.alpha = {local, 0, static_cast<SeqNo>(b + 1)};
    while (block->txs.size() < kTxsPerBlock) {
      Transaction tx = wl.Next(1, ++ts);
      if (tx.collection == local) block->txs.push_back(std::move(tx));
    }
    block->Seal();
    blocks.push_back(std::move(block));
  }
  std::vector<CommitCertificate> certs;
  for (const BlockPtr& b : blocks) {
    CommitCertificate cert;
    cert.block_digest = b->Digest();
    cert.direct = true;
    cert.sigs.push_back(env.keystore.Sign(0, cert.block_digest));
    certs.push_back(cert);
  }

  ExecutorCore core(&env, &model, 0, 0);
  uint64_t fold = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int b = 0; b < kBlocks; ++b) {
    Status st = core.Submit(blocks[b], certs[b], blocks[b]->id.alpha, {},
                            [&fold](const ExecutorCore::ExecResult& res) {
                              fold ^= res.result_digest.Prefix64();
                            });
    if (!st.ok()) {
      std::fprintf(stderr, "exec bench: %s\n", st.ToString().c_str());
    }
  }
  Timed r{core.executed_txs(), Since(t0)};
  g_sink = g_sink + fold;
  return r;
}

// -------------------------------------------------------------- workload

/// SmallBankWorkload::Next plus the client's signature over the
/// transaction digest: the per-request cost of the load generator.
Timed NextTransaction() {
  QanaatSystem::Options so;  // the 4x4 deployment of pbft_intra
  so.params.num_enterprises = 4;
  so.params.shards_per_enterprise = 4;
  QanaatSystem sys(std::move(so));
  WorkloadParams wp;
  wp.cross_fraction = 0.1;
  SmallBankWorkload wl(&sys.model(), &sys.directory(), wp, Rng(13));
  constexpr uint64_t kOps = 100000;
  uint64_t fold = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    Transaction tx = wl.Next(7, i + 1);
    fold ^= sys.env().keystore.Sign(7, tx.Digest()).tag_lo;
  }
  Timed r{kOps, Since(t0)};
  g_sink = g_sink + fold;
  return r;
}

// ------------------------------------------------------------- protocols

/// A 2-enterprise x 1-shard deployment where every transaction is
/// cross-enterprise, under a zero CostModel (no CPU charges, no latency):
/// the host cost of one cross-cluster protocol family per committed
/// block.
Timed CrossBlocks(ProtocolFamily family) {
  QanaatSystem::Options so;
  so.params.num_enterprises = 2;
  so.params.shards_per_enterprise = 1;
  so.params.family = family;
  so.seed = 5;
  QanaatSystem sys(std::move(so));
  CostModel zero;
  zero.base_proc_us = zero.verify_sig_us = zero.mac_verify_us = 0;
  zero.exec_tx_us = zero.batch_tx_us = zero.pf_tx_overhead_us = 0;
  zero.lan_latency_us = zero.jitter_us = 0;
  zero.bandwidth_bytes_per_us = 1e12;
  sys.env().costs = zero;
  WorkloadParams wp;
  wp.cross_fraction = 1.0;
  constexpr SimTime kIssueUs = 400 * kMillisecond;
  for (int i = 0; i < 2; ++i) {
    sys.AddClient(wp, 10000)->Start(0, kIssueUs, 0, kIssueUs);
  }
  auto t0 = std::chrono::steady_clock::now();
  sys.env().sim.Run(kIssueUs + 100 * kMillisecond);
  Timed r;
  r.wall_s = Since(t0);
  r.ops = sys.ordering_node(0, 0)->committed_blocks();
  return r;
}

struct LayerBench {
  const char* span;  // recorded as layer.<span>
  const char* metric;
  const char* unit;
  double scale;  // wall seconds per op -> unit
  std::function<Timed()> run;
};

}  // namespace

std::vector<LayerResult> RunLayerBenches(int reps, SpanRecorder* trace) {
  const std::vector<LayerBench> benches = {
      {"ring", "sim.ring_ns_per_event", "ns", 1e9, MessageRing},
      {"timers", "sim.timer_ns_per_event", "ns", 1e9, TimerStorm},
      {"pbft", "consensus.pbft_ns_per_slot", "ns", 1e9,
       [] { return LoopbackSlots<PbftEngine>(4, 20000); }},
      {"paxos", "consensus.paxos_ns_per_slot", "ns", 1e9,
       [] { return LoopbackSlots<PaxosEngine>(3, 50000); }},
      {"sign", "crypto.sign_ns", "ns", 1e9, Sign},
      {"verify", "crypto.verify_ns", "ns", 1e9, Verify},
      {"sha256", "crypto.sha256_ns_per_kb", "ns", 1e9, Sha256PerKb},
      {"exec", "firewall.exec_ns_per_tx", "ns", 1e9, ExecuteBlocks},
      {"workload", "workload.next_ns_per_tx", "ns", 1e9, NextTransaction},
      {"cross_flat", "protocols.cross_flat_us_per_block", "us", 1e6,
       [] { return CrossBlocks(ProtocolFamily::kFlattened); }},
      {"cross_crd", "protocols.cross_crd_us_per_block", "us", 1e6,
       [] { return CrossBlocks(ProtocolFamily::kCoordinator); }},
  };
  std::vector<LayerResult> out;
  for (const LayerBench& d : benches) {
    const std::string span_name = std::string("layer.") + d.span;
    std::vector<double> per_op;
    for (int i = 0; i < reps; ++i) {
      ScopedSpan span(trace, span_name);
      Timed t = d.run();
      per_op.push_back(t.ops > 0 ? t.wall_s * d.scale / t.ops : 0);
      span.set_args("\"ops\":" + std::to_string(t.ops));
    }
    std::sort(per_op.begin(), per_op.end());
    out.push_back({d.metric, d.unit, per_op[per_op.size() / 2]});
  }
  return out;
}

}  // namespace qbench
