#include "sim/network.h"

#include <algorithm>

namespace qanaat {

namespace {
// Folds a trace word into the running hash so single-bit differences
// avalanche (Mix64 is the shared SplitMix64 finalizer).
uint64_t MixWord(uint64_t h, uint64_t word) {
  return Mix64(h ^ (word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}
}  // namespace

Network::Network(Env* env) : env_(env), rng_(env->rng.Fork()) {
  env_->net = this;
  rtt_.push_back({0});  // region 0, zero self-RTT
  RebuildOneWayCache();
}

void Network::GrowArrivalMatrix(size_t need) {
  size_t dim = arrival_dim_ == 0 ? 64 : arrival_dim_;
  while (dim < need) dim *= 2;
  std::vector<SimTime> fresh(dim * dim, kNoArrival);
  for (size_t f = 0; f < arrival_dim_; ++f) {
    for (size_t t = 0; t < arrival_dim_; ++t) {
      fresh[f * dim + t] = last_arrival_[f * arrival_dim_ + t];
    }
  }
  last_arrival_.swap(fresh);
  arrival_dim_ = dim;
}

int Network::AddRegion() {
  int id = static_cast<int>(rtt_.size());
  for (auto& row : rtt_) row.push_back(0);
  rtt_.emplace_back(rtt_.size() + 1, 0);
  RebuildOneWayCache();
  return id;
}

void Network::SetRtt(int a, int b, SimTime rtt_us) {
  rtt_[a][b] = rtt_us;
  rtt_[b][a] = rtt_us;
  RebuildOneWayCache();
}

void Network::RebuildOneWayCache() {
  size_t n = rtt_.size();
  one_way_.assign(n * n, 0);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      one_way_[a * n + b] = rtt_[a][b] / 2;
    }
  }
}

NodeId Network::Register(Actor* actor) {
  NodeId id = static_cast<NodeId>(actors_.size());
  actors_.push_back(actor);
  allowed_.push_back(nullptr);
  return id;
}

void Network::RestrictLinks(NodeId node, std::vector<NodeId> peers) {
  auto bits = std::make_unique<NodeBitset>();
  for (NodeId p : peers) bits->Set(p);
  allowed_[node] = std::move(bits);
}

bool Network::LinkAllowed(NodeId from, NodeId to) const {
  const auto& fa = allowed_[from];
  if (fa && !fa->Test(to)) return false;
  const auto& ta = allowed_[to];
  if (ta && !ta->Test(from)) return false;
  return true;
}

SimTime Network::LatencyBetween(int a, int b) {
  SimTime base = (a == b) ? env_->costs.lan_latency_us
                          : one_way_[static_cast<size_t>(a) * rtt_.size() + b];
  SimTime jitter = env_->costs.jitter_us > 0
                       ? static_cast<SimTime>(rng_.Uniform(
                             static_cast<uint64_t>(env_->costs.jitter_us) + 1))
                       : 0;
  return base + jitter;
}

const Network::LinkFault* Network::FaultFor(NodeId from, NodeId to) const {
  if (!link_faults_.empty()) {
    auto it = link_faults_.find(LinkKey(from, to));
    if (it != link_faults_.end()) return &it->second;
  }
  if (have_default_fault_) return &default_fault_;
  return nullptr;
}

void Network::SetLinkFault(NodeId from, NodeId to, const LinkFault& f) {
  link_faults_[LinkKey(from, to)] = f;
}

void Network::SetLinkFaultBetween(NodeId a, NodeId b, const LinkFault& f) {
  SetLinkFault(a, b, f);
  SetLinkFault(b, a, f);
}

void Network::ClearLinkFaultBetween(NodeId a, NodeId b) {
  link_faults_.erase(LinkKey(a, b));
  link_faults_.erase(LinkKey(b, a));
}

void Network::SetDefaultLinkFault(const LinkFault& f) {
  default_fault_ = f;
  have_default_fault_ = true;
}

void Network::ClearLinkFaults() {
  link_faults_.clear();
  have_default_fault_ = false;
}

void Network::NoteTraceEvent(uint64_t word) {
  trace_hash_ = MixWord(trace_hash_, word);
}

std::vector<std::pair<NodeId, NodeId>> Network::delivered_links() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(delivered_links_.size());
  for (uint64_t key : delivered_links_) {
    out.emplace_back(static_cast<NodeId>(key >> 32),
                     static_cast<NodeId>(key & 0xffffffffu));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Network::ScheduleDelivery(NodeId from, NodeId to, SimTime arrival,
                               MessageRef msg) {
  SimTime* cell = ArrivalCell(from, to);
  if (*cell != kNoArrival) {
    if (arrival < *cell) {
      // This later-sent message overtakes an earlier one on the link.
      ++reordered_;
      env_->metrics.Inc("net.reordered");
    } else {
      *cell = arrival;
    }
  } else {
    *cell = arrival;
  }
  if (record_links_) delivered_links_.insert(LinkKey(from, to));
  NoteTraceEvent((static_cast<uint64_t>(arrival) << 16) ^
                 (static_cast<uint64_t>(from) << 40) ^
                 (static_cast<uint64_t>(to) << 8) ^
                 static_cast<uint64_t>(msg->type));
  Actor* dst = actors_[to];
  env_->sim.ScheduleDeliver(arrival, dst, dst->epoch(), from,
                            std::move(msg));
}

void Network::Send(NodeId from, NodeId to, MessageRef msg) {
  if (from == to) {
    // Self-delivery: skip the wire but still pay CPU cost.
    actors_[to]->DeliverAt(env_->sim.now(), from, std::move(msg));
    return;
  }
  if (!LinkAllowed(from, to)) {
    ++blocked_sends_;
    env_->metrics.Inc("net.blocked_sends");
    return;
  }
  if (!partitions_.empty()) {
    auto key = std::minmax(from, to);
    uint64_t packed = LinkKey(key.first, key.second);
    if (std::binary_search(partitions_.begin(), partitions_.end(), packed)) {
      env_->metrics.Inc("net.partitioned");
      return;
    }
  }
  // Crash-stop endpoints are checked before any random draw: a blocked
  // send must not consume fault randomness, or the post-recovery replay
  // of a seed would diverge based on how many sends were blocked.
  Actor* src = actors_[from];
  Actor* dst = actors_[to];
  if (src->crashed() || dst->crashed()) return;

  const LinkFault* lf = FaultFor(from, to);
  // Selective silence is deterministic (no coin): it must come before any
  // random draw so swallowed messages never perturb the fault RNG stream.
  if (lf != nullptr && lf->silence_mask != 0 && lf->Silences(msg->type)) {
    ++silenced_;
    env_->metrics.Inc("net.silenced");
    return;
  }
  if (drop_rate_ > 0 && rng_.NextDouble() < drop_rate_) {
    env_->metrics.Inc("net.dropped");
    return;
  }
  if (lf != nullptr && lf->drop > 0 && rng_.NextDouble() < lf->drop) {
    env_->metrics.Inc("net.dropped");
    return;
  }

  size_t bytes = msg->WireBytes();
  SimTime wire = LatencyBetween(src->region(), dst->region());
  SimTime xmit = static_cast<SimTime>(static_cast<double>(bytes) /
                                      env_->costs.bandwidth_bytes_per_us);
  SimTime arrival = env_->sim.now() + wire + xmit;
  bool duplicate = false;
  if (lf != nullptr) {
    arrival += lf->extra_delay_us;
    duplicate = lf->duplicate > 0 && rng_.NextDouble() < lf->duplicate;
    if (lf->reorder > 0 && lf->reorder_delay_us > 0 &&
        rng_.NextDouble() < lf->reorder) {
      arrival += 1 + static_cast<SimTime>(rng_.Uniform(
                         static_cast<uint64_t>(lf->reorder_delay_us)));
    }
  }
  ++messages_sent_;
  bytes_sent_ += bytes;
  if (duplicate) {
    // The copy trails the original by a bounded random gap (e.g. a
    // retransmission racing the original through another path).
    SimTime gap =
        1 + static_cast<SimTime>(rng_.Uniform(static_cast<uint64_t>(
                std::max<SimTime>(lf->reorder_delay_us, 1))));
    ++duplicated_;
    env_->metrics.Inc("net.duplicated");
    ScheduleDelivery(from, to, arrival + gap, msg);
  }
  ScheduleDelivery(from, to, arrival, std::move(msg));
}

void Network::Multicast(NodeId from, const std::vector<NodeId>& to,
                        MessageRef msg) {
  for (NodeId t : to) Send(from, t, msg);
}

void Network::Partition(NodeId a, NodeId b) {
  auto key = std::minmax(a, b);
  uint64_t packed = LinkKey(key.first, key.second);
  auto it = std::lower_bound(partitions_.begin(), partitions_.end(), packed);
  if (it == partitions_.end() || *it != packed) partitions_.insert(it, packed);
}

void Network::HealPartition(NodeId a, NodeId b) {
  auto key = std::minmax(a, b);
  uint64_t packed = LinkKey(key.first, key.second);
  auto it = std::lower_bound(partitions_.begin(), partitions_.end(), packed);
  if (it != partitions_.end() && *it == packed) partitions_.erase(it);
}

void Network::HealAllPartitions() { partitions_.clear(); }

Actor::Actor(Env* env, std::string name, int region)
    : env_(env), name_(std::move(name)), region_(region) {
  id_ = env_->net->Register(this);
}

void Actor::OnTimer(uint64_t /*tag*/, uint64_t /*payload*/) {}

SimTime Actor::CostOf(const Message& msg) const {
  return env_->costs.base_proc_us +
         static_cast<SimTime>(msg.sig_verify_ops) * env_->costs.verify_sig_us;
}

void Actor::DeliverAt(SimTime arrival, NodeId from, MessageRef msg) {
  if (crashed_) return;
  SimTime start = std::max(arrival, busy_until_);
  SimTime done = start + Inflate(CostOf(*msg));
  busy_until_ = done;
  // Tagged handle event: the epoch guard runs at execution time, so work
  // accepted before a crash cannot complete in a recovered life.
  env_->sim.ScheduleHandle(done, this, epoch_, from, std::move(msg));
}

void Actor::StartTimer(SimTime delay, uint64_t tag, uint64_t payload) {
  if (delay < 0) delay = 0;
  // Tagged timer event: timers armed before a crash die with that life.
  env_->sim.ScheduleTimer(env_->sim.now() + delay, this, epoch_, tag,
                          payload);
}

}  // namespace qanaat
