// Confidential data leakage prevention (paper §3.4, R3): even if an
// attacker compromises execution nodes — the nodes that actually hold
// confidential data — the privacy firewall keeps the data inside.
//
// This demo compromises one execution node of a cluster and shows:
//  1. its direct leak attempts (messages to clients / ordering nodes /
//     other enterprises) are physically impossible — the network wiring
//     gives it links only to the top filter row;
//  2. its protocol-level exfiltration attempt (stuffing data into reply
//     messages) is filtered: corrupted replies never gather the g+1
//     matching shares a reply certificate needs;
//  3. the system stays live and correct throughout (2g+1 executors
//     tolerate g Byzantine ones).

#include <cstdio>
#include <vector>

#include "qanaat/system.h"

using namespace qanaat;

/// What a compromised executor would like to send out: raw ledger bytes.
struct LeakMsg : WireMessage<LeakMsg> {
  LeakMsg() : WireMessage(MsgType::kReply) {}
  std::vector<uint8_t> stolen = std::vector<uint8_t>(4096);  // the ledger

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) { return io.List32(m.stolen); }
};

int main() {
  QanaatSystem::Options opts;
  opts.params.num_enterprises = 2;
  opts.params.shards_per_enterprise = 1;
  opts.params.failure_model = FailureModel::kByzantine;
  opts.params.use_firewall = true;
  opts.params.family = ProtocolFamily::kFlattened;
  QanaatSystem sys(std::move(opts));

  const ClusterConfig& cluster_a = sys.directory().Cluster(0);
  std::printf("Cluster A/0: %zu ordering, %zu execution, %zux%zu filters\n\n",
              cluster_a.ordering.size(), cluster_a.execution.size(),
              cluster_a.filter_rows.size(), cluster_a.filter_rows[0].size());

  // ---- the adversary ----------------------------------------------------
  ExecutionNode* evil = sys.execution_node(0, 0);
  evil->SetByzantine(true);
  evil->SetCorruptReplies(true);  // tries to smuggle data via replies
  std::printf("compromised execution node: %s (id %u)\n\n",
              evil->name().c_str(), evil->id());

  // ---- workload with confidential collaboration -------------------------
  WorkloadParams wl;
  wl.cross_kind = CrossKind::kIntraShardCrossEnterprise;
  wl.cross_fraction = 0.4;  // d_AB traffic carries shared secrets
  ClientMachine* client = sys.AddClient(wl, 400);
  client->Start(0, 2 * kSecond, 0, 2 * kSecond);

  // ---- attempt 1: direct exfiltration ------------------------------------
  std::printf("-- attempt 1: direct messages out of the enclave --\n");
  uint64_t blocked0 = sys.net().blocked_sends();
  auto leak = std::make_shared<LeakMsg>();
  sys.net().Send(evil->id(), client->id(), leak);
  sys.net().Send(evil->id(), cluster_a.ordering[0], leak);
  sys.net().Send(evil->id(), sys.directory().Cluster(1).execution[0], leak);
  sys.env().sim.Run(10 * kMillisecond);
  std::printf("   leak attempts blocked by physical wiring: %llu/3\n\n",
              (unsigned long long)(sys.net().blocked_sends() - blocked0));

  // ---- attempt 2: protocol-level exfiltration ----------------------------
  std::printf("-- attempt 2: corrupt replies through the firewall --\n");
  sys.env().sim.Run(3 * kSecond);
  uint64_t filtered = 0;
  for (int row = 0; row < 2; ++row) {
    for (int i = 0; i < 2; ++i) {
      filtered += sys.filter_node(0, row, i)->filtered_messages();
    }
  }
  std::printf("   corrupted shares dropped by filters: (bad-share drops "
              "counted below)\n");
  std::printf("   firewall.filtered_bad_share = %llu\n",
              (unsigned long long)sys.env().metrics.Get(
                  "firewall.filtered_bad_share"));
  (void)filtered;

  // ---- the system is still healthy ---------------------------------------
  std::printf("\n-- system health under attack --\n");
  std::printf("   transactions accepted: %llu / %llu issued\n",
              (unsigned long long)client->accepted(),
              (unsigned long long)client->issued());
  std::printf("   mean latency: %.2f ms\n",
              client->latencies().Mean() / 1000.0);
  Status audit = sys.VerifyAllLedgers();
  std::printf("   ledger audit: %s\n", audit.ToString().c_str());

  bool ok = audit.ok() && client->accepted() > 0 &&
            client->accepted() == client->issued() &&
            sys.net().blocked_sends() - blocked0 == 3;
  std::printf("\n%s\n", ok ? "privacy firewall demo: OK"
                           : "privacy firewall demo: FAILED");
  return ok ? 0 : 1;
}
