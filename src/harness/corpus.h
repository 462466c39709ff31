#ifndef QANAAT_HARNESS_CORPUS_H_
#define QANAAT_HARNESS_CORPUS_H_

#include <string>
#include <vector>

#include "harness/chaos.h"
#include "sim/faults.h"

namespace qanaat {

/// One cell of the chaos corpus: a (stack, seed, adversary) triple. The
/// triple IS the run's identity — everything else (topology, workload,
/// fault profile) derives from it deterministically via EntryOptions, so
/// any corpus run reproduces from its triple alone.
struct CorpusEntry {
  ChaosStack stack = ChaosStack::kQanaatPbft;
  uint64_t seed = 1;
  AdversaryKind adversary = AdversaryKind::kNone;
};

/// Declarative description of the whole corpus: `seeds` consecutive seeds
/// (1..seeds inclusive) crossed with every stack, each run under the
/// adversary the per-stack rotation assigns to that seed. Growing `seeds`
/// only APPENDS entries — existing (stack, seed) cells keep their
/// adversary and, because sharding hashes entry identity, their shard.
struct CorpusManifest {
  int seeds = 66;  // 66 seeds x 3 stacks = 198 runs
  /// Cross-conflict profile (§4.3.5): dedicated seeds run the two Qanaat
  /// stacks with designated coordinators off and a cross-heavy workload
  /// under the kCrossConflict adversary, manufacturing symmetric rival
  /// claims that digest-priority arbitration must settle. Appended after
  /// the rotation entries at kConflictSeedBase + 1.., so growing either
  /// knob never reshuffles existing cells.
  int conflict_seeds = 8;  // x 2 stacks = 16 more runs

  std::vector<CorpusEntry> Enumerate() const;
};

/// Seed band for the cross-conflict profile entries — disjoint from the
/// rotation's 1..seeds band so the two sweeps stay independently growable.
constexpr uint64_t kConflictSeedBase = 1000;

/// The adversary the rotation assigns to (stack, seed). Stacks only face
/// adversaries their fault model admits: equivocation needs a Byzantine
/// ordering node (PBFT only); the crash-model Paxos stack rotates gray
/// failure and selective silence; the Fabric baseline (pinned Raft
/// leader, no view change to starve) only faces gray failure.
AdversaryKind AdversaryFor(ChaosStack stack, uint64_t seed);

/// Stable 64-bit identity of an entry. Depends only on the triple, never
/// on the entry's position in the manifest.
uint64_t EntryKey(const CorpusEntry& e);

/// Which of `shard_count` shards owns the entry: Mix64(EntryKey) modulo
/// shard_count. Hash-stable — adding seeds to the manifest never moves an
/// existing entry between shards (for a fixed shard_count).
int ShardOf(const CorpusEntry& e, int shard_count);

/// The canonical options for an entry. For adversary == kNone this is
/// byte-identical to the chaos_test corpus recipe — the pinned ChaosGolden
/// trace hashes are the witness — and the adversary rides on top without
/// disturbing that baseline.
ChaosOptions EntryOptions(const CorpusEntry& e);

struct CorpusRunResult {
  CorpusEntry entry;
  ChaosReport report;
  bool passed = false;
  /// Why the run failed, human-readable; empty when passed.
  std::string failure;
};

/// Runs one entry and applies the corpus pass criteria (safety audits
/// clean, faults actually bit, liveness resumed, commit floor met).
CorpusRunResult RunEntry(const CorpusEntry& e);

/// Exact one-line command reproducing a single corpus entry.
std::string ReproCommand(const CorpusEntry& e);

const char* StackArgName(ChaosStack s);
bool ParseStack(const std::string& s, ChaosStack* out);
bool ParseAdversary(const std::string& s, AdversaryKind* out);

/// Machine-readable shard summary (one JSON object: shard identity,
/// totals, and a per-run record with trace hash, violation text and the
/// repro command for every failure).
std::string SummaryJson(int shard_index, int shard_count,
                        const std::vector<CorpusRunResult>& results);

/// One run's record as a single TSV line (no trailing newline): how a
/// forked corpus worker hands its results to the parent. Carries the
/// manifest index and every report field SummaryJson prints.
std::string EncodeResultTsv(size_t index, const CorpusRunResult& r);
/// Inverse of EncodeResultTsv; the entry itself is not carried (the
/// parent owns the manifest). False on a malformed line.
bool DecodeResultTsv(const std::string& line, size_t* index,
                     CorpusRunResult* r);

}  // namespace qanaat

#endif  // QANAAT_HARNESS_CORPUS_H_
