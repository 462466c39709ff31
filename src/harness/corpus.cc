#include "harness/corpus.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"

namespace qanaat {

AdversaryKind AdversaryFor(ChaosStack stack, uint64_t seed) {
  switch (stack) {
    case ChaosStack::kQanaatPbft:
      // seed % 4 == 0 are the untargeted-loss runs — keep those benign so
      // loss and adversaries stay independently attributable.
      switch (seed % 4) {
        case 1:
          return AdversaryKind::kGrayFailure;
        case 2:
          return AdversaryKind::kEquivocation;
        case 3:
          return AdversaryKind::kSelectiveSilence;
        default:
          return AdversaryKind::kNone;
      }
    case ChaosStack::kQanaatPaxos:
      // Crash model: no Byzantine ordering node to equivocate.
      switch (seed % 4) {
        case 1:
          return AdversaryKind::kGrayFailure;
        case 3:
          return AdversaryKind::kSelectiveSilence;
        default:
          return AdversaryKind::kNone;
      }
    case ChaosStack::kFabric:
      return (seed % 4 == 2) ? AdversaryKind::kGrayFailure
                             : AdversaryKind::kNone;
  }
  return AdversaryKind::kNone;
}

std::vector<CorpusEntry> CorpusManifest::Enumerate() const {
  static const ChaosStack kStacks[] = {
      ChaosStack::kQanaatPbft,
      ChaosStack::kQanaatPaxos,
      ChaosStack::kFabric,
  };
  std::vector<CorpusEntry> out;
  out.reserve(static_cast<size_t>(seeds) * 3 +
              static_cast<size_t>(conflict_seeds) * 2);
  for (ChaosStack stack : kStacks) {
    for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
      out.push_back({stack, seed, AdversaryFor(stack, seed)});
    }
  }
  // Cross-conflict profile: Qanaat stacks only (Fabric has no cross-shard
  // slot claims to contest). Appending keeps every rotation cell's
  // position, identity and shard untouched.
  for (ChaosStack stack :
       {ChaosStack::kQanaatPbft, ChaosStack::kQanaatPaxos}) {
    for (uint64_t i = 1; i <= static_cast<uint64_t>(conflict_seeds); ++i) {
      out.push_back(
          {stack, kConflictSeedBase + i, AdversaryKind::kCrossConflict});
    }
  }
  return out;
}

uint64_t EntryKey(const CorpusEntry& e) {
  // Identity only — never the manifest position. The adversary is part of
  // the identity so a rotation change is an explicit re-keying, not a
  // silent one.
  uint64_t k = Mix64(e.seed + 0x9e3779b97f4a7c15ULL);
  k = Mix64(k ^ (static_cast<uint64_t>(e.stack) + 1));
  k = Mix64(k ^ ((static_cast<uint64_t>(e.adversary) + 1) << 8));
  return k;
}

int ShardOf(const CorpusEntry& e, int shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<int>(EntryKey(e) % static_cast<uint64_t>(shard_count));
}

ChaosOptions EntryOptions(const CorpusEntry& e) {
  // Mirrors the chaos_test corpus recipe exactly for adversary == kNone;
  // the pinned ChaosGolden trace hashes guard the equivalence.
  ChaosOptions o;
  o.stack = e.stack;
  o.seed = e.seed;
  o.family = (e.seed % 2 == 0) ? ProtocolFamily::kCoordinator
                               : ProtocolFamily::kFlattened;
  static const CrossKind kKinds[] = {
      CrossKind::kIntraShardCrossEnterprise,
      CrossKind::kCrossShardIntraEnterprise,
      CrossKind::kCrossShardCrossEnterprise,
  };
  o.cross_kind = e.stack == ChaosStack::kFabric
                     ? CrossKind::kIntraShardCrossEnterprise
                     : kKinds[e.seed % 3];
  o.cross_fraction = 0.25;
  o.offered_tps = 300;
  o.profile.dup = 0.03;
  o.profile.reorder = 0.05;
  o.profile.loss = (e.seed % 4 == 0) ? 0.02 : 0.0;
  o.profile.adversary = e.adversary;
  if (e.adversary == AdversaryKind::kCrossConflict) {
    // §4.3.5 rivalry regime: no designated coordinators, flattened
    // protocols (arbitration lives in the FAccept path), a cross-heavy
    // intra-shard cross-enterprise mix so rival clusters contest the
    // same shared-collection slots, and no untargeted loss — the
    // convergence and eventual-commit audits must stay armed.
    o.designated_coordinator = false;
    o.family = ProtocolFamily::kFlattened;
    o.cross_kind = CrossKind::kIntraShardCrossEnterprise;
    o.cross_fraction = 0.5;
    o.profile.loss = 0.0;
  }
  return o;
}

CorpusRunResult RunEntry(const CorpusEntry& e) {
  CorpusRunResult res;
  res.entry = e;
  ChaosReport r = RunChaos(EntryOptions(e));
  res.report = r;

  std::string why;
  if (!r.safety.ok()) {
    why = "safety: " + r.safety.ToString();
  } else if (r.faults_applied == 0) {
    why = "no faults applied";
  } else if (r.net_duplicated + r.net_reordered == 0) {
    why = "injected dup/reorder never bit";
  } else if (!r.liveness_resumed) {
    why = "liveness did not resume after heal (commits " +
          std::to_string(r.commits_at_heal) + " at heal, " +
          std::to_string(r.commits_total) + " total)";
  } else if (r.commits_total <= 100) {
    why = "commit floor missed (" + std::to_string(r.commits_total) + ")";
  } else if (EntryOptions(e).profile.loss == 0.0 && !r.convergence_checked) {
    why = "convergence not checked despite loss-free plan";
  }
  res.passed = why.empty();
  res.failure = why;
  return res;
}

const char* StackArgName(ChaosStack s) {
  switch (s) {
    case ChaosStack::kQanaatPbft:
      return "pbft";
    case ChaosStack::kQanaatPaxos:
      return "paxos";
    case ChaosStack::kFabric:
      return "fabric";
  }
  return "?";
}

bool ParseStack(const std::string& s, ChaosStack* out) {
  if (s == "pbft") {
    *out = ChaosStack::kQanaatPbft;
  } else if (s == "paxos") {
    *out = ChaosStack::kQanaatPaxos;
  } else if (s == "fabric") {
    *out = ChaosStack::kFabric;
  } else {
    return false;
  }
  return true;
}

bool ParseAdversary(const std::string& s, AdversaryKind* out) {
  if (s == "none") {
    *out = AdversaryKind::kNone;
  } else if (s == "gray") {
    *out = AdversaryKind::kGrayFailure;
  } else if (s == "equivocation") {
    *out = AdversaryKind::kEquivocation;
  } else if (s == "silence") {
    *out = AdversaryKind::kSelectiveSilence;
  } else if (s == "conflict") {
    *out = AdversaryKind::kCrossConflict;
  } else {
    return false;
  }
  return true;
}

std::string ReproCommand(const CorpusEntry& e) {
  std::string cmd = "tools/run_corpus --stack=";
  cmd += StackArgName(e.stack);
  cmd += " --seed=" + std::to_string(e.seed);
  cmd += " --adversary=";
  cmd += AdversaryName(e.adversary);
  return cmd;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string TsvEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string TsvUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      char n = s[++i];
      out += n == 't' ? '\t' : n == 'n' ? '\n' : n;
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace

std::string SummaryJson(int shard_index, int shard_count,
                        const std::vector<CorpusRunResult>& results) {
  size_t passed = 0;
  for (const auto& r : results) passed += r.passed ? 1 : 0;

  std::string j = "{\n";
  j += "  \"shard_index\": " + std::to_string(shard_index) + ",\n";
  j += "  \"shard_count\": " + std::to_string(shard_count) + ",\n";
  j += "  \"total\": " + std::to_string(results.size()) + ",\n";
  j += "  \"passed\": " + std::to_string(passed) + ",\n";
  j += "  \"failed\": " + std::to_string(results.size() - passed) + ",\n";
  j += "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char hash[32];
    std::snprintf(hash, sizeof(hash), "0x%016" PRIx64, r.report.trace_hash);
    j += "    {\"stack\": \"";
    j += StackArgName(r.entry.stack);
    j += "\", \"seed\": " + std::to_string(r.entry.seed);
    j += ", \"adversary\": \"";
    j += AdversaryName(r.entry.adversary);
    j += "\", \"passed\": ";
    j += r.passed ? "true" : "false";
    j += ", \"trace_hash\": \"";
    j += hash;
    j += "\", \"commits\": " + std::to_string(r.report.commits_total);
    j += ", \"faults\": " + std::to_string(r.report.faults_applied);
    j += ", \"silenced\": " + std::to_string(r.report.net_silenced);
    j += ", \"liveness_resume_us\": " +
         std::to_string(r.report.liveness_resume_us);
    j += ", \"intake_parked\": " + std::to_string(r.report.intake_parked);
    j += ", \"client_retransmits\": " +
         std::to_string(r.report.client_retransmits);
    if (!r.passed) {
      j += ", \"violation\": \"" + JsonEscape(r.failure) + "\"";
      j += ", \"repro\": \"" + JsonEscape(ReproCommand(r.entry)) + "\"";
    }
    j += "}";
    j += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  j += "  ]\n}\n";
  return j;
}

std::string EncodeResultTsv(size_t index, const CorpusRunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu\t%d\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
                "\t%" PRId64 "\t%" PRIu64 "\t%" PRIu64 "\t",
                index, r.passed ? 1 : 0, r.report.trace_hash,
                r.report.commits_total, r.report.faults_applied,
                r.report.net_silenced,
                static_cast<int64_t>(r.report.liveness_resume_us),
                r.report.intake_parked, r.report.client_retransmits);
  return buf + TsvEscape(r.failure);
}

bool DecodeResultTsv(const std::string& line, size_t* index,
                     CorpusRunResult* r) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      fields.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  if (fields.size() != 10) return false;
  auto u64 = [&fields](size_t i) {
    return std::strtoull(fields[i].c_str(), nullptr, 10);
  };
  *index = u64(0);
  r->passed = fields[1] == "1";
  r->report.trace_hash = u64(2);
  r->report.commits_total = u64(3);
  r->report.faults_applied = u64(4);
  r->report.net_silenced = u64(5);
  r->report.liveness_resume_us = std::strtoll(fields[6].c_str(), nullptr, 10);
  r->report.intake_parked = u64(7);
  r->report.client_retransmits = u64(8);
  r->failure = TsvUnescape(fields[9]);
  return true;
}

}  // namespace qanaat
