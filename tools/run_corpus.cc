// Sharded chaos-corpus driver. Enumerates the declarative corpus manifest
// (stack x seed x adversary), deterministically selects this shard's
// slice, forks one worker process per core (each simulated run stays
// single-threaded), and aggregates per-run reports into a machine-readable
// JSON summary. Every failure prints the exact single-run repro command.
//
//   run_corpus --shard-index=0 --shard-count=4 --jobs=8 --out=shard0.json
//   run_corpus --list --shard-index=2 --shard-count=4
//   run_corpus --stack=pbft --seed=7 --adversary=gray     # one-run repro
//
// Sharding is hash-stable: an entry's shard depends only on its identity
// (stack, seed, adversary), never on manifest position, so growing the
// corpus appends to shards instead of reshuffling them.

#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness/corpus.h"

namespace qanaat {
namespace {

struct Args {
  int shard_index = 0;
  int shard_count = 1;
  int jobs = 0;  // 0 = hardware concurrency
  int seeds = 0;           // 0 = manifest default
  int conflict_seeds = -1;  // <0 = manifest default
  std::string out;
  bool list = false;
  // Single-run repro mode (enabled when --seed is given).
  bool single = false;
  ChaosStack stack = ChaosStack::kQanaatPbft;
  uint64_t seed = 0;
  bool adversary_set = false;
  AdversaryKind adversary = AdversaryKind::kNone;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: run_corpus [--shard-index=I --shard-count=N] [--jobs=J]\n"
      "                  [--seeds=N] [--conflict-seeds=N] [--out=FILE]\n"
      "                  [--list]\n"
      "       run_corpus --stack=pbft|paxos|fabric --seed=S\n"
      "                  [--adversary=none|gray|equivocation|silence|"
      "conflict]\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = val("--shard-index=")) {
      a->shard_index = std::atoi(v);
    } else if (const char* v = val("--shard-count=")) {
      a->shard_count = std::atoi(v);
    } else if (const char* v = val("--jobs=")) {
      a->jobs = std::atoi(v);
    } else if (const char* v = val("--seeds=")) {
      a->seeds = std::atoi(v);
    } else if (const char* v = val("--conflict-seeds=")) {
      a->conflict_seeds = std::atoi(v);
    } else if (const char* v = val("--out=")) {
      a->out = v;
    } else if (arg == "--list") {
      a->list = true;
    } else if (const char* v = val("--stack=")) {
      if (!ParseStack(v, &a->stack)) return false;
    } else if (const char* v = val("--seed=")) {
      a->single = true;
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--adversary=")) {
      a->adversary_set = true;
      if (!ParseAdversary(v, &a->adversary)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (a->shard_count < 1 || a->shard_index < 0 ||
      a->shard_index >= a->shard_count) {
    std::fprintf(stderr, "invalid shard %d/%d\n", a->shard_index,
                 a->shard_count);
    return false;
  }
  if (a->single && a->seed == 0) {
    std::fprintf(stderr, "--seed must be >= 1\n");
    return false;
  }
  return true;
}

// Worker -> parent: one EncodeResultTsv line per finished run, written to
// a per-worker temp file (a crashed worker simply leaves later records
// missing, which the parent turns into failures with repro lines).
void WriteResult(FILE* f, size_t index, const CorpusRunResult& r) {
  std::fprintf(f, "%s\n", EncodeResultTsv(index, r).c_str());
  std::fflush(f);
}

int RunSingle(const Args& a) {
  CorpusEntry e;
  e.stack = a.stack;
  e.seed = a.seed;
  e.adversary =
      a.adversary_set ? a.adversary : AdversaryFor(a.stack, a.seed);
  std::fprintf(stderr, "running %s seed %" PRIu64 " adversary %s\n",
               StackArgName(e.stack), e.seed, AdversaryName(e.adversary));
  CorpusRunResult r = RunEntry(e);
  std::printf("%s", SummaryJson(0, 1, {r}).c_str());
  if (!r.passed) {
    std::fprintf(stderr, "FAIL: %s\n  repro: %s\n", r.failure.c_str(),
                 ReproCommand(e).c_str());
    return 1;
  }
  return 0;
}

int RunShard(const Args& a) {
  CorpusManifest manifest;
  if (a.seeds > 0) manifest.seeds = a.seeds;
  if (a.conflict_seeds >= 0) manifest.conflict_seeds = a.conflict_seeds;
  std::vector<CorpusEntry> mine;
  for (const CorpusEntry& e : manifest.Enumerate()) {
    if (ShardOf(e, a.shard_count) == a.shard_index) mine.push_back(e);
  }

  if (a.list) {
    for (const CorpusEntry& e : mine) {
      std::printf("%s\t%" PRIu64 "\t%s\n", StackArgName(e.stack), e.seed,
                  AdversaryName(e.adversary));
    }
    std::fprintf(stderr, "shard %d/%d: %zu of %d entries\n", a.shard_index,
                 a.shard_count, mine.size(),
                 manifest.seeds * 3 + manifest.conflict_seeds * 2);
    return 0;
  }

  int jobs = a.jobs > 0
                 ? a.jobs
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  if (static_cast<size_t>(jobs) > mine.size() && !mine.empty()) {
    jobs = static_cast<int>(mine.size());
  }
  std::fprintf(stderr, "shard %d/%d: %zu runs across %d workers\n",
               a.shard_index, a.shard_count, mine.size(), jobs);

  // One temp file + one forked worker per job slot; worker w owns every
  // entry with index % jobs == w. The sim itself stays single-threaded —
  // parallelism is pure process-level fan-out, so determinism is free.
  std::vector<FILE*> files;
  std::vector<pid_t> pids;
  for (int w = 0; w < jobs; ++w) {
    FILE* f = std::tmpfile();
    if (f == nullptr) {
      std::perror("tmpfile");
      return 2;
    }
    files.push_back(f);
    pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 2;
    }
    if (pid == 0) {
      for (size_t i = static_cast<size_t>(w); i < mine.size();
           i += static_cast<size_t>(jobs)) {
        WriteResult(f, i, RunEntry(mine[i]));
      }
      std::_Exit(0);
    }
    pids.push_back(pid);
  }

  bool worker_crashed = false;
  for (pid_t pid : pids) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 ||
        !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      worker_crashed = true;
    }
  }

  // Collect: anything a worker never reported (it crashed mid-run) is a
  // failure attributed to the exact entry, repro line included.
  std::vector<CorpusRunResult> results(mine.size());
  std::vector<bool> seen(mine.size(), false);
  for (FILE* f : files) {
    std::rewind(f);
    std::string line;
    int c;
    while ((c = std::fgetc(f)) != EOF) {
      if (c != '\n') {
        line += static_cast<char>(c);
        continue;
      }
      size_t index = 0;
      CorpusRunResult r;
      if (DecodeResultTsv(line, &index, &r) && index < mine.size()) {
        r.entry = mine[index];
        results[index] = r;
        seen[index] = true;
      }
      line.clear();
    }
    std::fclose(f);
  }
  for (size_t i = 0; i < mine.size(); ++i) {
    if (!seen[i]) {
      results[i].entry = mine[i];
      results[i].passed = false;
      results[i].failure = "worker process died before reporting";
    }
  }

  std::string json = SummaryJson(a.shard_index, a.shard_count, results);
  if (!a.out.empty()) {
    FILE* f = std::fopen(a.out.c_str(), "w");
    if (f == nullptr) {
      std::perror("open --out");
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fputs(json.c_str(), stdout);
  }

  size_t failed = 0;
  for (const auto& r : results) {
    if (r.passed) continue;
    ++failed;
    std::fprintf(stderr, "FAIL %s seed %" PRIu64 " adversary %s: %s\n",
                 StackArgName(r.entry.stack), r.entry.seed,
                 AdversaryName(r.entry.adversary), r.failure.c_str());
    std::fprintf(stderr, "  repro: %s\n", ReproCommand(r.entry).c_str());
  }
  std::fprintf(stderr, "shard %d/%d: %zu/%zu passed\n", a.shard_index,
               a.shard_count, results.size() - failed, results.size());
  return (failed > 0 || worker_crashed) ? 1 : 0;
}

}  // namespace
}  // namespace qanaat

int main(int argc, char** argv) {
  qanaat::Args args;
  if (!qanaat::ParseArgs(argc, argv, &args)) {
    qanaat::Usage();
    return 2;
  }
  if (args.single) return qanaat::RunSingle(args);
  return qanaat::RunShard(args);
}
