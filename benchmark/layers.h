#ifndef QANAAT_BENCHMARK_LAYERS_H_
#define QANAAT_BENCHMARK_LAYERS_H_

// Isolated layer benches: each times the public API of one layer on fixed
// inputs, so a change to that layer shows up here even when an
// end-to-end workload hides it.

#include <string>
#include <vector>

#include "trace.h"

namespace qbench {

struct LayerResult {
  std::string name;  // per-layer metric name, e.g. "crypto.sign_ns"
  std::string unit;
  double value = 0;  // median over the repetitions
};

/// Runs every bench `reps` times and reports each one's median. With a
/// recorder, every repetition is a `layer.<bench>` span carrying its
/// operation count.
std::vector<LayerResult> RunLayerBenches(int reps, SpanRecorder* trace);

}  // namespace qbench

#endif  // QANAAT_BENCHMARK_LAYERS_H_
