// The compile day: KizzlePipeline::process_day over the traffic's compile
// days, then the release artifact and the delta against day 1. With a
// tracer, each day's layer calls are replayed through the layers' public
// functions on the same inputs, which gives the per-layer split.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "traffic.h"

namespace kizzle::kbench {

// Per-layer totals of one traced compile (seconds unless named a count).
struct CompileLayers {
  double text_prep_s = 0;
  std::uint64_t tokens = 0;
  std::uint64_t samples = 0;
  std::uint64_t unique = 0;
  double map_s = 0;
  double reduce_s = 0;
  std::uint64_t clusters = 0;
  std::uint64_t dp_calls = 0;
  std::uint64_t pairs = 0;
  std::uint64_t pairs_pruned = 0;
  double medoid_s = 0;
  double unpack_s = 0;
  std::uint64_t unpack_layers = 0;
  double label_s = 0;
  double synth_s = 0;
  double lint_s = 0;
  double extend_s = 0;
  double emit_s = 0;
  // process_day wall time not covered by the replayed calls above.
  double unattributed_s = 0;
};

struct CompileRun {
  std::unique_ptr<core::KizzlePipeline> pipeline;
  double process_seconds = 0;  // sum of process_day wall time
  std::size_t samples = 0;
  std::size_t input_bytes = 0;  // raw HTML of the compiled days
  std::size_t issued = 0;
  std::string day1_artifact;    // release after the first day (.kpf)
  std::string release_artifact; // release after the last day (.kpf)
  std::string delta;            // KZDELTA: last day against day 1

  // Raw input compiled per second of process_day. Compile time follows
  // input bytes (lexing dominates), not sample count: seeds with the same
  // bytes in 16% more samples compile in the same time.
  double mb_per_s() const {
    return static_cast<double>(input_bytes) / 1048576.0 / process_seconds;
  }
};

// Builds and seeds a pipeline (the compile day's set-up).
std::unique_ptr<core::KizzlePipeline> make_pipeline(const Traffic& traffic,
                                                    std::size_t threads);

// Runs the compile days. `layers`, when non-null, receives the replayed
// per-layer split (untimed otherwise).
CompileRun compile_days(const Traffic& traffic, std::size_t threads,
                        Tracer* tracer, CompileLayers* layers);

}  // namespace kizzle::kbench
