// Shared plumbing of the kbench harness: workload parameters, the metric
// sink that becomes the final JSON line, clocks, resident-set probes and
// the in-memory span recorder behind `--trace 1`.
//
// The harness only ever calls the library's public entry points. Tracing
// is done here, around those calls: a span is recorded in a per-thread
// buffer and nothing is aggregated or written until the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace kizzle::kbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Every workload's scan phase: closed-loop page clients against one
// ScanServer worker.
inline constexpr std::size_t kClients = 2;
inline constexpr std::size_t kWorkers = 1;

// Parameters that differ between workloads (BENCHMARK.json names the three).
struct Workload {
  std::string name;
  // KizzlePipeline map/reduce threads. On a shared 4-vCPU VM two compile
  // about as fast as four (process_day is mostly serial), and a stall of
  // any of four threads delays every map/reduce barrier: in five
  // alternating runs the four-thread rate ranged +-13%, the two-thread
  // rate +-4%.
  std::size_t pipeline_threads = 2;
  std::size_t filler = 0;            // near-miss signatures added to the db
  std::size_t deltas = 0;            // chained one-signature deltas deployed
};

struct Args {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

// Metric name -> (value, unit), printed in name order as the "metrics"
// object.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

// Outcome accounting shared by every workload: what was attempted, what
// failed (errors, shed requests, verdict mismatches, refused deploys).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // first few failure descriptions

  void fail(std::string why) {
    ++failed;
    if (problems.size() < 8) problems.push_back(std::move(why));
  }
};

// Quantile of an unsorted sample (nearest rank); +inf entries (failed
// requests) sort last, so they count as missing every latency limit.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(std::llround(rank))];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Logs the start of a run phase to stderr, with seconds since the first
// call, so a slow run shows where its time went.
void phase(const char* name);

// Resident set size of this process in bytes (/proc/self/statm).
std::size_t resident_bytes();
// Returns freed heap pages to the kernel so the next resident_bytes()
// delta measures what the following code keeps resident.
void release_free_memory();

// ------------------------------- tracing -------------------------------

// Span names. A span's name says which layer's public call it
// wraps; the per-layer metrics are aggregated from these at exit.
enum class Span : std::uint8_t {
  kExtract,        // text::extract_scripts
  kNormalize,      // text::normalize_js over the inline scripts
  kRoundTrip,      // ScanServer::submit -> response callback
  kPrefilter,      // LiteralPrefilter::candidates_into (replayed)
  kConfirm,        // engine::confirm (replayed)
  kEngineScan,     // engine::first_match (replayed, for serve overhead)
  kDeltaLoad,      // core::load_delta
  kDeltaLint,      // analyze::analyze_delta
  kDeltaExtend,    // engine::Database::extend(delta)
  kTextPrep,       // inline_script_text + lex + abstract_tokens (+ text)
  kMedoid,         // normalized_edit_distance over medoid candidates
  kUnpack,         // unpack::unpack_fixpoint on prototypes
  kLabel,          // FingerprintSet::of_text + LabeledCorpus::label
  kSynth,          // sig::compile_signature
  kLint,           // analyze::analyze_candidate
  kExtend,         // engine::Database::extend(entry)
  kEmit,           // export_artifact + export_delta
  kCount
};

const char* span_name(Span s);

class Tracer {
 public:
  struct Record {
    Span name;
    std::uint64_t request;  // page sequence number (0 = none)
    std::int64_t begin_ns;  // since the tracer's origin
    std::int64_t end_ns;
  };

  // One per recording thread; owned by the tracer so spans survive the
  // thread and are only read at exit.
  struct Buffer {
    std::vector<Record> spans;
  };

  Tracer() : origin_(Clock::now()) {}

  Buffer& buffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    return *buffers_.back();
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  // Aggregates over every buffer (call after all recording threads ended).
  struct Totals {
    double seconds[static_cast<int>(Span::kCount)] = {};
    std::uint64_t calls[static_cast<int>(Span::kCount)] = {};
    std::vector<double> durations[static_cast<int>(Span::kCount)];
  };
  Totals totals() const;

  // Writes every span as one tab-separated line (name, request, begin_ns,
  // end_ns) to `path`. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace kizzle::kbench
