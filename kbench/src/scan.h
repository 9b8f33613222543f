// The scan path: a release artifact on disk becomes a serving
// ScanServer, closed-loop clients push the held-out day's raw pages
// through text preparation and ScanServer::submit, and the main thread
// deploys chained deltas through ScanServer::deploy_delta meanwhile.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "serve/server.h"
#include "traffic.h"

namespace kizzle::kbench {

struct ServeSetup {
  std::unique_ptr<serve::ScanServer> server;
  double seconds = 0;       // artifact on disk -> server started
  double rss_mb = 0;        // resident-set growth across the set-up (freed
                            // heap the set-up reused does not show)
  bool load_refused = false;
  std::string refusal;      // the loader's error when refused
  double artifact_load_ms = 0;
  double compile_ms = 0;    // 0 unless the compile fallback ran
};

// Maps `artifact_path` and loads it with Database::from_artifact. When the
// loader refuses it and `fallback` is given, compiles `fallback` instead
// (the path actually taken is what `seconds` times).
ServeSetup start_server(const std::string& artifact_path,
                        const std::vector<core::DeployedSignature>* fallback);

// Chained one-signature KZDELTA artifacts: delta k adds filler[k] on top
// of `base` plus the k earlier ones.
std::vector<std::string> chained_deltas(
    const std::vector<core::DeployedSignature>& base,
    const std::vector<core::DeployedSignature>& filler);

// Deploys one KZDELTA through ScanServer::deploy_delta and returns the
// call's duration in ms; a refusal counts as a failure. With a buffer,
// first replays the three deploy stages (load_delta, analyze_delta,
// Database::extend) against the serving database as spans.
double deploy(serve::ScanServer& server, const std::string& bytes,
              Tracer* tracer, Tracer::Buffer* buf, Tally& tally);

struct ScanPhase {
  std::vector<double> latency_us;  // every request; +inf for failed ones
  // One latency per page visited: the median of its requests, or +inf
  // when any of them failed. The latency percentiles are taken over these,
  // so a client preempted by another process lengthens one request of a
  // page, not the page's figure.
  std::vector<double> page_us;
  double pages_per_s = 0;
  std::vector<double> deploy_ms;
  serve::ServerStats stats;  // the server's counters at the end
};

// Runs kClients closed-loop clients over `pages` (cycling) until
// `seconds` have passed, deploying `deltas` evenly over the phase. With a
// tracer, every page's layer calls are recorded as spans and replayed.
ScanPhase run_scan(serve::ScanServer& server, const std::vector<Page>& pages,
                   double seconds, const std::vector<std::string>& deltas, Tracer* tracer,
                   Tally& tally);

// Work counters of one scan of every page against `db` (first match, as
// the server scans): exact for a given seed, whatever the timing.
struct ScanCounts {
  std::uint64_t pages = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t normalized_bytes = 0;
  std::uint64_t first_stage_hits = 0;
  std::uint64_t survivors = 0;
  std::uint64_t candidates = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t confirm_vm = 0;
  std::uint64_t automaton_routed = 0;  // pages the first stage sent to the
                                       // Aho-Corasick walk (PrefilterFallback)
};
ScanCounts count_pass(const engine::Database& db, const std::vector<Page>& pages);

}  // namespace kizzle::kbench
