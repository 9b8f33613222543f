// kbench: one benchmark for both Kizzle paths.
//
//   kbench --workload <compile_day|scan_deployed|scan_10k_deploy>
//          --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//          [--pipeline-threads <n>]
//
// Every workload makes its inputs from --seed with kitgen, checks every
// verdict against a brute-force reference, and prints one JSON line last:
// the end-to-end metrics untraced (--trace 0), the per-layer split traced
// (--trace 1). See kbench/README.md for what each workload loads.
#include <cstdio>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "compile.h"
#include "core/sigdb.h"
#include "scan.h"
#include "traffic.h"

namespace kizzle::kbench {
namespace {

// Set-up is repeated and its median reported: at least kMinSetupReps
// times, and up to kMaxSetupReps while kSetupBudgetSeconds last.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 21;
constexpr double kSetupBudgetSeconds = 1.0;
constexpr std::size_t kDeployReps = 6;
// Untimed scanning before every measured scan phase, so worker and client
// scratch buffers have grown and caches are warm when timing starts.
constexpr double kWarmupSeconds = 1.0;

Workload workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "compile_day") {
  } else if (name == "scan_deployed") {
    w.deltas = 8;
  } else if (name == "scan_10k_deploy") {
    w.filler = 10000;
    w.deltas = 8;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  long threads = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = workload_named(value);
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--pipeline-threads") {
      threads = std::stol(value);
    } else {
      throw std::invalid_argument("unknown argument: " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (threads > 0) a.workload.pipeline_threads = static_cast<std::size_t>(threads);
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Everything one run measures, untraced and traced, before it becomes the
// metrics of the requested mode.
struct Run {
  Tally tally;
  Tracer tracer;
  CompileLayers compile_layers;
  std::vector<double> setup_s;
  double rss_mb = 0;  // of the first serving set-up
  std::vector<double> artifact_load_ms;
  std::vector<double> compile_ms;
  bool load_refused = false;
  std::string refusal;  // the artifact loader's error, when it refused
  std::vector<double> compile_rates;  // MB/s of each compile
  double compile_overhead_s = 0;
  double compile_process_s = 0;  // process_day seconds of the last compile
  std::uint64_t artifact_bytes = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t kit_pages = 0;
  std::uint64_t fn = 0;
  std::uint64_t benign_pages = 0;
  std::uint64_t fp = 0;
  std::uint64_t issued = 0;
  ScanPhase plain;   // untraced scan phase
  ScanPhase traced;  // traced scan phase (--trace 1 only)
  std::vector<double> deploy_plain_ms;
  std::vector<double> deploy_traced_ms;
  ScanCounts counts;
};

void score_quality(Run& run, const std::vector<Page>& pages) {
  for (const Page& p : pages) {
    if (p.truth == kitgen::Truth::Benign) {
      ++run.benign_pages;
      run.fp += p.reference ? 1 : 0;
    } else {
      ++run.kit_pages;
      run.fn += p.reference ? 0 : 1;
    }
  }
}

void record_setup(Run& run, const ServeSetup& s) {
  run.artifact_load_ms.push_back(s.artifact_load_ms);
  run.compile_ms.push_back(s.compile_ms);
  if (s.load_refused) {
    run.load_refused = true;
    run.refusal = s.refusal;
  }
}

bool another_setup(std::size_t done, Clock::time_point start) {
  return done < kMinSetupReps ||
         (done < kMaxSetupReps &&
          seconds_between(start, Clock::now()) < kSetupBudgetSeconds);
}

// Starts servers from `path` one after another (see another_setup) and
// keeps the last; `record_time` adds each set-up time to run.setup_s.
// Freed heap is returned to the kernel before the first set-up only, so its
// resident-set growth is the database's; later set-ups reuse that memory,
// and their times do not vary with the cost of faulting in fresh pages.
ServeSetup serve_release(Run& run, const std::string& path,
                         const std::vector<core::DeployedSignature>* fallback,
                         bool record_time) {
  ServeSetup kept;
  release_free_memory();
  const auto start = Clock::now();
  for (std::size_t r = 0; another_setup(r, start); ++r) {
    kept = ServeSetup{};  // stop the previous server before the next set-up
    kept = start_server(path, fallback);
    if (r == 0) run.rss_mb = kept.rss_mb;
    record_setup(run, kept);
    if (record_time) run.setup_s.push_back(kept.seconds);
  }
  return kept;
}

// The scan phase: untraced for `seconds`, or untraced then traced halves
// with --trace 1 (their difference is the tracing overhead).
void scan_phases(Run& run, const Args& args, double seconds,
                 serve::ScanServer& server, const std::vector<Page>& pages,
                 const std::vector<std::string>& deltas) {
  (void)run_scan(server, pages, kWarmupSeconds, {}, nullptr, run.tally);
  if (!args.trace) {
    run.plain = run_scan(server, pages, seconds, deltas, nullptr, run.tally);
    run.deploy_plain_ms = run.plain.deploy_ms;
    return;
  }
  const std::size_t half = deltas.size() / 2;
  const std::vector<std::string> first(deltas.begin(), deltas.begin() + half);
  const std::vector<std::string> second(deltas.begin() + half, deltas.end());
  run.plain = run_scan(server, pages, seconds / 2, first, nullptr, run.tally);
  run.traced = run_scan(server, pages, seconds / 2, second, &run.tracer,
                        run.tally);
  run.deploy_plain_ms = run.plain.deploy_ms;
  run.deploy_traced_ms = run.traced.deploy_ms;
}

void run_compile_day(Run& run, const Args& args, Traffic& traffic) {
  const Workload& w = args.workload;
  // Set-up: pipeline construction plus seeding.
  const auto setup_start = Clock::now();
  for (std::size_t r = 0; another_setup(r, setup_start); ++r) {
    const auto t0 = Clock::now();
    auto pipeline = make_pipeline(traffic, w.pipeline_threads);
    run.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  phase("compile");
  // The compile days twice; with --trace 1 the second compile is traced,
  // and the difference is the tracing overhead.
  CompileRun compiled = compile_days(traffic, w.pipeline_threads, nullptr, nullptr);
  run.compile_rates.push_back(compiled.mb_per_s());
  if (args.trace) {
    const CompileRun traced = compile_days(traffic, w.pipeline_threads,
                                           &run.tracer, &run.compile_layers);
    run.compile_overhead_s = traced.process_seconds - compiled.process_seconds;
  } else {
    compiled = compile_days(traffic, w.pipeline_threads, nullptr, nullptr);
    run.compile_rates.push_back(compiled.mb_per_s());
  }
  run.compile_layers.samples = compiled.samples;
  run.compile_process_s = compiled.process_seconds;
  run.issued = compiled.issued;
  run.artifact_bytes = compiled.release_artifact.size();
  run.delta_bytes = compiled.delta.size();
  phase("reference verdicts");
  prepare_reference(traffic.held_out, compiled.pipeline->signatures());
  score_quality(run, traffic.held_out);
  run.tally.attempted += traffic.days.size();
  // The release is served from its artifact: the pipeline's memory goes
  // back to the kernel before the scan (serve_release trims the heap).
  compiled.pipeline.reset();

  // The released database scans the held-out day through serve.
  const std::string release = args.work_dir + "/compile_day-release.kpf";
  const std::string day1 = args.work_dir + "/compile_day-day1.kpf";
  write_file(release, compiled.release_artifact);
  write_file(day1, compiled.day1_artifact);
  {
    phase("scan");
    ServeSetup served = serve_release(run, release, nullptr, false);
    scan_phases(run, args, args.seconds, *served.server,
                traffic.held_out, {});
    run.counts = count_pass(*served.server->database(), traffic.held_out);
  }
  phase("deploy");
  // The delta against day 1 deploys onto a server holding day 1's release.
  Tracer::Buffer* buf = args.trace ? &run.tracer.buffer() : nullptr;
  for (std::size_t r = 0; r < kDeployReps; ++r) {
    ServeSetup base = start_server(day1, nullptr);
    const bool traced = buf != nullptr && r >= kDeployReps / 2;
    const double ms = deploy(*base.server, compiled.delta, &run.tracer,
                             traced ? buf : nullptr, run.tally);
    (traced ? run.deploy_traced_ms : run.deploy_plain_ms).push_back(ms);
  }
  std::filesystem::remove(release);
  std::filesystem::remove(day1);
}

void run_scan_workload(Run& run, const Args& args, Traffic& traffic) {
  const Workload& w = args.workload;
  phase("compile");
  const CompileRun compiled = compile_days(traffic, w.pipeline_threads, nullptr, nullptr);
  run.compile_rates.push_back(compiled.mb_per_s());
  run.compile_layers.samples = compiled.samples;
  run.compile_process_s = compiled.process_seconds;
  run.issued = compiled.issued;
  run.tally.attempted += traffic.days.size();
  const std::vector<core::DeployedSignature>& release =
      compiled.pipeline->signatures();
  phase("reference verdicts");
  prepare_reference(traffic.held_out, release);
  score_quality(run, traffic.held_out);

  phase("filler");
  const std::vector<core::DeployedSignature> filler =
      make_filler(args.seed, w.filler + w.deltas, traffic.held_out);
  std::vector<core::DeployedSignature> served_set = release;
  served_set.insert(served_set.end(), filler.begin(),
                    filler.begin() + static_cast<std::ptrdiff_t>(w.filler));
  const std::vector<core::DeployedSignature> delta_sigs(
      filler.begin() + static_cast<std::ptrdiff_t>(w.filler), filler.end());

  // The release artifact on disk: the pipeline's own export, or the real
  // release path (save_artifact) for the filled set.
  phase("release artifact");
  const std::string path = args.work_dir + "/" + w.name + "-release.kpf";
  if (w.filler == 0) {
    write_file(path, compiled.release_artifact);
  } else {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    core::save_artifact(out, served_set);
    if (!out) throw std::runtime_error("cannot write " + path);
  }
  run.artifact_bytes = std::filesystem::file_size(path);
  const std::vector<std::string> deltas = chained_deltas(served_set, delta_sigs);
  for (const std::string& d : deltas) run.delta_bytes += d.size();

  {
    phase("serve set-up");
    ServeSetup served = serve_release(
        run, path, w.filler > 0 ? &served_set : nullptr, true);
    std::filesystem::remove(path);
    phase("scan");
    scan_phases(run, args, args.seconds, *served.server, traffic.held_out, deltas);
    phase("teardown");
    if (args.trace) run.counts = count_pass(*served.server->database(), traffic.held_out);
  }
}

// num / den, or 0 when nothing was counted.
double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double count(std::uint64_t n) { return static_cast<double>(n); }

void emit(const Run& run, const Args& args, std::size_t traffic_bytes) {
  Metrics m;
  const std::vector<double>& lat = run.plain.latency_us;
  const std::vector<double>& page_us = run.plain.page_us;
  const double fn_rate = ratio(run.fn, run.kit_pages);
  const double fp_rate = ratio(run.fp, run.benign_pages);
  if (!args.trace) {
    m["setup_s"] = {median(run.setup_s), "s"};
    m["compile_mb_per_s"] = {median(run.compile_rates), "MB/s"};
    m["detect_rate"] = {1.0 - fn_rate, "share"};
    m["benign_pass_rate"] = {1.0 - fp_rate, "share"};
    m["page_p50_us"] = {quantile(page_us, 0.50), "us"};
    m["page_p99_us"] = {quantile(page_us, 0.99), "us"};
    m["pages_per_s"] = {run.plain.pages_per_s, "1/s"};
    m["ok_share"] = {1.0 - ratio(run.tally.failed, run.tally.attempted), "share"};
  } else {
    const Tracer::Totals t = run.tracer.totals();
    const auto mean_us = [&](Span s) {
      const int i = static_cast<int>(s);
      return ratio(t.seconds[i], static_cast<double>(t.calls[i])) * 1e6;
    };
    const auto median_ms = [&](Span s) {
      return median(t.durations[static_cast<int>(s)]) * 1e3;
    };
    std::vector<double> served;  // untraced latencies of served pages
    for (double x : lat) {
      if (!std::isinf(x)) served.push_back(x);
    }

    const ScanCounts& c = run.counts;
    m["text.extract_us"] = {mean_us(Span::kExtract), "us"};
    m["text.normalize_us"] = {mean_us(Span::kNormalize), "us"};
    m["text.bytes_out_share"] = {ratio(c.normalized_bytes, c.raw_bytes), "share"};
    m["match.prefilter_us"] = {mean_us(Span::kPrefilter), "us"};
    m["match.first_stage_hits_per_kb"] = {
        ratio(c.first_stage_hits * 1024, c.normalized_bytes), "count/KB"};
    m["match.automaton_share"] = {ratio(c.automaton_routed, c.pages), "share"};
    m["match.survivors_per_page"] = {ratio(c.survivors, c.pages), "count"};
    m["match.useful_share"] = {ratio(c.confirmed, c.survivors), "share"};
    m["engine.confirm_us"] = {mean_us(Span::kConfirm), "us"};
    m["engine.candidates_per_page"] = {ratio(c.candidates, c.pages), "count"};
    m["engine.confirm_vm"] = {count(c.confirm_vm), "count"};
    m["serve.rtt_us"] = {mean_us(Span::kRoundTrip), "us"};
    // Every traced page has one round trip and one replayed first_match.
    m["serve.overhead_us"] = {mean_us(Span::kRoundTrip) - mean_us(Span::kEngineScan), "us"};
    const serve::ServerStats& st = run.traced.stats;
    m["serve.batch_size"] = {ratio(st.batched_jobs, st.batches), "count"};
    m["serve.shed"] = {count(st.shed_queue_full + st.shed_stale), "count"};
    m["serve.delta_deploy_ms"] = {median(run.deploy_plain_ms), "ms"};
    m["serve.db_rss_mb"] = {run.rss_mb, "MB"};
    m["scan.unattributed_us"] = {mean(served) - mean_us(Span::kExtract) -
                                     mean_us(Span::kNormalize) - mean_us(Span::kRoundTrip),
                                 "us"};
    m["scan.samples"] = {count(lat.size()), "count"};
    m["sigdb.delta_load_ms"] = {median_ms(Span::kDeltaLoad), "ms"};
    m["analyze.delta_lint_ms"] = {median_ms(Span::kDeltaLint), "ms"};
    m["engine.delta_extend_ms"] = {median_ms(Span::kDeltaExtend), "ms"};
    m["sigdb.artifact_load_ms"] = {median(run.artifact_load_ms), "ms"};
    m["sigdb.load_refused"] = {run.load_refused ? 1.0 : 0.0, "count"};
    m["engine.compile_ms"] = {median(run.compile_ms), "ms"};
    m["sigdb.artifact_bytes"] = {count(run.artifact_bytes), "bytes"};
    m["sigdb.delta_bytes"] = {count(run.delta_bytes), "bytes"};
    m["eval.fn_rate"] = {fn_rate, "share"};
    m["eval.fp_rate"] = {fp_rate, "share"};

    const CompileLayers& L = run.compile_layers;
    m["text.prep_s"] = {L.text_prep_s, "s"};
    m["text.tokens"] = {count(L.tokens), "count"};
    m["text.compile_input_mb"] = {count(traffic_bytes) / 1048576.0, "MB"};
    m["pipeline.samples_per_s"] = {ratio(count(L.samples), run.compile_process_s), "1/s"};
    m["core.unique_share"] = {ratio(L.unique, L.samples), "share"};
    m["cluster.map_s"] = {L.map_s, "s"};
    m["cluster.reduce_s"] = {L.reduce_s, "s"};
    m["cluster.clusters"] = {count(L.clusters), "count"};
    m["distance.dp_calls"] = {count(L.dp_calls), "count"};
    m["distance.pruned_share"] = {ratio(L.pairs_pruned, L.pairs), "share"};
    m["distance.medoid_s"] = {L.medoid_s, "s"};
    m["unpack.s"] = {L.unpack_s, "s"};
    m["unpack.layers"] = {count(L.unpack_layers), "count"};
    m["winnow.label_s"] = {L.label_s, "s"};
    m["sig.synth_s"] = {L.synth_s, "s"};
    m["sig.issued"] = {count(run.issued), "count"};
    m["analyze.lint_s"] = {L.lint_s, "s"};
    m["engine.extend_s"] = {L.extend_s, "s"};
    m["sigdb.emit_s"] = {L.emit_s, "s"};
    m["pipeline.unattributed_s"] = {L.unattributed_s, "s"};

    const std::vector<double>& traced = run.traced.page_us;
    m["trace.page_p50_overhead_us"] = {
        quantile(traced, 0.50) - quantile(page_us, 0.50), "us"};
    m["trace.page_p99_overhead_us"] = {
        quantile(traced, 0.99) - quantile(page_us, 0.99), "us"};
    m["trace.deploy_overhead_ms"] = {
        median(run.deploy_traced_ms) - median(run.deploy_plain_ms), "ms"};
    m["trace.compile_overhead_s"] = {run.compile_overhead_s, "s"};
  }

  std::printf("# %s seed=%llu: %zu requests over %zu pages (p99 has %zu pages beyond it; "
              "request-level p99 %.1f us), "
              "%llu kit / %llu benign pages, %llu FN, %llu FP, %llu signatures issued\n",
              args.workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              lat.size(), page_us.size(), page_us.size() / 100, quantile(lat, 0.99),
              static_cast<unsigned long long>(run.kit_pages),
              static_cast<unsigned long long>(run.benign_pages),
              static_cast<unsigned long long>(run.fn),
              static_cast<unsigned long long>(run.fp),
              static_cast<unsigned long long>(run.issued));
  std::printf("# compile: %llu samples, %.2f MB in %.3f s of process_day\n",
              static_cast<unsigned long long>(run.compile_layers.samples),
              static_cast<double>(traffic_bytes) / 1048576.0, run.compile_process_s);
  if (run.load_refused) {
    std::printf("# release artifact refused by Database::from_artifact: %s\n",
                run.refusal.c_str());
  }
  for (const std::string& p : run.tally.problems) std::printf("# failure: %s\n", p.c_str());

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (run.tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << run.tally.attempted
       << ", \"failed\": " << run.tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m) {
    // JSON has no infinity: a latency percentile that fell on a failed
    // request (+inf) is printed as the largest finite double.
    const double value = std::isnan(vu.first) ? 0.0
                         : std::clamp(vu.first, -std::numeric_limits<double>::max(),
                                      std::numeric_limits<double>::max());
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
         << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
}

}  // namespace
}  // namespace kizzle::kbench

int main(int argc, char** argv) {
  using namespace kizzle::kbench;
  try {
    const Args args = parse(argc, argv);
    std::filesystem::create_directories(args.work_dir);
    phase("traffic");
    Traffic traffic = make_traffic(args.seed);
    Run run;
    if (args.workload.name == "compile_day") {
      run_compile_day(run, args, traffic);
    } else {
      run_scan_workload(run, args, traffic);
    }
    if (args.trace) {
      run.tracer.write(args.work_dir + "/spans-" + args.workload.name + ".tsv");
    }
    phase("done");
    emit(run, args, traffic.compile_bytes());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
