#include "compile.h"

#include <sstream>
#include <unordered_map>

#include "analyze/analyze.h"
#include "distance/edit_distance.h"
#include "match/pattern.h"
#include "sig/compiler.h"
#include "support/hash.h"
#include "support/interner.h"
#include "text/abstraction.h"
#include "text/html.h"
#include "text/lexer.h"
#include "text/normalize.h"
#include "unpack/unpackers.h"
#include "winnow/winnow.h"

namespace kizzle::kbench {
namespace {

// Runs `fn` as one span and returns its duration in seconds.
template <typename F>
double lap(Tracer& tracer, Tracer::Buffer& buf, Span name, F&& fn) {
  const std::int64_t t0 = tracer.now_ns();
  fn();
  const std::int64_t t1 = tracer.now_ns();
  buf.spans.push_back({name, 0, t0, t1});
  return static_cast<double>(t1 - t0) * 1e-9;
}

// State the replay carries across days, mirroring the pipeline's own.
struct Replay {
  Tracer& tracer;
  Tracer::Buffer& buf;
  const core::PipelineConfig& cfg;
  CompileLayers& layers;
  kizzle::Interner interner;
  engine::Database db;  // the deployed set as the pipeline grows it

  // Replays process_day(day) for `html`, given the day's report and the
  // pipeline the day ran on.
  void day(const std::vector<std::string>& html, const core::DayReport& report,
           const core::KizzlePipeline& pipeline);

  // Times `fn` as one `name` span, adding its seconds to `total` and to
  // the day's covered time.
  template <typename F>
  void time(double& total, Span name, F&& fn) {
    const double s = lap(tracer, buf, name, std::forward<F>(fn));
    total += s;
    covered += s;
  }
  double covered = 0;
};

void Replay::day(const std::vector<std::string>& html,
                 const core::DayReport& report,
                 const core::KizzlePipeline& pipeline) {
  covered = 0;
  // Text preparation, sample by sample, as process_day does it.
  std::vector<std::vector<text::Token>> tokens(html.size());
  std::vector<std::vector<std::uint32_t>> streams(html.size());
  time(layers.text_prep_s, Span::kTextPrep, [&] {
    for (std::size_t i = 0; i < html.size(); ++i) {
      const std::string script = text::inline_script_text(html[i]);
      tokens[i] = text::lex(script, text::LexOptions{.tolerant = true});
      streams[i] = text::abstract_tokens(tokens[i], cfg.abstraction, interner);
      const std::string normalized = sig::normalized_token_text(tokens[i]);
      layers.tokens += tokens[i].size();
    }
  });
  layers.samples += html.size();

  // Deduplication (untimed: process_day's own dedup is unattributed).
  std::vector<std::size_t> unique_of(html.size());
  {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_hash;
    std::size_t unique = 0;
    for (std::size_t i = 0; i < html.size(); ++i) {
      auto& bucket = by_hash[kizzle::fnv1a64(
          std::span<const std::uint32_t>(streams[i]))];
      bool found = false;
      for (std::size_t rep : bucket) {
        if (streams[rep] == streams[i]) {
          unique_of[i] = unique_of[rep];
          found = true;
          break;
        }
      }
      if (!found) {
        bucket.push_back(i);
        unique_of[i] = unique++;
      }
    }
    layers.unique += unique;
  }

  const auto& cs = report.cluster_stats;
  layers.map_s += cs.map_seconds;
  layers.reduce_s += cs.reduce_seconds;
  covered += cs.map_seconds + cs.reduce_seconds;
  layers.clusters += report.n_clusters;
  layers.dp_calls += cs.map.dp_computations + cs.reduce.dp_computations;
  for (const cluster::DbscanStats* st : {&cs.map, &cs.reduce}) {
    layers.pairs += st->pairs_considered;
    layers.pairs_pruned += st->pairs_pruned_length +
                           st->pairs_pruned_histogram + st->pairs_pruned_sketch;
  }

  for (const core::ClusterReport& cr : report.clusters) {
    // The cluster's unique streams in the pipeline's order, each with the
    // first sample carrying it (ClusterReport::samples lists them so).
    std::vector<std::size_t> proto_of_unique;
    std::vector<std::size_t> seen;
    for (std::size_t s : cr.samples) {
      if (std::find(seen.begin(), seen.end(), unique_of[s]) == seen.end()) {
        seen.push_back(unique_of[s]);
        proto_of_unique.push_back(s);
      }
    }
    std::size_t proto = proto_of_unique.empty() ? 0 : proto_of_unique[0];
    time(layers.medoid_s, Span::kMedoid, [&] {
      constexpr std::size_t kCap = 16;  // KizzlePipeline::cluster_medoid
      const std::size_t m = std::min(proto_of_unique.size(), kCap);
      double best_total = 0;
      for (std::size_t i = 0; i < m && proto_of_unique.size() > 1; ++i) {
        double total = 0;
        for (std::size_t j = 0; j < m; ++j) {
          if (i == j) continue;
          total += dist::normalized_edit_distance(
              streams[proto_of_unique[i]], streams[proto_of_unique[j]]);
        }
        if (i == 0 || total < best_total) {
          best_total = total;
          proto = proto_of_unique[i];
        }
      }
    });
    time(layers.unpack_s, Span::kUnpack, [&] {
      const std::string script = text::inline_script_text(html[proto]);
      const auto unpacked = unpack::unpack_fixpoint(
          script, core::unpack_limits_of(cfg.scan_limits, script.size()));
      if (unpacked) layers.unpack_layers += unpacked->layers;
      const std::string text = text::normalize_js(
          unpacked && !unpacked->text.empty() ? std::string_view(unpacked->text)
                                              : std::string_view(script));
    });
    time(layers.label_s, Span::kLabel, [&] {
      const auto fps = winnow::FingerprintSet::of_text(cr.prototype_text, cfg.winnow);
      (void)pipeline.corpus().label(fps);
    });
    const bool compiled_signature =
        !cr.label.empty() && cr.coverage >= 0 && cr.coverage < cfg.coverage_threshold;
    if (!compiled_signature) continue;

    std::optional<match::Pattern> pattern;
    time(layers.synth_s, Span::kSynth, [&] {
      std::vector<std::vector<text::Token>> samples;
      const std::size_t n = std::min(cr.samples.size(), cfg.max_signature_samples);
      for (std::size_t i = 0; i < n; ++i) samples.push_back(tokens[cr.samples[i]]);
      const sig::Signature s = sig::compile_signature(samples, cfg.signature);
      if (s.ok) pattern = match::Pattern::compile(s.pattern);
    });
    if (!pattern) continue;
    if (cfg.lint_deployments) {
      time(layers.lint_s, Span::kLint, [&] {
        (void)analyze::analyze_candidate(db, cr.signature_name, *pattern);
      });
    }
    if (cr.issued_signature) {
      time(layers.extend_s, Span::kExtend, [&] {
        db = db.extend(engine::Database::Entry{cr.signature_name, cr.label,
                                               std::move(*pattern)});
      });
    }
  }
  layers.unattributed_s += report.seconds - covered;
}

}  // namespace

std::unique_ptr<core::KizzlePipeline> make_pipeline(const Traffic& traffic,
                                                    std::size_t threads) {
  auto pipeline = std::make_unique<core::KizzlePipeline>(
      pipeline_config(threads), traffic.pipeline_seed);
  for (const FamilySeed& s : traffic.seeds) {
    pipeline->seed_family(s.family, s.threshold, s.payload);
  }
  return pipeline;
}

CompileRun compile_days(const Traffic& traffic, std::size_t threads,
                        Tracer* tracer, CompileLayers* layers) {
  CompileRun run;
  run.pipeline = make_pipeline(traffic, threads);
  Tracer::Buffer* buf = tracer != nullptr ? &tracer->buffer() : nullptr;
  const core::PipelineConfig cfg = pipeline_config(threads);
  std::optional<Replay> replay;
  if (tracer != nullptr && layers != nullptr) {
    replay.emplace(Replay{*tracer, *buf, cfg, *layers, {}, {}, 0});
  }

  for (std::size_t d = 0; d < traffic.days.size(); ++d) {
    const core::DayReport report =
        run.pipeline->process_day(traffic.day_numbers[d], traffic.days[d]);
    run.process_seconds += report.seconds;
    run.samples += report.n_samples;
    if (replay) replay->day(traffic.days[d], report, *run.pipeline);
    if (d == 0) {
      std::ostringstream os;
      run.pipeline->export_artifact(os);
      run.day1_artifact = std::move(os).str();
    }
  }
  const auto emit = [&] {
    std::ostringstream artifact;
    run.pipeline->export_artifact(artifact);
    run.release_artifact = std::move(artifact).str();
    std::ostringstream delta;
    run.pipeline->export_delta(delta, traffic.day_numbers.front());
    run.delta = std::move(delta).str();
  };
  if (replay) {
    layers->emit_s += lap(*tracer, *buf, Span::kEmit, emit);
  } else {
    emit();
  }
  run.issued = run.pipeline->signatures().size();
  run.input_bytes = traffic.compile_bytes();
  return run;
}

}  // namespace kizzle::kbench
