#include "bench.h"

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace kizzle::kbench {

std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

void release_free_memory() { malloc_trim(0); }

void phase(const char* name) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[kbench +%.1fs] %s\n", seconds_between(start, Clock::now()),
               name);
}

const char* span_name(Span s) {
  switch (s) {
    case Span::kExtract: return "text.extract_scripts";
    case Span::kNormalize: return "text.normalize_js";
    case Span::kRoundTrip: return "serve.submit_to_callback";
    case Span::kPrefilter: return "match.candidates_into";
    case Span::kConfirm: return "engine.confirm";
    case Span::kEngineScan: return "engine.first_match";
    case Span::kDeltaLoad: return "sigdb.load_delta";
    case Span::kDeltaLint: return "analyze.analyze_delta";
    case Span::kDeltaExtend: return "engine.extend_delta";
    case Span::kTextPrep: return "text.prep";
    case Span::kMedoid: return "distance.medoid";
    case Span::kUnpack: return "unpack.fixpoint";
    case Span::kLabel: return "winnow.label";
    case Span::kSynth: return "sig.compile_signature";
    case Span::kLint: return "analyze.analyze_candidate";
    case Span::kExtend: return "engine.extend";
    case Span::kEmit: return "sigdb.emit";
    case Span::kCount: break;
  }
  return "?";
}

Tracer::Totals Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  for (const auto& b : buffers_) {
    for (const Record& r : b->spans) {
      const int i = static_cast<int>(r.name);
      const double d = static_cast<double>(r.end_ns - r.begin_ns) * 1e-9;
      t.seconds[i] += d;
      ++t.calls[i];
      t.durations[i].push_back(d);
    }
  }
  return t;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "span\trequest\tbegin_ns\tend_ns\n";
  for (const auto& b : buffers_) {
    for (const Record& r : b->spans) {
      out << span_name(r.name) << '\t' << r.request << '\t' << r.begin_ns
          << '\t' << r.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace kizzle::kbench
