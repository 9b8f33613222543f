#include "traffic.h"

#include <algorithm>
#include <bitset>
#include <memory>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "eval/experiment.h"
#include "match/pattern.h"
#include "text/normalize.h"

namespace kizzle::kbench {
namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): independent, reproducible sub-seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::size_t kChunk = 40;
constexpr std::uint64_t kBase = 1099511628211ull;
constexpr char kAlnum[] =
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

std::uint64_t chunk_hash(std::string_view s) {
  std::uint64_t h = 0;
  for (unsigned char c : s) h = h * kBase + c;
  return h;
}

// Marks every chunk that occurs somewhere in `texts` (rolling hash over
// each text, exact comparison on a hash hit).
std::vector<bool> occurring(const std::vector<std::string>& chunks,
                            const std::vector<Page>& pages) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_hash;
  auto filter = std::make_unique<std::bitset<1u << 24>>();
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const std::uint64_t h = chunk_hash(chunks[i]);
    by_hash[h].push_back(i);
    filter->set(h & ((1u << 24) - 1));
  }
  std::uint64_t top = 1;  // kBase^(kChunk-1)
  for (std::size_t i = 1; i < kChunk; ++i) top *= kBase;

  std::vector<bool> seen(chunks.size(), false);
  for (const Page& page : pages) {
    const std::string& t = page.normalized;
    if (t.size() < kChunk) continue;
    std::uint64_t h = chunk_hash(std::string_view(t).substr(0, kChunk));
    for (std::size_t at = 0;; ++at) {
      if (filter->test(h & ((1u << 24) - 1))) {
        const auto it = by_hash.find(h);
        if (it != by_hash.end()) {
          for (std::size_t i : it->second) {
            if (t.compare(at, kChunk, chunks[i]) == 0) seen[i] = true;
          }
        }
      }
      if (at + kChunk >= t.size()) break;
      h = (h - static_cast<unsigned char>(t[at]) * top) * kBase +
          static_cast<unsigned char>(t[at + kChunk]);
    }
  }
  return seen;
}

}  // namespace

std::size_t Traffic::compile_bytes() const {
  std::size_t n = 0;
  for (const auto& day : days) {
    for (const std::string& html : day) n += html.size();
  }
  return n;
}

core::PipelineConfig pipeline_config(std::size_t threads) {
  core::PipelineConfig cfg;
  cfg.threads = threads;
  return cfg;
}

Traffic make_traffic(std::uint64_t seed) {
  Traffic t;
  kitgen::StreamConfig sc;
  sc.seed = mix(seed, 1);
  sc.volume_scale = kVolumeScale;
  sc.start_day = kitgen::kAug1;
  sc.end_day = kitgen::kAug1 + kCompileDays;
  kitgen::StreamSimulator sim(sc);

  const eval::ExperimentConfig thresholds;
  for (const auto& [family, payload] : sim.seed_corpus()) {
    t.seeds.push_back({std::string(kitgen::family_name(family)),
                       eval::family_threshold(thresholds, family), payload});
  }
  for (int day = sc.start_day; day < sc.end_day; ++day) {
    kitgen::DailyBatch batch = sim.generate_day(day);
    std::vector<std::string> html;
    html.reserve(batch.samples.size());
    for (kitgen::Sample& s : batch.samples) html.push_back(std::move(s.html));
    t.day_numbers.push_back(day);
    t.days.push_back(std::move(html));
  }
  kitgen::DailyBatch held = sim.generate_day(sc.end_day);
  t.held_out.reserve(held.samples.size());
  for (kitgen::Sample& s : held.samples) {
    Page p;
    p.html = std::move(s.html);
    p.truth = s.truth;
    t.held_out.push_back(std::move(p));
  }
  t.pipeline_seed = mix(seed, 2);
  return t;
}

void prepare_reference(std::vector<Page>& pages,
                       const std::vector<core::DeployedSignature>& release) {
  std::vector<match::Pattern> patterns;
  patterns.reserve(release.size());
  for (const auto& s : release) patterns.push_back(match::Pattern::compile(s.pattern));
  for (Page& p : pages) {
    p.normalized = text::normalize_document(p.html);
    p.reference.reset();
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      if (patterns[i].search(p.normalized).matched) {
        p.reference = i;
        break;
      }
    }
  }
}

std::vector<core::DeployedSignature> make_filler(
    std::uint64_t seed, std::size_t count, const std::vector<Page>& pages) {
  std::vector<core::DeployedSignature> out;
  if (count == 0) return out;
  kitgen::StreamConfig sc;
  sc.seed = mix(seed, 3);  // disjoint from the scanned traffic's stream
  sc.volume_scale = 2.0;
  sc.start_day = kitgen::kAug1;
  sc.end_day = kitgen::kAug31;
  kitgen::StreamSimulator sim(sc);
  std::mt19937_64 rng(mix(seed, 4));
  std::unordered_set<std::string> unique;
  std::vector<std::string> chunks;

  for (int day = sc.start_day; day <= sc.end_day && out.size() < count; ++day) {
    for (const kitgen::Sample& s : sim.generate_day(day).samples) {
      if (s.truth == kitgen::Truth::Benign) continue;
      const std::string text = text::normalize_document(s.html);
      for (std::size_t at = 0; at + kChunk <= text.size(); at += kChunk) {
        std::string chunk = text.substr(at, kChunk);
        const std::size_t a = rng() % kChunk;
        const std::size_t b = (a + 1 + rng() % (kChunk - 1)) % kChunk;
        for (std::size_t pos : {a, b}) {
          char c = chunk[pos];
          while (c == chunk[pos]) c = kAlnum[rng() % (sizeof(kAlnum) - 1)];
          chunk[pos] = c;
        }
        if (unique.insert(chunk).second) chunks.push_back(std::move(chunk));
      }
    }
    if (chunks.size() < count + count / 4 + 8) continue;
    const std::vector<bool> seen = occurring(chunks, pages);
    for (std::size_t i = 0; i < chunks.size() && out.size() < count; ++i) {
      if (seen[i]) continue;
      core::DeployedSignature sig;
      sig.name = "KB.Filler." + std::to_string(out.size() + 1);
      sig.family = "Filler";
      sig.pattern = match::Pattern::escape(chunks[i]) + "[0-9a-zA-Z]{0,8}";
      sig.token_length = 1;
      out.push_back(std::move(sig));
    }
    chunks.clear();
  }
  if (out.size() < count) throw std::runtime_error("not enough filler chunks");
  return out;
}

}  // namespace kizzle::kbench
