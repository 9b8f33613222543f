// Inputs of every workload, made from the run's seed: three kitgen days
// to compile, the held-out fourth day to scan (raw HTML plus kitgen's
// ground truth), and near-miss filler signatures. Also the slow
// reference verdicts every scan is checked against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "kitgen/stream.h"

namespace kizzle::kbench {

inline constexpr double kVolumeScale = 10.0;
inline constexpr int kCompileDays = 3;

struct FamilySeed {
  std::string family;
  double threshold = 0.0;
  std::string payload;
};

struct Page {
  std::string html;
  kitgen::Truth truth = kitgen::Truth::Benign;
  // Untimed preparation: text::normalize_document(html), and the index of
  // the first release signature whose own Pattern::search matches it.
  std::string normalized;
  std::optional<std::size_t> reference;
};

struct Traffic {
  std::vector<FamilySeed> seeds;            // pipeline seeding corpus
  std::vector<int> day_numbers;             // compile days, ascending
  std::vector<std::vector<std::string>> days;  // raw HTML per compile day
  std::vector<Page> held_out;
  std::uint64_t pipeline_seed = 0;
  std::size_t compile_bytes() const;
};

Traffic make_traffic(std::uint64_t seed);

// Fills Page::normalized and Page::reference by brute force over the
// release's signatures (every Pattern searched, first match wins).
void prepare_reference(std::vector<Page>& pages,
                       const std::vector<core::DeployedSignature>& release);

// `count` near-miss signatures: 40-byte chunks of normalized kit text from
// a seed disjoint from `seed`, two bytes perturbed, followed by the
// compiler's `[0-9a-zA-Z]{0,8}` suffix. A chunk that occurs in any page's
// normalized text is rejected, so no filler signature can ever match.
std::vector<core::DeployedSignature> make_filler(
    std::uint64_t seed, std::size_t count, const std::vector<Page>& pages);

// The pipeline configuration every workload compiles with.
core::PipelineConfig pipeline_config(std::size_t threads);

}  // namespace kizzle::kbench
