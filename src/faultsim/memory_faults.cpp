#include "faultsim/memory_faults.hpp"

#include <unordered_set>

#include "faultsim/bitflip.hpp"
#include "faultsim/geometric.hpp"

namespace hybridcnn::faultsim {

namespace {

inline void flip_site(tensor::Tensor& t, std::uint64_t site) {
  const auto word = static_cast<std::size_t>(site >> 5);
  const auto bit = static_cast<int>(site & 31u);
  t[word] = flip_bit(t[word], bit);
}

}  // namespace

MemoryFaultReport inject_bit_errors(tensor::Tensor& t, double bit_error_rate,
                                    util::Rng& rng) {
  MemoryFaultReport report;
  report.words_visited = t.count();
  const std::uint64_t total_bits = static_cast<std::uint64_t>(t.count()) * 32;
  if (total_bits == 0 || bit_error_rate <= 0.0) return report;
  if (bit_error_rate >= 1.0) {
    for (std::uint64_t site = 0; site < total_bits; ++site) {
      flip_site(t, site);
    }
    report.bits_flipped = total_bits;
    return report;
  }

  // Geometric skip sampling over the flattened bit space: with per-bit
  // flip probability p, the number of clean bits before the next flip is
  // Geometric(p). One uniform draw per flip replaces one Bernoulli trial
  // per bit (O(32N) -> O(p * 32N) draws) while producing the exact
  // i.i.d. Bernoulli(p) flip-site distribution.
  const GeometricGap gap(bit_error_rate);
  std::uint64_t pos = 0;  // next candidate site
  while (pos < total_bits) {
    const std::uint64_t skip = gap.draw(rng);  // one uniform: 0 < p < 1
    ++report.rng_draws;
    if (skip >= total_bits - pos) break;
    pos += skip;
    flip_site(t, pos);
    ++report.bits_flipped;
    ++pos;
  }
  return report;
}

MemoryFaultReport inject_exact_flips(tensor::Tensor& t, std::uint64_t count,
                                     util::Rng& rng) {
  MemoryFaultReport report;
  report.words_visited = t.count();
  const std::uint64_t total_bits = static_cast<std::uint64_t>(t.count()) * 32;
  if (total_bits == 0 || count == 0) return report;
  if (count >= total_bits) {
    for (std::uint64_t site = 0; site < total_bits; ++site) {
      flip_site(t, site);
    }
    report.bits_flipped = total_bits;
    return report;
  }

  // Floyd's sampling: `count` distinct sites drawn uniformly from
  // [0, total_bits) without replacement, so duplicates can never un-flip
  // a bit and "exactly N flips" holds even on small tensors. XOR flips
  // commute, so applying the set in draw order is deterministic.
  std::unordered_set<std::uint64_t> sites;
  sites.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t j = total_bits - count; j < total_bits; ++j) {
    const auto draw = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(j)));
    ++report.rng_draws;
    const std::uint64_t site = sites.contains(draw) ? j : draw;
    sites.insert(site);
    flip_site(t, site);
    ++report.bits_flipped;
  }
  return report;
}

std::string memory_outcome_name(MemoryOutcome o) {
  switch (o) {
    case MemoryOutcome::kIntact:
      return "intact";
    case MemoryOutcome::kCorrected:
      return "corrected";
    case MemoryOutcome::kUncorrectable:
      return "uncorrectable";
    case MemoryOutcome::kQualifierCaught:
      return "qualifier_caught";
    case MemoryOutcome::kSilentCorruption:
      return "silent_corruption";
  }
  return "unknown";
}

MemoryCampaignSummary& MemoryCampaignSummary::operator+=(
    const MemoryCampaignSummary& o) noexcept {
  runs += o.runs;
  intact += o.intact;
  corrected += o.corrected;
  uncorrectable += o.uncorrectable;
  qualifier_caught += o.qualifier_caught;
  silent_corruption += o.silent_corruption;
  bits_flipped += o.bits_flipped;
  ecc_corrected_data += o.ecc_corrected_data;
  ecc_corrected_check += o.ecc_corrected_check;
  ecc_uncorrectable_words += o.ecc_uncorrectable_words;
  return *this;
}

void MemoryCampaignSummary::add(MemoryOutcome o) {
  ++runs;
  switch (o) {
    case MemoryOutcome::kIntact:
      ++intact;
      break;
    case MemoryOutcome::kCorrected:
      ++corrected;
      break;
    case MemoryOutcome::kUncorrectable:
      ++uncorrectable;
      break;
    case MemoryOutcome::kQualifierCaught:
      ++qualifier_caught;
      break;
    case MemoryOutcome::kSilentCorruption:
      ++silent_corruption;
      break;
  }
}

double MemoryCampaignSummary::availability() const {
  if (runs == 0) return 0.0;
  return static_cast<double>(intact + corrected) / static_cast<double>(runs);
}

double MemoryCampaignSummary::safety() const {
  if (runs == 0) return 0.0;
  return static_cast<double>(runs - silent_corruption) /
         static_cast<double>(runs);
}

double MemoryCampaignSummary::sdc_rate() const {
  if (runs == 0) return 0.0;
  return static_cast<double>(silent_corruption) / static_cast<double>(runs);
}

}  // namespace hybridcnn::faultsim
