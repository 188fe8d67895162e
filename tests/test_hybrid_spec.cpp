// Hybrid partition spec: round-trip, hand-written documents, rejection of
// malformed/unknown content (a spec is a safety artefact).
#include <gtest/gtest.h>

#include <cstdio>

#include "core/hybrid_spec.hpp"

namespace {

using namespace hybridcnn;
using core::HybridConfig;
using core::load_spec;
using core::parse_spec;
using core::QualifierSource;
using core::save_spec;
using core::to_spec;

HybridConfig exotic_config() {
  HybridConfig cfg;
  cfg.scheme = "tmr";
  cfg.policy.bucket_factor = 3;
  cfg.policy.bucket_ceiling = 7;
  cfg.policy.max_retries_per_op = 9;
  cfg.critical_classes = {0, 4, 17};
  cfg.dependable_filter = 5;
  cfg.qualifier.sides = 6;
  cfg.qualifier.samples = 240;
  cfg.qualifier.match.sax.word_length = 24;
  cfg.qualifier.match.sax.alphabet = 6;
  cfg.qualifier.match.mindist_threshold = 2.25;
  cfg.qualifier.match.corner_tolerance = 2;
  cfg.qualifier.source = QualifierSource::kDependableFeatureMap;
  cfg.fault_config.kind = faultsim::FaultKind::kIntermittent;
  cfg.fault_config.probability = 1.5e-5;
  cfg.fault_config.bit = 17;
  cfg.fault_config.num_pes = 64;
  cfg.fault_config.burst_continue = 0.75;
  cfg.fault_seed = 999;
  return cfg;
}

void expect_equal(const HybridConfig& a, const HybridConfig& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.policy.bucket_factor, b.policy.bucket_factor);
  EXPECT_EQ(a.policy.bucket_ceiling, b.policy.bucket_ceiling);
  EXPECT_EQ(a.policy.max_retries_per_op, b.policy.max_retries_per_op);
  EXPECT_EQ(a.critical_classes, b.critical_classes);
  EXPECT_EQ(a.dependable_filter, b.dependable_filter);
  EXPECT_EQ(a.qualifier.sides, b.qualifier.sides);
  EXPECT_EQ(a.qualifier.samples, b.qualifier.samples);
  EXPECT_EQ(a.qualifier.match.sax.word_length,
            b.qualifier.match.sax.word_length);
  EXPECT_EQ(a.qualifier.match.sax.alphabet, b.qualifier.match.sax.alphabet);
  EXPECT_DOUBLE_EQ(a.qualifier.match.mindist_threshold,
                   b.qualifier.match.mindist_threshold);
  EXPECT_EQ(a.qualifier.match.corner_tolerance,
            b.qualifier.match.corner_tolerance);
  EXPECT_EQ(a.qualifier.source, b.qualifier.source);
  EXPECT_EQ(a.fault_config.kind, b.fault_config.kind);
  EXPECT_DOUBLE_EQ(a.fault_config.probability, b.fault_config.probability);
  EXPECT_EQ(a.fault_config.bit, b.fault_config.bit);
  EXPECT_EQ(a.fault_config.num_pes, b.fault_config.num_pes);
  EXPECT_DOUBLE_EQ(a.fault_config.burst_continue,
                   b.fault_config.burst_continue);
  EXPECT_EQ(a.fault_seed, b.fault_seed);
}

TEST(HybridSpec, DefaultRoundTrips) {
  const HybridConfig original;
  expect_equal(parse_spec(to_spec(original)), original);
}

TEST(HybridSpec, ExoticRoundTrips) {
  const HybridConfig original = exotic_config();
  expect_equal(parse_spec(to_spec(original)), original);
}

TEST(HybridSpec, FileRoundTrips) {
  const std::string path = "/tmp/hybridcnn_spec_test.txt";
  const HybridConfig original = exotic_config();
  save_spec(original, path);
  expect_equal(load_spec(path), original);
  std::remove(path.c_str());
}

TEST(HybridSpec, HandWrittenDocument) {
  const HybridConfig cfg = parse_spec(
      "# a comment\n"
      "scheme = dmr\n"
      "bucket_factor = 2   # trailing comment\n"
      "critical_classes = 0 1\n"
      "\n"
      "qualifier_source = full_resolution\n");
  EXPECT_EQ(cfg.scheme, "dmr");
  EXPECT_EQ(cfg.policy.bucket_factor, 2u);
  EXPECT_TRUE(cfg.critical_classes.contains(0));
  EXPECT_TRUE(cfg.critical_classes.contains(1));
  EXPECT_EQ(cfg.qualifier.source, QualifierSource::kFullResolution);
}

TEST(HybridSpec, MissingKeysKeepDefaults) {
  const HybridConfig defaults;
  const HybridConfig cfg = parse_spec("scheme = tmr\n");
  EXPECT_EQ(cfg.scheme, "tmr");
  EXPECT_EQ(cfg.policy.bucket_ceiling, defaults.policy.bucket_ceiling);
  EXPECT_EQ(cfg.qualifier.sides, defaults.qualifier.sides);
}

TEST(HybridSpec, RejectsUnknownKey) {
  EXPECT_THROW(parse_spec("buckte_factor = 2\n"), std::invalid_argument);
}

TEST(HybridSpec, RejectsUnknownScheme) {
  EXPECT_THROW(parse_spec("scheme = quintuple\n"), std::invalid_argument);
}

TEST(HybridSpec, RejectsMalformedLine) {
  EXPECT_THROW(parse_spec("scheme dmr\n"), std::invalid_argument);
}

TEST(HybridSpec, RejectsBadNumbers) {
  EXPECT_THROW(parse_spec("bucket_factor = two\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("fault_probability = often\n"),
               std::invalid_argument);
}

TEST(HybridSpec, RejectsTrailingCharacters) {
  EXPECT_THROW(parse_spec("bucket_factor = 5abc\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("dependable_filter = 2 7\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fault_probability = 1.5x\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("critical_classes = 0 stop\n"),
               std::invalid_argument);
  // Whitespace and comments after the value stay legal.
  EXPECT_EQ(parse_spec("bucket_factor = 5 \t # five\n").policy.bucket_factor,
            5u);
}

TEST(HybridSpec, RejectsNegativeUnsignedValues) {
  EXPECT_THROW(parse_spec("bucket_ceiling = -1\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("qualifier_samples = -3\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fault_seed = -1\n"), std::invalid_argument);
  // Signed fields still take negatives: -1 is the "random bit" default.
  EXPECT_EQ(parse_spec("fault_bit = -1\n").fault_config.bit, -1);
}

TEST(HybridSpec, RejectsProbabilitiesOutsideUnitInterval) {
  EXPECT_THROW(parse_spec("fault_probability = 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fault_probability = -0.1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("fault_burst_continue = 2\n"),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(
      parse_spec("fault_probability = 1\n").fault_config.probability, 1.0);
  EXPECT_DOUBLE_EQ(
      parse_spec("fault_burst_continue = 0\n").fault_config.burst_continue,
      0.0);
}

TEST(HybridSpec, RejectsUnknownEnumValues) {
  EXPECT_THROW(parse_spec("fault_kind = cosmic\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("qualifier_source = psychic\n"),
               std::invalid_argument);
}

TEST(HybridSpec, LoadSpecMissingFileThrows) {
  EXPECT_THROW(load_spec("/tmp/definitely_missing_spec_881.txt"),
               std::runtime_error);
}

TEST(HybridSpec, QualifierPolicyFollowsKernelPolicy) {
  const HybridConfig cfg =
      parse_spec("bucket_factor = 5\nbucket_ceiling = 9\n");
  EXPECT_EQ(cfg.qualifier.policy.bucket_factor, 5u);
  EXPECT_EQ(cfg.qualifier.policy.bucket_ceiling, 9u);
}

}  // namespace
