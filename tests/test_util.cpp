// util substrate: deterministic RNG, CSV/table emitters, image IO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/crc32c.hpp"
#include "util/csv.hpp"
#include "util/image_io.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using hybridcnn::util::CsvWriter;
using hybridcnn::util::GrayImage;
using hybridcnn::util::RgbImage;
using hybridcnn::util::Rng;
using hybridcnn::util::Table;
using hybridcnn::util::write_pgm;
using hybridcnn::util::write_ppm;

TEST(Rng, DeterministicForSeed) {
  Rng a(123, 7);
  Rng b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsDiffer) {
  Rng a(123, 0);
  Rng b(123, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(10);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(12);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRateApproximatesP) {
  Rng rng(14);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(15);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  hybridcnn::util::Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(sw.seconds(), 0.0);
  (void)sink;
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = "/tmp/hybridcnn_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "x,y"});
    csv.row({"2", "quo\"te"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"quo\"\"te\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWidthMismatch) {
  CsvWriter csv("/tmp/hybridcnn_test2.csv", {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::runtime_error);
  std::remove("/tmp/hybridcnn_test2.csv");
}

TEST(CsvWriter, RejectsUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

TEST(ResultsPath, CreatesDirectory) {
  const std::string p =
      hybridcnn::util::results_path("/tmp/hybridcnn_results_test", "f.csv");
  EXPECT_EQ(p, "/tmp/hybridcnn_results_test/f.csv");
  EXPECT_TRUE(std::filesystem::exists("/tmp/hybridcnn_results_test"));
  std::filesystem::remove_all("/tmp/hybridcnn_results_test");
}

TEST(Table, RendersAlignedRows) {
  Table t("demo", {"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "2.5"});
  const std::string s = t.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
}

TEST(Table, RejectsWidthMismatch) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.row({"1"}), std::runtime_error);
}

TEST(Table, FixedFormatsPrecision) {
  EXPECT_EQ(Table::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fixed(2.0, 3), "2.000");
}

TEST(ImageIo, PgmRoundTrip) {
  GrayImage img;
  img.width = 5;
  img.height = 3;
  img.pixels = {0,  10,  20,  30,  40,  50,  60, 70,
                80, 90,  100, 150, 200, 250, 255};
  const std::string path = "/tmp/hybridcnn_test.pgm";
  write_pgm(path, img);
  // Exact bytes: the P5 header, then the raw row-major pixels.
  const std::string header = "P5\n5 3\n255\n";
  std::vector<std::uint8_t> expected(header.begin(), header.end());
  expected.insert(expected.end(), img.pixels.begin(), img.pixels.end());
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(hybridcnn::util::read_file(path, bytes));
  EXPECT_EQ(bytes, expected);
  std::remove(path.c_str());
}

TEST(ImageIo, PgmRejectsSizeMismatch) {
  GrayImage img;
  img.width = 4;
  img.height = 4;
  img.pixels.resize(3);  // wrong
  EXPECT_THROW(write_pgm("/tmp/x.pgm", img), std::runtime_error);
}

TEST(ImageIo, PpmWrites) {
  RgbImage img;
  img.width = 2;
  img.height = 2;
  img.pixels.assign(12, 128);
  const std::string path = "/tmp/hybridcnn_test.ppm";
  write_ppm(path, img);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  std::remove(path.c_str());
}

// ------------------------------------------------------------- crc32c

TEST(Crc32c, KnownAnswerVector) {
  // The canonical CRC-32C check value (RFC 3720 appendix B / "check"
  // column of the Castagnoli polynomial): crc32c("123456789").
  const char msg[] = "123456789";
  EXPECT_EQ(hybridcnn::util::crc32c(msg, 9), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(hybridcnn::util::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, IncrementalChainingMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole =
      hybridcnn::util::crc32c(msg.data(), msg.size());
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    const std::uint32_t head = hybridcnn::util::crc32c(msg.data(), split);
    const std::uint32_t chained = hybridcnn::util::crc32c(
        msg.data() + split, msg.size() - split, head);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  std::vector<std::uint8_t> data(32, 0xA5);
  const std::uint32_t clean = hybridcnn::util::crc32c(data.data(),
                                                      data.size());
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(hybridcnn::util::crc32c(data.data(), data.size()), clean)
        << "bit " << bit;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// -------------------------------------------------------- atomic file

TEST(AtomicFile, WriteThenReadRoundTrips) {
  const std::string path = "/tmp/hybridcnn_atomic_test.bin";
  const std::vector<std::uint8_t> payload = {0, 1, 2, 255, 128, 7};
  hybridcnn::util::atomic_write_file(path, payload);
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(hybridcnn::util::read_file(path, back));
  EXPECT_EQ(back, payload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temp file must not survive a successful write";
  std::remove(path.c_str());
}

TEST(AtomicFile, OverwriteReplacesWholeContent) {
  const std::string path = "/tmp/hybridcnn_atomic_test2.bin";
  hybridcnn::util::atomic_write_file(
      path, std::vector<std::uint8_t>(100, 0xAA));
  hybridcnn::util::atomic_write_file(path, std::vector<std::uint8_t>{1, 2});
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(hybridcnn::util::read_file(path, back));
  EXPECT_EQ(back, (std::vector<std::uint8_t>{1, 2}))
      << "no tail of the longer previous file may leak through";
  std::remove(path.c_str());
}

TEST(AtomicFile, EmptyPayloadRoundTrips) {
  const std::string path = "/tmp/hybridcnn_atomic_test3.bin";
  hybridcnn::util::atomic_write_file(path, nullptr, 0);
  std::vector<std::uint8_t> back{9, 9};
  ASSERT_TRUE(hybridcnn::util::read_file(path, back));
  EXPECT_TRUE(back.empty());
  std::remove(path.c_str());
}

TEST(AtomicFile, ReadMissingFileReturnsFalse) {
  std::vector<std::uint8_t> back{1};
  EXPECT_FALSE(hybridcnn::util::read_file(
      "/tmp/definitely_missing_atomic_991.bin", back));
  EXPECT_TRUE(back.empty()) << "a failed read must clear the buffer";
}

TEST(AtomicFile, WriteIntoMissingDirectoryThrows) {
  EXPECT_THROW(hybridcnn::util::atomic_write_file(
                   "/tmp/definitely_missing_dir_991/f.bin",
                   std::vector<std::uint8_t>{1}),
               std::runtime_error);
}

}  // namespace
