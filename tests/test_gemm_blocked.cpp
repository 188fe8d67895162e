// Blocked GEMM equivalence against the naive reference kernels over
// randomized shapes, accumulate semantics, thread-count invariance, the
// row (m-)invariance of A * B^T, and the NaN-propagation guarantee (no
// zero-operand skipping, no NaN from the zero-padded k tail).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/gemm_ref.hpp"
#include "runtime/compute_context.hpp"
#include "runtime/isa.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::runtime::ComputeContext;
using hybridcnn::runtime::isa::kFloatLanes;
using hybridcnn::util::Rng;
namespace nn = hybridcnn::nn;

struct Shape3 {
  std::size_t m, k, n;
};

// Mix of tiny (reference fast path), ragged (every micro-tile edge case),
// and large (blocked path, multiple K panels) problems.
const Shape3 kShapes[] = {
    {1, 1, 1},    {1, 7, 1},     {3, 2, 5},     {6, 16, 16},
    {7, 33, 17},  {8, 300, 40},  {13, 64, 129}, {61, 70, 83},
    {64, 64, 64}, {96, 147, 250}, {50, 600, 31}, {97, 301, 203},
};

std::vector<float> random_matrix(Rng& rng, std::size_t count,
                                 std::size_t k) {
  std::vector<float> v(count);
  // Scaled so k-term dot products stay O(1) and tolerances are uniform.
  const float s = 1.0f / std::sqrt(static_cast<float>(k));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0)) * s;
  return v;
}

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  float md = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    md = std::max(md, std::fabs(a[i] - b[i]));
  }
  return md;
}

constexpr float kTol = 2e-4f;  // accumulation-order slack

class GemmBlocked : public ::testing::Test {
 protected:
  void SetUp() override { ComputeContext::set_global_threads(4); }
  void TearDown() override { ComputeContext::set_global_threads(1); }
};

TEST_F(GemmBlocked, MatchesReferenceOverRandomShapes) {
  Rng rng(7);
  for (const auto& s : kShapes) {
    const auto a = random_matrix(rng, s.m * s.k, s.k);
    const auto b = random_matrix(rng, s.k * s.n, s.k);
    std::vector<float> got(s.m * s.n, -1.0f);
    std::vector<float> want(s.m * s.n, -1.0f);
    nn::gemm(s.m, s.k, s.n, a.data(), b.data(), got.data());
    nn::ref::gemm(s.m, s.k, s.n, a.data(), b.data(), want.data());
    EXPECT_LT(max_abs_diff(got, want), kTol)
        << "gemm " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(GemmBlocked, AccumulateAddsOntoExistingC) {
  Rng rng(8);
  for (const auto& s : kShapes) {
    const auto a = random_matrix(rng, s.m * s.k, s.k);
    const auto b = random_matrix(rng, s.k * s.n, s.k);
    auto got = random_matrix(rng, s.m * s.n, 1);
    auto want = got;
    nn::gemm_acc(s.m, s.k, s.n, a.data(), b.data(), got.data());
    nn::ref::gemm_acc(s.m, s.k, s.n, a.data(), b.data(), want.data());
    EXPECT_LT(max_abs_diff(got, want), kTol)
        << "gemm_acc " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(GemmBlocked, TransposedAMatchesReference) {
  Rng rng(9);
  for (const auto& s : kShapes) {
    const auto a = random_matrix(rng, s.k * s.m, s.k);  // stored [k x m]
    const auto b = random_matrix(rng, s.k * s.n, s.k);
    auto got = random_matrix(rng, s.m * s.n, 1);
    auto want = got;
    nn::gemm_at_b(s.m, s.k, s.n, a.data(), b.data(), got.data());
    nn::ref::gemm_at_b(s.m, s.k, s.n, a.data(), b.data(), want.data());
    EXPECT_LT(max_abs_diff(got, want), kTol)
        << "gemm_at_b " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(GemmBlocked, TransposedBMatchesReference) {
  Rng rng(10);
  for (const auto& s : kShapes) {
    const auto a = random_matrix(rng, s.m * s.k, s.k);
    const auto b = random_matrix(rng, s.n * s.k, s.k);  // stored [n x k]
    auto got = random_matrix(rng, s.m * s.n, 1);
    auto want = got;
    nn::gemm_a_bt(s.m, s.k, s.n, a.data(), b.data(), got.data());
    nn::ref::gemm_a_bt(s.m, s.k, s.n, a.data(), b.data(), want.data());
    EXPECT_LT(max_abs_diff(got, want), kTol)
        << "gemm_a_bt " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(GemmBlocked, AssignVariantEqualsMemsetPlusAccumulate) {
  Rng rng(11);
  for (const auto& s : kShapes) {
    const auto a = random_matrix(rng, s.k * s.m, s.k);
    const auto b = random_matrix(rng, s.k * s.n, s.k);
    std::vector<float> got(s.m * s.n, 123.0f);  // stale values overwritten
    std::vector<float> want(s.m * s.n, 0.0f);
    nn::gemm_at_b_assign(s.m, s.k, s.n, a.data(), b.data(), got.data());
    nn::ref::gemm_at_b(s.m, s.k, s.n, a.data(), b.data(), want.data());
    EXPECT_LT(max_abs_diff(got, want), kTol)
        << "gemm_at_b_assign " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(GemmBlocked, BitIdenticalAcrossThreadCounts) {
  Rng rng(12);
  // gemm: blocked path, ragged tiles, 3 K panels. gemm_a_bt: an fc-like
  // ragged shape split into several column blocks, with a k tail.
  const Shape3 s{97, 513, 203};
  const Shape3 t{3, 1000, 517};
  const auto a = random_matrix(rng, s.m * s.k, s.k);
  const auto b = random_matrix(rng, s.k * s.n, s.k);
  const auto ta = random_matrix(rng, t.m * t.k, t.k);
  const auto tb = random_matrix(rng, t.n * t.k, t.k);  // stored [n x k]
  const auto tc = random_matrix(rng, t.m * t.n, 1);
  std::vector<std::vector<float>> results;
  std::vector<std::vector<float>> a_bt_results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ComputeContext::set_global_threads(threads);
    std::vector<float> c(s.m * s.n);
    nn::gemm(s.m, s.k, s.n, a.data(), b.data(), c.data());
    results.push_back(std::move(c));
    auto c_bt = tc;
    nn::gemm_a_bt(t.m, t.k, t.n, ta.data(), tb.data(), c_bt.data());
    a_bt_results.push_back(std::move(c_bt));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[i].data(),
                             results[0].size() * sizeof(float)))
        << "thread-count variant " << i << " diverged";
    EXPECT_EQ(0, std::memcmp(a_bt_results[0].data(), a_bt_results[i].data(),
                             a_bt_results[0].size() * sizeof(float)))
        << "gemm_a_bt thread-count variant " << i << " diverged";
  }
}

TEST_F(GemmBlocked, TransposedBRowsMatchSingleRowProducts) {
  // Row i of an m-row A * B^T product must be bit-identical to the m = 1
  // product of row i alone, whatever the tile that row lands in and the
  // thread count: a batched FC forward relies on it.
  constexpr std::size_t kMaxSmallK = 3 * kFloatLanes + 5;
  Rng rng(13);
  for (std::size_t shape = 0; shape < 240; ++shape) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 13));
    const std::size_t k =
        shape % 8 == 0   ? 729
        : shape % 8 == 4 ? 4096
                         : static_cast<std::size_t>(
                               rng.uniform_int(1, kMaxSmallK));
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 15));
    const auto a = random_matrix(rng, m * k, k);
    const auto b = random_matrix(rng, n * k, k);  // stored [n x k]
    const auto c0 = random_matrix(rng, m * n, 1);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ComputeContext::set_global_threads(threads);
      auto batched = c0;
      nn::gemm_a_bt(m, k, n, a.data(), b.data(), batched.data());
      for (std::size_t i = 0; i < m; ++i) {
        std::vector<float> row(c0.begin() + i * n, c0.begin() + (i + 1) * n);
        nn::gemm_a_bt(1, k, n, a.data() + i * k, b.data(), row.data());
        ASSERT_EQ(0, std::memcmp(row.data(), batched.data() + i * n,
                                 n * sizeof(float)))
            << "row " << i << " of " << m << "x" << k << "x" << n << " at "
            << threads << " threads";
      }
    }
  }
}

TEST_F(GemmBlocked, ZeroOperandsDoNotSuppressNanPropagation) {
  // A zero row in A times a NaN column in B must produce NaN (0 * NaN),
  // in both the reference fast path and the blocked path.
  for (const std::size_t dim : {8u, 96u}) {
    const std::size_t m = dim, k = dim, n = dim;
    std::vector<float> a(m * k, 0.0f);  // all-zero A
    std::vector<float> b(k * n, 1.0f);
    b[0 * n + 3] = std::nanf("");  // B(0, 3) = NaN
    std::vector<float> c(m * n, -7.0f);
    nn::gemm(m, k, n, a.data(), b.data(), c.data());
    EXPECT_TRUE(std::isnan(c[0 * n + 3])) << "dim " << dim;
    EXPECT_TRUE(std::isnan(c[(m - 1) * n + 3])) << "dim " << dim;
    EXPECT_EQ(c[0], 0.0f) << "dim " << dim;
  }
  // gemm_a_bt reads B [n x k] in place and zero-pads the last k % lanes
  // floats of each row: the padding must neither hide a NaN or 0 * Inf
  // in the real tail nor invent one. Inline (small) and pool paths; the
  // odd m and n put the last row and column in leftover tiles.
  for (const std::size_t dim : {8u, 96u}) {
    const std::size_t m = dim + 1, k = dim + 3, n = dim + 1;
    ASSERT_NE(k % kFloatLanes, 0u);
    const std::vector<float> a(m * k, 0.0f);  // all-zero A
    std::vector<float> b(n * k, 1.0f);
    b[(n - 1) * k + (k - 1)] = std::nanf("");  // last B row, in the tail
    b[(n - 2) * k + (k - 2)] =  // 0 * Inf in the tail
        std::numeric_limits<float>::infinity();
    std::vector<float> c(m * n, 0.0f);
    nn::gemm_a_bt(m, k, n, a.data(), b.data(), c.data());
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(std::isnan(c[i * n + n - 1])) << "dim " << dim << " i " << i;
      EXPECT_TRUE(std::isnan(c[i * n + n - 2])) << "dim " << dim << " i " << i;
      EXPECT_EQ(c[i * n], 0.0f) << "dim " << dim << " i " << i;
    }

    Rng rng(14);
    const auto fa = random_matrix(rng, m * k, k);
    const auto fb = random_matrix(rng, n * k, k);
    std::vector<float> fc(m * n, 0.0f);
    nn::gemm_a_bt(m, k, n, fa.data(), fb.data(), fc.data());
    for (const float x : fc) EXPECT_TRUE(std::isfinite(x)) << "dim " << dim;
  }
}

}  // namespace
