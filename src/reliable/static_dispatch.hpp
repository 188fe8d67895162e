// Statically dispatched qualified kernels.
//
// The generic reliable kernels (ReliableConv2d::forward_generic, ...) pay
// two virtual Executor calls, a generic retry lambda, and per-tap padding
// branches per scalar MAC — C++ dispatch overhead the paper's Table-1
// numbers should not include. This header provides the devirtualized
// machinery the public forward() entry points select once per call:
//
//   * valid_taps/tap_ranges — per-output-coordinate valid kernel-tap
//     intervals, hoisting the iy/ix boundary branches out of the inner
//     loop. The set and order of executed taps is exactly that of the
//     generic loop's `continue` filtering.
//   * QualifiedOpRunner — Algorithm 3's per-operation retry machinery
//     split into an always-inline success fast path and a cold noinline
//     slow path (rollback / retry / leaky-bucket escalation). Counter
//     updates replicate the generic retry loop step for step.
//   * conv_forward_qualified / linear_forward_qualified /
//     conv_unqualified_inline — inner kernels templated over the concrete
//     executor type (Simplex/Dmr/Tmr are final), so mul/add fold into the
//     loop with no virtual calls or per-op lambdas surviving to codegen.
//   * conv_raw_compute / linear_raw_compute — the fault-free fast path:
//     raw arithmetic in the identical operation order, used when the
//     executor is guaranteed_fault_free(); callers then credit the
//     elided bookkeeping in closed form (credit_fault_free_ops). The
//     conv path runs channel lanes (conv_channel_pixels): kFloatLanes
//     output channels per vector (runtime/isa.hpp) over a [ky][kx][c][o]
//     WeightPack the owning layer builds once at construction, so every
//     tap is one contiguous weight vector load times a scalar input
//     broadcast. It vectorizes across *independent outputs* — never the
//     (c, ky, kx) reduction — so bit-identity with the scalar loop
//     (conv_scalar_channel, the body of reference_forward) holds by
//     construction. All lanes of a vector share (oy, ox) and therefore
//     the tap ranges, so borders run through the same kernel — no
//     interior/border split; the padded channel tail scatters only its
//     valid lanes. The dense path applies the same idea across output
//     neurons. The conv fast path additionally fans its disjoint
//     (channel-block group, row) units across the global
//     runtime::ThreadPool; the elided bookkeeping is credited in closed
//     form after the join, so outputs and statistics are bit-identical
//     at every thread count.
//
// Bit-identity contract: for every (input, executor, injector-seed), a
// specialized kernel must produce the same output bits, the same
// ExecutionReport fields, the same ExecutorStats/InjectorStats, and the
// same injector cursor as the generic path. tests/test_static_dispatch.cpp
// and tests/test_simd_dispatch.cpp enforce this across schemes, fault
// kinds and geometries.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "reliable/checkpoint.hpp"
#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "util/contracts.hpp"
#include "reliable/reliable_conv.hpp"
#include "reliable/report.hpp"
#include "runtime/compute_context.hpp"
#include "runtime/isa.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::reliable::detail {

// These three are kept only for perfbench's host block; remove them in
// the next benchmark change.
[[nodiscard]] constexpr bool reliable_simd_enabled() noexcept { return true; }

enum class ConvKernel : std::uint8_t { kAuto, kPixel, kChannel };

[[nodiscard]] constexpr ConvKernel reliable_kernel_choice() noexcept {
  return ConvKernel::kAuto;
}

/// Half-open interval of kernel-tap indices that land in-bounds.
struct TapRange {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive; begin == end when no tap is valid
  [[nodiscard]] std::size_t count() const noexcept { return end - begin; }
};

/// Valid taps for output coordinate `o`: the k in [0, k_size) with
/// 0 <= o*stride + k - pad < n. The interval is contiguous, so the
/// per-tap boundary test of the generic loop reduces to two bounds.
inline TapRange valid_taps(std::size_t o, std::size_t stride,
                           std::size_t pad, std::size_t k_size,
                           std::size_t n) noexcept {
  const auto base =
      static_cast<std::int64_t>(o * stride) - static_cast<std::int64_t>(pad);
  std::int64_t lo = base < 0 ? -base : 0;
  std::int64_t hi = static_cast<std::int64_t>(n) - base;
  if (hi > static_cast<std::int64_t>(k_size)) {
    hi = static_cast<std::int64_t>(k_size);
  }
  if (hi < lo) hi = lo;
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

/// Valid-tap intervals for every output coordinate along one axis.
inline std::vector<TapRange> tap_ranges(std::size_t out_n, std::size_t stride,
                                        std::size_t pad, std::size_t k_size,
                                        std::size_t in_n) {
  std::vector<TapRange> ranges(out_n);
  for (std::size_t o = 0; o < out_n; ++o) {
    ranges[o] = valid_taps(o, stride, pad, k_size, in_n);
  }
  return ranges;
}

/// Sum of valid-tap counts along one axis — the closed-form per-row
/// arithmetic mac_count() builds on (O(out_n) instead of out_n * k_size).
inline std::uint64_t total_valid_taps(std::size_t out_n, std::size_t stride,
                                      std::size_t pad, std::size_t k_size,
                                      std::size_t in_n) noexcept {
  std::uint64_t total = 0;
  for (std::size_t o = 0; o < out_n; ++o) {
    total += valid_taps(o, stride, pad, k_size, in_n).count();
  }
  return total;
}

/// Invokes `fn` with `exec` downcast to its concrete scheme type, so the
/// callee instantiates against the final class and the compiler inlines
/// mul_inline/add_inline. The single place that maps Scheme to a type —
/// every forward() dispatch site routes through here. Precondition:
/// scheme != Scheme::kCustom (the public entry points filter custom
/// executors onto the generic path first).
template <typename Fn>
void with_concrete_executor(Scheme scheme, Executor& exec, Fn&& fn) {
  switch (scheme) {
    case Scheme::kSimplex:
      fn(static_cast<SimplexExecutor&>(exec));
      return;
    case Scheme::kDmr:
      fn(static_cast<DmrExecutor&>(exec));
      return;
    case Scheme::kTmr:
      fn(static_cast<TmrExecutor&>(exec));
      return;
    case Scheme::kCustom:
      break;
  }
  assert(false && "with_concrete_executor: custom scheme has no concrete type");
}

/// Algorithm 3's per-operation envelope, split so the fault-free common
/// case stays on a straight-line inlined path. run() evaluates the op
/// once; qualified success commits and returns immediately. The first
/// failure drops to the cold slow path, which replicates the generic
/// retry loop exactly: rollback, leaky-bucket escalation, per-op retry
/// cap, re-execution.
template <typename Exec>
struct QualifiedOpRunner {
  Exec& exec;
  ExecutionReport& report;
  LeakyBucket& bucket;
  std::uint32_t max_retries_per_op;

  template <typename Op>
  HYBRIDCNN_RELIABLE_ALWAYS_INLINE std::optional<float> run(
      Op op, ScalarCheckpoint& cp) {
    ++report.logical_ops;
    const Qualified<float> q = op(exec);
    if (q.ok) [[likely]] {
      bucket.record_success();
      cp.commit(q.value);
      ++report.commits;
      return q.value;
    }
    return run_slow(op, cp);
  }

  /// Cold path; returns std::nullopt when the error is persistent (bucket
  /// ceiling or retry cap), mirroring the generic run_qualified loop from
  /// its first detected error onwards.
  template <typename Op>
  HYBRIDCNN_RELIABLE_NOINLINE std::optional<float> run_slow(
      Op op, ScalarCheckpoint& cp) {
    for (std::uint32_t attempt = 0;; ++attempt) {
      ++report.detected_errors;
      (void)cp.rollback();  // discard the unqualified value
      ++report.rollbacks;
      if (bucket.record_error()) {
        return std::nullopt;  // persistent: ceiling reached
      }
      if (attempt + 1 >= max_retries_per_op) {
        return std::nullopt;  // persistent: retry cap
      }
      ++report.retries;  // rollback distance: exactly one operation
      const Qualified<float> q = op(exec);
      if (q.ok) {
        bucket.record_success();
        ++report.corrected_errors;  // recovered on a retry
        cp.commit(q.value);
        ++report.commits;
        return q.value;
      }
    }
  }
};

/// Flat dimensions of a CHW-in / OIHW-weights convolution, plus the
/// hoisted valid-tap intervals.
struct ConvPlan {
  std::size_t out_c = 0, out_h = 0, out_w = 0;
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t kh = 0, kw = 0;
  std::size_t stride = 0, pad = 0;
  std::vector<TapRange> row_taps;  ///< valid ky per oy
  std::vector<TapRange> col_taps;  ///< valid kx per ox

  ConvPlan(const tensor::Shape& out_shape, const tensor::Shape& in_shape,
           const tensor::Shape& w_shape, std::size_t stride_,
           std::size_t pad_)
      : out_c(out_shape[0]), out_h(out_shape[1]), out_w(out_shape[2]),
        in_c(in_shape[0]), in_h(in_shape[1]), in_w(in_shape[2]),
        kh(w_shape[2]), kw(w_shape[3]), stride(stride_), pad(pad_),
        row_taps(tap_ranges(out_h, stride, pad, kh, in_h)),
        col_taps(tap_ranges(out_w, stride, pad, kw, in_w)) {}

  /// Logical MACs of one forward: separable closed form.
  [[nodiscard]] std::uint64_t macs() const noexcept {
    std::uint64_t row_total = 0;
    for (const TapRange& r : row_taps) row_total += r.count();
    std::uint64_t col_total = 0;
    for (const TapRange& r : col_taps) col_total += r.count();
    return static_cast<std::uint64_t>(out_c) * in_c * row_total * col_total;
  }
};

/// Output-channel extent rounded up to the vector width, the lane
/// padding the channel-lane pack uses.
inline constexpr std::size_t channel_pack_width(std::size_t oc) noexcept {
  constexpr std::size_t lanes = runtime::isa::kFloatLanes;
  return (oc + lanes - 1) / lanes * lanes;
}

// Pack-padding contracts: the channel-lane kernel loads whole vectors at
// block offsets o0 = k * kFloatLanes and relies on the padded extent
// being the *tightest* lane multiple — looser padding would add a
// phantom all-zero block the block-unit slicing fans out as real work.
HYBRIDCNN_CONTRACT(util::contracts::is_padded_to(
                       channel_pack_width(1), 1, channel_pack_width(1)) &&
                       channel_pack_width(1) == runtime::isa::kFloatLanes,
                   "one output channel pads to exactly one vector block");
HYBRIDCNN_CONTRACT(channel_pack_width(runtime::isa::kFloatLanes) ==
                       runtime::isa::kFloatLanes,
                   "a full block must not grow a padding block");
HYBRIDCNN_CONTRACT(channel_pack_width(96) % runtime::isa::kFloatLanes == 0 &&
                       channel_pack_width(96) - 96 <
                           runtime::isa::kFloatLanes,
                   "padding is the tightest lane multiple (AlexNet conv1's "
                   "96 maps are the load-bearing case)");

/// Channel-lane weight layout for the fault-free fast path: the OIHW
/// weights repacked into [ky][kx][c][o] panels with the output-channel
/// axis padded to the vector width, so every (c, ky, kx) tap of a
/// channel block is one contiguous vector load. Padding lanes carry zero
/// weights/bias and are never stored back, so they cannot perturb
/// outputs. The pack is input-shape independent — one pack serves every
/// forward geometry — and the owning ReliableConv2d builds it once in its
/// constructor; the layer is immutable, so the pack never goes stale.
struct WeightPack {
  std::vector<float> weights;  ///< [(ky*kw + kx)*in_c + c][padded_oc]
  std::vector<float> bias;     ///< [padded_oc], zero beyond oc
  std::size_t oc = 0;
  std::size_t padded_oc = 0;
  std::size_t in_c = 0;
  std::size_t kh = 0;
  std::size_t kw = 0;
};

inline WeightPack build_weight_pack(std::size_t oc, std::size_t in_c,
                                    std::size_t kh, std::size_t kw,
                                    const float* weights, const float* bias) {
  WeightPack pack;
  pack.oc = oc;
  pack.padded_oc = channel_pack_width(oc);
  pack.in_c = in_c;
  pack.kh = kh;
  pack.kw = kw;
  pack.weights.assign(kh * kw * in_c * pack.padded_oc, 0.0f);
  pack.bias.assign(pack.padded_oc, 0.0f);
  for (std::size_t o = 0; o < oc; ++o) {
    pack.bias[o] = bias[o];
    for (std::size_t c = 0; c < in_c; ++c) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          pack.weights[((ky * kw + kx) * in_c + c) * pack.padded_oc + o] =
              weights[((o * in_c + c) * kh + ky) * kw + kx];
        }
      }
    }
  }
  return pack;
}

/// Qualified convolution inner kernel over a concrete executor type.
/// Loop nest order (o, oy, ox, c, ky, kx), committed outputs, op_index
/// accounting and abort semantics are exactly those of the generic path.
template <typename Exec>
void conv_forward_qualified(const ConvPlan& plan, const float* input,
                            const float* weights, const float* bias,
                            const ReliabilityPolicy& policy, Exec& exec,
                            ReliableResult& result) {
  ExecutionReport& report = result.report;
  LeakyBucket bucket(policy.bucket_factor, policy.bucket_ceiling);
  QualifiedOpRunner<Exec> runner{exec, report, bucket,
                                 policy.max_retries_per_op};
  float* out = result.output.data().data();

  std::int64_t op_index = 0;
  const auto abort_with = [&](std::int64_t failed_at) {
    report.ok = false;
    report.failed_op_index = failed_at;
    report.bucket_peak = bucket.peak();
    report.bucket_exhausted = bucket.exhausted();
  };

  for (std::size_t o = 0; o < plan.out_c; ++o) {
    const float b = bias[o];
    for (std::size_t oy = 0; oy < plan.out_h; ++oy) {
      const TapRange ry = plan.row_taps[oy];
      for (std::size_t ox = 0; ox < plan.out_w; ++ox) {
        const TapRange rx = plan.col_taps[ox];
        // The accumulator starts from the bias, loaded from (assumed
        // ECC-protected) parameter memory; all arithmetic on it is
        // qualified.
        ScalarCheckpoint acc(b);
        bool aborted = false;
        for (std::size_t c = 0; c < plan.in_c && !aborted; ++c) {
          for (std::size_t ky = ry.begin; ky < ry.end && !aborted; ++ky) {
            // iy/ix are non-negative by construction of the tap ranges:
            // ky >= pad - oy*stride, so the unsigned arithmetic is safe.
            const std::size_t iy = oy * plan.stride + ky - plan.pad;
            const std::size_t in_base = (c * plan.in_h + iy) * plan.in_w;
            const float* w_row =
                weights + ((o * plan.in_c + c) * plan.kh + ky) * plan.kw;
            for (std::size_t kx = rx.begin; kx < rx.end; ++kx) {
              const std::size_t ix = ox * plan.stride + kx - plan.pad;
              const float x = input[in_base + ix];
              const float w = w_row[kx];

              // Qualified multiply, checkpointed into a product cell.
              ScalarCheckpoint prod(0.0f);
              const auto p = runner.run(
                  [x, w](Exec& e) { return e.mul_inline(x, w); }, prod);
              ++op_index;
              if (!p) {
                abort_with(op_index - 1);
                aborted = true;
                break;
              }

              // Qualified accumulate onto the committed accumulator.
              const float before = acc.value();
              const float pv = *p;
              const auto s = runner.run(
                  [before, pv](Exec& e) { return e.add_inline(before, pv); },
                  acc);
              ++op_index;
              if (!s) {
                abort_with(op_index - 1);
                aborted = true;
                break;
              }
            }
          }
        }
        out[(o * plan.out_h + oy) * plan.out_w + ox] = acc.value();
        if (aborted) {
          // Error propagation stops here: committed prefix is returned,
          // the failure is reported, nothing downstream consumes
          // unqualified values.
          return;
        }
      }
    }
  }

  report.bucket_peak = bucket.peak();
  report.bucket_exhausted = bucket.exhausted();
}

/// Every fault-free output pixel of one output channel, scalar form —
/// the per-pixel reduction every path (SIMD lane, generic oracle) must
/// reproduce bit for bit, and the per-channel unit of
/// ReliableConv2d::reference_forward's pooled fan-out.
inline void conv_scalar_channel(const ConvPlan& plan, const float* input,
                                const float* weights, float b, std::size_t o,
                                float* out) noexcept {
  for (std::size_t oy = 0; oy < plan.out_h; ++oy) {
    const TapRange ry = plan.row_taps[oy];
    float* out_row = out + (o * plan.out_h + oy) * plan.out_w;
    for (std::size_t ox = 0; ox < plan.out_w; ++ox) {
      const TapRange rx = plan.col_taps[ox];
      float acc = b;
      for (std::size_t c = 0; c < plan.in_c; ++c) {
        for (std::size_t ky = ry.begin; ky < ry.end; ++ky) {
          const std::size_t iy = oy * plan.stride + ky - plan.pad;
          const std::size_t in_base = (c * plan.in_h + iy) * plan.in_w;
          const float* w_row =
              weights + ((o * plan.in_c + c) * plan.kh + ky) * plan.kw;
          for (std::size_t kx = rx.begin; kx < rx.end; ++kx) {
            const std::size_t ix = ox * plan.stride + kx - plan.pad;
            acc = acc + input[in_base + ix] * w_row[kx];
          }
        }
      }
      out_row[ox] = acc;
    }
  }
}

/// Channel blocks (of kFloatLanes output channels each) processed
/// together per output-pixel pass. Each block keeps its own accumulator
/// chain (its own scalar-order chain — bit-identity is per lane), but the
/// chains are independent, so grouping amortizes the input broadcast
/// while hiding vector-add latency.
inline constexpr std::size_t kChannelBlockUnroll = 4;

/// B channel blocks x P output pixels of the channel-lane kernel: lane l
/// of block b accumulates output channel o0 + b*lanes + l at pixel
/// (oy, ox0 + p). The reduction per lane runs the scalar (c, ky, kx)
/// order — one contiguous weight-vector load per (tap, block), one input
/// broadcast per (tap, pixel), lane-wise mul then add with
/// -ffp-contract=off — so every lane is bit-identical to the scalar
/// pixel. All lanes share (oy, ox), hence the tap ranges: border pixels
/// go through this same kernel with narrower ranges instead of a
/// separate scalar path. Caller guarantees all P pixels share `rx` and
/// that padded blocks beyond pack.oc are excluded; the partial tail
/// block scatters only its valid lanes (padding lanes compute on zero
/// weights and are discarded).
template <std::size_t B, std::size_t P>
HYBRIDCNN_RELIABLE_ALWAYS_INLINE void conv_channel_pixels(
    const ConvPlan& plan, const WeightPack& pack, const float* input,
    std::size_t o0, std::size_t oy, std::size_t ox0, const TapRange ry,
    const TapRange rx, float* out) noexcept {
  namespace isa = runtime::isa;
  static_assert(B >= 1 && B <= kChannelBlockUnroll);
  static_assert(P >= 1 && P <= 2);
  isa::VecF acc[B * P];
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t b = 0; b < B; ++b) {
      acc[p * B + b] =
          isa::loadu(pack.bias.data() + o0 + b * isa::kFloatLanes);
    }
  }
  for (std::size_t c = 0; c < plan.in_c; ++c) {
    for (std::size_t ky = ry.begin; ky < ry.end; ++ky) {
      const std::size_t iy = oy * plan.stride + ky - plan.pad;
      const float* in_row = input + (c * plan.in_h + iy) * plan.in_w;
      for (std::size_t kx = rx.begin; kx < rx.end; ++kx) {
        const float* w =
            pack.weights.data() +
            ((ky * plan.kw + kx) * plan.in_c + c) * pack.padded_oc + o0;
        isa::VecF wv[B];
        for (std::size_t b = 0; b < B; ++b) {
          wv[b] = isa::loadu(w + b * isa::kFloatLanes);
        }
        for (std::size_t p = 0; p < P; ++p) {
          const std::size_t ix = (ox0 + p) * plan.stride + kx - plan.pad;
          const isa::VecF xv = isa::splat(in_row[ix]);
          for (std::size_t b = 0; b < B; ++b) {
            acc[p * B + b] = acc[p * B + b] + xv * wv[b];
          }
        }
      }
    }
  }
  // Lane l of block b is output channel o0 + b*lanes + l: scatter into
  // the [o][oy][ox] layout, skipping the zero-padded tail lanes.
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t b = 0; b < B; ++b) {
      const std::size_t ob = o0 + b * isa::kFloatLanes;
      const std::size_t valid = std::min(isa::kFloatLanes, pack.oc - ob);
      for (std::size_t l = 0; l < valid; ++l) {
        out[((ob + l) * plan.out_h + oy) * plan.out_w + ox0 + p] =
            acc[p * B + b][l];
      }
    }
  }
}

/// One output row for one group of B channel blocks — the unit the
/// pooled channel-lane fan-out distributes. Adjacent output columns
/// sharing one tap range pair up so each weight-vector load is amortized
/// over two input broadcasts. Any (stride, pad, kw) geometry takes this
/// one code path — border columns simply carry narrower tap ranges.
template <std::size_t B>
inline void conv_channel_group_row(const ConvPlan& plan,
                                   const WeightPack& pack, const float* input,
                                   std::size_t o0, std::size_t oy,
                                   float* out) noexcept {
  const TapRange ry = plan.row_taps[oy];
  std::size_t ox = 0;
  while (ox < plan.out_w) {
    const TapRange rx = plan.col_taps[ox];
    if (ox + 1 < plan.out_w && plan.col_taps[ox + 1].begin == rx.begin &&
        plan.col_taps[ox + 1].end == rx.end) {
      conv_channel_pixels<B, 2>(plan, pack, input, o0, oy, ox, ry, rx, out);
      ox += 2;
    } else {
      conv_channel_pixels<B, 1>(plan, pack, input, o0, oy, ox, ry, rx, out);
      ox += 1;
    }
  }
}

/// Channel-block group count: blocks are grouped into runs of
/// kChannelBlockUnroll (the remainder group is smaller). The grouping is
/// a pure function of the pack, never of the thread count, so every
/// output element sees the same kernel instantiation — and the same
/// per-lane arithmetic order — at any parallelism.
inline std::size_t channel_group_count(const WeightPack& pack) noexcept {
  const std::size_t blocks = pack.padded_oc / runtime::isa::kFloatLanes;
  return (blocks + kChannelBlockUnroll - 1) / kChannelBlockUnroll;
}

/// One (block group, output row) unit of the channel-lane kernel.
inline void conv_channel_unit(const ConvPlan& plan, const WeightPack& pack,
                              const float* input, std::size_t group,
                              std::size_t oy, float* out) noexcept {
  namespace isa = runtime::isa;
  const std::size_t blocks = pack.padded_oc / isa::kFloatLanes;
  const std::size_t blk = group * kChannelBlockUnroll;
  const std::size_t o0 = blk * isa::kFloatLanes;
  switch (std::min(kChannelBlockUnroll, blocks - blk)) {
    case 4:
      conv_channel_group_row<4>(plan, pack, input, o0, oy, out);
      break;
    case 3:
      conv_channel_group_row<3>(plan, pack, input, o0, oy, out);
      break;
    case 2:
      conv_channel_group_row<2>(plan, pack, input, o0, oy, out);
      break;
    default:
      conv_channel_group_row<1>(plan, pack, input, o0, oy, out);
      break;
  }
}

/// Fault-free convolution fast path: channel lanes over the repacked
/// weights, fanned across the global pool in (block group, output row)
/// units. Every output element is computed by exactly one unit in the
/// scalar per-pixel reduction order, and the elided qualified
/// bookkeeping is credited in closed form by the caller after the join,
/// so outputs and statistics are bit-identical at every thread count.
/// Inside an outer parallel region (batched classify, campaign fan-out)
/// the pool serialises the nested fan inline.
inline void conv_raw_compute(const ConvPlan& plan, const WeightPack& pack,
                             const float* input, float* out) {
  // The block grouping — and with it every kernel instantiation — is
  // fixed by the pack alone, so chunk boundaries only decide which thread
  // runs a unit, and rows give the fan enough units even when the channel
  // extent is a single group.
  const std::size_t groups = channel_group_count(pack);
  runtime::ComputeContext::global().pool().parallel_for_chunks(
      0, groups * plan.out_h, 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t u = begin; u < end; ++u) {
          conv_channel_unit(plan, pack, input, u / plan.out_h,
                            u % plan.out_h, out);
        }
      });
}

/// Unqualified (raw-arithmetic) convolution pass through a concrete
/// executor — the execution style layer-granular redundancy wraps.
/// Writes into a caller-owned output buffer so retry attempts reuse
/// their two comparison buffers instead of reallocating.
template <typename Exec>
void conv_unqualified_inline(const ConvPlan& plan, const float* input,
                             const float* weights, const float* bias,
                             Exec& exec, ExecutionReport& report,
                             float* out) {
  for (std::size_t o = 0; o < plan.out_c; ++o) {
    const float b = bias[o];
    for (std::size_t oy = 0; oy < plan.out_h; ++oy) {
      const TapRange ry = plan.row_taps[oy];
      for (std::size_t ox = 0; ox < plan.out_w; ++ox) {
        const TapRange rx = plan.col_taps[ox];
        float acc = b;
        for (std::size_t c = 0; c < plan.in_c; ++c) {
          for (std::size_t ky = ry.begin; ky < ry.end; ++ky) {
            const std::size_t iy = oy * plan.stride + ky - plan.pad;
            const std::size_t in_base = (c * plan.in_h + iy) * plan.in_w;
            const float* w_row =
                weights + ((o * plan.in_c + c) * plan.kh + ky) * plan.kw;
            for (std::size_t kx = rx.begin; kx < rx.end; ++kx) {
              const std::size_t ix = ox * plan.stride + kx - plan.pad;
              const float p =
                  exec.mul_inline(input[in_base + ix], w_row[kx]).value;
              acc = exec.add_inline(acc, p).value;
              report.logical_ops += 2;
            }
          }
        }
        out[(o * plan.out_h + oy) * plan.out_w + ox] = acc;
      }
    }
  }
}

/// Qualified dense inner kernel over a concrete executor type; the linear
/// analogue of conv_forward_qualified.
template <typename Exec>
void linear_forward_qualified(std::size_t out_n, std::size_t in_n,
                              const float* input, const float* weights,
                              const float* bias,
                              const ReliabilityPolicy& policy, Exec& exec,
                              ReliableResult& result) {
  ExecutionReport& report = result.report;
  LeakyBucket bucket(policy.bucket_factor, policy.bucket_ceiling);
  QualifiedOpRunner<Exec> runner{exec, report, bucket,
                                 policy.max_retries_per_op};
  float* out = result.output.data().data();

  std::int64_t op_index = 0;
  const auto abort_with = [&](std::size_t o, std::int64_t failed_at,
                              float committed) {
    report.ok = false;
    report.failed_op_index = failed_at;
    report.bucket_peak = bucket.peak();
    report.bucket_exhausted = bucket.exhausted();
    out[o] = committed;
  };

  for (std::size_t o = 0; o < out_n; ++o) {
    ScalarCheckpoint acc(bias[o]);
    const float* w_row = weights + o * in_n;
    for (std::size_t i = 0; i < in_n; ++i) {
      const float x = input[i];
      const float w = w_row[i];

      ScalarCheckpoint prod(0.0f);
      const auto p =
          runner.run([x, w](Exec& e) { return e.mul_inline(x, w); }, prod);
      ++op_index;
      if (!p) {
        abort_with(o, op_index - 1, acc.value());
        return;
      }

      const float before = acc.value();
      const float pv = *p;
      const auto s = runner.run(
          [before, pv](Exec& e) { return e.add_inline(before, pv); }, acc);
      ++op_index;
      if (!s) {
        abort_with(o, op_index - 1, acc.value());
        return;
      }
    }
    out[o] = acc.value();
  }

  report.bucket_peak = bucket.peak();
  report.bucket_exhausted = bucket.exhausted();
}

/// Fault-free dense reduction, scalar form: same operation order as the
/// qualified kernel. The body of ReliableLinear::reference_forward, the
/// golden the neuron-lane fast path is diffed against.
inline void linear_raw_compute_scalar(std::size_t out_n, std::size_t in_n,
                                      const float* input,
                                      const float* weights, const float* bias,
                                      float* out) noexcept {
  for (std::size_t o = 0; o < out_n; ++o) {
    float acc = bias[o];
    const float* w_row = weights + o * in_n;
    for (std::size_t i = 0; i < in_n; ++i) {
      acc = acc + input[i] * w_row[i];
    }
    out[o] = acc;
  }
}

/// Neuron-lane weight layout for the dense fast path: [out, in] weights
/// transposed into [in][padded_out] rows so each input step issues
/// contiguous weight-vector loads across adjacent output neurons instead
/// of lane-by-lane strided reads. Same lifetime rule as the conv
/// WeightPack: built once by the owning ReliableLinear's constructor.
struct LinearWeightPack {
  std::vector<float> weights;  ///< [in][padded_out]
  std::vector<float> bias;     ///< [padded_out], zero beyond out_n
  std::size_t out_n = 0;
  std::size_t padded_out = 0;
  std::size_t in_n = 0;
};

inline LinearWeightPack build_linear_pack(std::size_t out_n, std::size_t in_n,
                                          const float* weights,
                                          const float* bias) {
  LinearWeightPack pack;
  pack.out_n = out_n;
  pack.padded_out = channel_pack_width(out_n);
  pack.in_n = in_n;
  pack.weights.assign(in_n * pack.padded_out, 0.0f);
  pack.bias.assign(pack.padded_out, 0.0f);
  for (std::size_t o = 0; o < out_n; ++o) {
    pack.bias[o] = bias[o];
    for (std::size_t i = 0; i < in_n; ++i) {
      pack.weights[i * pack.padded_out + o] = weights[o * in_n + i];
    }
  }
  return pack;
}

/// Fault-free dense fast path: the channel-lane idea applied to the dense
/// layer. Lane l of block b accumulates neuron b*lanes + l; every input
/// element is one broadcast against contiguous weight vectors, blocks
/// grouped like the conv channel blocks. Adjacent lanes are adjacent
/// output neurons, so full blocks store straight to the output; only the
/// padded tail block scatters its valid lanes. Per lane the reduction is
/// the exact scalar index order.
inline void linear_raw_compute(const LinearWeightPack& pack,
                               const float* input, float* out) noexcept {
  namespace isa = runtime::isa;
  constexpr std::size_t kLanes = isa::kFloatLanes;
  const std::size_t blocks = pack.padded_out / kLanes;
  const auto run_group = [&](std::size_t blk, auto b_tag) {
    constexpr std::size_t B = decltype(b_tag)::value;
    const std::size_t o0 = blk * kLanes;
    isa::VecF acc[B];
    for (std::size_t b = 0; b < B; ++b) {
      acc[b] = isa::loadu(pack.bias.data() + o0 + b * kLanes);
    }
    for (std::size_t i = 0; i < pack.in_n; ++i) {
      const isa::VecF xv = isa::splat(input[i]);
      const float* w = pack.weights.data() + i * pack.padded_out + o0;
      for (std::size_t b = 0; b < B; ++b) {
        acc[b] = acc[b] + xv * isa::loadu(w + b * kLanes);
      }
    }
    for (std::size_t b = 0; b < B; ++b) {
      const std::size_t ob = o0 + b * kLanes;
      const std::size_t valid = std::min(kLanes, pack.out_n - ob);
      if (valid == kLanes) {
        isa::storeu(out + ob, acc[b]);
      } else {
        for (std::size_t l = 0; l < valid; ++l) out[ob + l] = acc[b][l];
      }
    }
  };
  std::size_t blk = 0;
  while (blk < blocks) {
    const std::size_t group = std::min(kChannelBlockUnroll, blocks - blk);
    switch (group) {
      case 4:
        run_group(blk, std::integral_constant<std::size_t, 4>{});
        break;
      case 3:
        run_group(blk, std::integral_constant<std::size_t, 3>{});
        break;
      case 2:
        run_group(blk, std::integral_constant<std::size_t, 2>{});
        break;
      default:
        run_group(blk, std::integral_constant<std::size_t, 1>{});
        break;
    }
    blk += group;
  }
}

}  // namespace hybridcnn::reliable::detail
