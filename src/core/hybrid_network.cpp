#include "core/hybrid_network.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "faultsim/injector.hpp"
#include "faultsim/memory_faults.hpp"
#include "nn/conv2d.hpp"
#include "nn/filters.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "reliable/checkpoint.hpp"
#include "runtime/compute_context.hpp"

namespace hybridcnn::core {

HybridNetwork::HybridNetwork(std::unique_ptr<nn::Sequential> cnn,
                             std::size_t conv1_index, HybridConfig config)
    : cnn_(std::move(cnn)),
      conv1_index_(conv1_index),
      config_(std::move(config)),
      safety_(config_.critical_classes),
      qualifier_(config_.qualifier),
      scheme_id_(reliable::parse_scheme(config_.scheme)) {
  if (!cnn_) throw std::invalid_argument("HybridNetwork: null cnn");
  auto& conv1 = cnn_->layer_as<nn::Conv2d>(conv1_index_);
  const bool pair =
      config_.qualifier.source == QualifierSource::kDependableFeatureMapPair;
  if (config_.dependable_filter + (pair ? 1 : 0) >= conv1.out_channels()) {
    throw std::invalid_argument(
        "HybridNetwork: dependable_filter out of range");
  }
  // DCNN pre-initialisation (Section III.B): the dependable filter(s)
  // become Sobel filters and are frozen so training cannot disturb them.
  // Default: the paper's single x/y/x filter. Pair extension: pure x and
  // pure y filters so the qualifier can form a true gradient magnitude.
  if (pair) {
    conv1.set_filter(config_.dependable_filter,
                     nn::sobel_axis_filter(conv1.in_channels(),
                                           conv1.kernel(),
                                           nn::SobelAxis::kX));
    conv1.set_filter(config_.dependable_filter + 1,
                     nn::sobel_axis_filter(conv1.in_channels(),
                                           conv1.kernel(),
                                           nn::SobelAxis::kY));
    conv1.set_filter_frozen(config_.dependable_filter + 1, true);
  } else {
    conv1.set_filter(config_.dependable_filter,
                     nn::sobel_filter(conv1.in_channels(), conv1.kernel()));
  }
  conv1.set_filter_frozen(config_.dependable_filter, true);
}

reliable::ReliableConv2d HybridNetwork::make_reliable_conv1() const {
  const auto& conv1 = cnn_->layer_as<nn::Conv2d>(conv1_index_);
  return {conv1.weights(), conv1.bias(),
          reliable::ConvSpec{conv1.stride(), conv1.pad()}, config_.policy};
}

HybridNetwork::DependableStage HybridNetwork::dependable_stage(
    const reliable::ReliableConv2d& rconv, const tensor::Tensor& image,
    std::uint64_t fault_seed) const {
  DependableStage stage;

  // --- Reliable (DCNN) stage: conv1 through qualified operators. -----
  auto injector = std::make_shared<faultsim::FaultInjector>(
      config_.fault_config, fault_seed);
  const std::unique_ptr<reliable::Executor> exec =
      reliable::make_executor(scheme_id_, injector);

  reliable::ReliableResult rel = rconv.forward(image, *exec);
  stage.report = rel.report;
  stage.reliable_ok = rel.report.ok;

  // --- Qualifier (bifurcation branch 2). ------------------------------
  // Runs before the CNN remainder (which never touches the executor, so
  // the injector stream position is identical to the single-image path)
  // and draws its vision/SAX scratch from the calling slot's arena.
  const tensor::Shape map_shape = rel.output.shape();
  const std::size_t plane = map_shape[1] * map_shape[2];
  runtime::Workspace& ws = runtime::ComputeContext::global().workspace();
  switch (config_.qualifier.source) {
    case QualifierSource::kDependableFeatureMap: {
      // The paper's single mixed-direction dependable map.
      runtime::Workspace::Scope scope(ws);
      const std::span<float> fm = ws.alloc_span_as<float>(plane);
      for (std::size_t i = 0; i < plane; ++i) {
        fm[i] = rel.output[config_.dependable_filter * plane + i];
      }
      stage.qualifier = qualifier_.qualify_feature_map(
          fm, map_shape[1], map_shape[2], rel.report, ws);
      break;
    }
    case QualifierSource::kDependableFeatureMapPair: {
      // Gradient magnitude from the dependable (x, y) filter pair.
      runtime::Workspace::Scope scope(ws);
      const std::span<float> fm = ws.alloc_span_as<float>(plane);
      const std::size_t fx = config_.dependable_filter * plane;
      const std::size_t fy = (config_.dependable_filter + 1) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float gx = rel.output[fx + i];
        const float gy = rel.output[fy + i];
        fm[i] = std::sqrt(gx * gx + gy * gy);
      }
      stage.qualifier = qualifier_.qualify_feature_map(
          fm, map_shape[1], map_shape[2], rel.report, ws);
      break;
    }
    case QualifierSource::kFullResolution:
      stage.qualifier = qualifier_.qualify(image, *exec, ws);
      break;
  }

  // --- CNN input (bifurcation branch 1). ------------------------------
  // On a persistent reliable-execution failure the committed partial maps
  // must not feed the classifier; the CNN branch falls back to a plain
  // re-execution so a (non-safety) prediction is still available, while
  // the decision reports the fail-stop.
  stage.conv1_out =
      rel.report.ok ? std::move(rel.output) : rconv.reference_forward(image);
  return stage;
}

HybridClassification HybridNetwork::run_remainder(
    DependableStage&& stage, runtime::Workspace& ws) const {
  // --- Non-reliable remainder of the CNN (bifurcation branch 1). -----
  // Const re-entrant inference over the shared model: no layer state is
  // touched, so any number of images may be in this stage concurrently.
  tensor::Tensor conv1_out = std::move(stage.conv1_out);
  const tensor::Shape map_shape = conv1_out.shape();
  conv1_out.reshape(
      tensor::Shape{1, map_shape[0], map_shape[1], map_shape[2]});
  const tensor::Tensor logits =
      cnn_->infer_from(conv1_index_ + 1, conv1_out, ws);
  return finalize_classification(std::move(stage), logits);
}

HybridClassification HybridNetwork::finalize_classification(
    DependableStage&& stage, const tensor::Tensor& logits) const {
  HybridClassification result;
  result.conv1_report = std::move(stage.report);
  result.qualifier = std::move(stage.qualifier);

  if (logits.shape().rank() != 2 || logits.shape()[0] != 1) {
    throw std::logic_error("HybridNetwork: CNN must yield [1, classes]");
  }

  const std::size_t classes = logits.shape()[1];
  std::size_t best = 0;
  for (std::size_t j = 1; j < classes; ++j) {
    if (logits[j] > logits[best]) best = j;
  }
  double denom = 0.0;
  for (std::size_t j = 0; j < classes; ++j) {
    denom += std::exp(static_cast<double>(logits[j]) -
                      static_cast<double>(logits[best]));
  }
  result.predicted_class = static_cast<int>(best);
  result.confidence = 1.0 / denom;

  // --- Reliable Result combination (Figure 1). ------------------------
  const bool reliable_ok =
      stage.reliable_ok && result.qualifier.report.ok;
  result.safety_critical = safety_.is_critical(result.predicted_class);
  result.decision = safety_.decide(result.predicted_class,
                                   result.qualifier.qualifies(), reliable_ok);
  return result;
}

HybridClassification HybridNetwork::classify(const tensor::Tensor& image,
                                             FaultSeedStream& seeds) const {
  if (image.shape().rank() != 3) {
    throw std::invalid_argument("HybridNetwork::classify: expected CHW");
  }
  const reliable::ReliableConv2d rconv = make_reliable_conv1();
  return run_remainder(dependable_stage(rconv, image, seeds.take()),
                       runtime::ComputeContext::global().workspace());
}

HybridClassification HybridNetwork::classify_with_conv1(
    const reliable::ReliableConv2d& rconv, const tensor::Tensor& image,
    std::uint64_t fault_seed) const {
  if (image.shape().rank() != 3) {
    throw std::invalid_argument(
        "HybridNetwork::classify_with_conv1: expected CHW");
  }
  return run_remainder(dependable_stage(rconv, image, fault_seed),
                       runtime::ComputeContext::global().workspace());
}

HybridNetwork::IntermittentResult HybridNetwork::classify_intermittent(
    const tensor::Tensor& image, FaultSeedStream& seeds,
    const faultsim::PowerTrace& trace, CheckpointMemoryModel memory) const {
  if (image.shape().rank() != 3) {
    throw std::invalid_argument(
        "HybridNetwork::classify_intermittent: expected CHW");
  }
  const std::uint64_t seed = seeds.take();
  const reliable::ReliableConv2d rconv = make_reliable_conv1();
  runtime::Workspace& ws = runtime::ComputeContext::global().workspace();

  // Step 0: the dependable stage (reliable conv1 + qualifier), committed
  // as one unit — its injector stream restarts from `seed` on every
  // re-execution, so a cut during step 0 replays the identical reliable
  // execution. Steps 1..R: one CNN remainder layer each, a pure const
  // inference of the committed activation.
  const std::size_t total_steps = cnn_->size() - conv1_index_;
  faultsim::PowerSchedule power(trace);
  reliable::ProgressCheckpoint checkpoint(memory.ecc);
  // Checkpoint-slot upset stream: decorrelated from both the compute
  // injector (0xFA17) and the memory-campaign stream (0x5E0), and a pure
  // function of the run seed — re-running the same trace re-injects the
  // same upsets.
  util::Rng checkpoint_rng(seed, 0xC4EC);
  // Committed non-tensor products of step 0 (report, qualifier verdict);
  // committed alongside the checkpointed activation.
  DependableStage committed_stage;

  // The reboot path: the in-flight step's work is lost, upsets strike
  // the committed slot while the system was down, and — with ECC on — a
  // scrub corrects them before execution resumes from the checkpoint.
  const auto reboot = [&](IntermittentResult& r) {
    const std::size_t resume = checkpoint.rollback();
    if (memory.flips_per_cycle > 0 && checkpoint.commits() > 0) {
      r.checkpoint_bits_flipped +=
          faultsim::inject_exact_flips(checkpoint.mutable_state(),
                                       memory.flips_per_cycle,
                                       checkpoint_rng)
              .bits_flipped;
    }
    if (memory.ecc) {
      const faultsim::ScrubReport sr = checkpoint.scrub();
      r.checkpoint_corrected += sr.corrected();
      r.checkpoint_uncorrectable += sr.uncorrectable;
    }
    return resume;
  };

  IntermittentResult result;
  std::size_t next = 0;
  while (next < total_steps) {
    ++result.steps_executed;
    if (next == 0) {
      DependableStage stage = dependable_stage(rconv, image, seed);
      if (!power.step()) {  // power failed mid-step: work lost
        next = reboot(result);
        continue;
      }
      tensor::Tensor act = std::move(stage.conv1_out);
      const tensor::Shape map_shape = act.shape();
      act.reshape(
          tensor::Shape{1, map_shape[0], map_shape[1], map_shape[2]});
      committed_stage = std::move(stage);
      checkpoint.commit(1, std::move(act));
    } else {
      tensor::Tensor act =
          cnn_->layer(conv1_index_ + next).infer(checkpoint.state(), ws);
      if (!power.step()) {
        next = reboot(result);
        continue;
      }
      checkpoint.commit(next + 1, std::move(act));
    }
    next = checkpoint.step();
  }

  result.power_cycles = power.cycles();
  result.steps_committed = checkpoint.commits();
  result.classification =
      finalize_classification(std::move(committed_stage), checkpoint.state());
  return result;
}

namespace {

/// Rejects non-CHW images up front — before any seed is consumed, so a
/// refused batch leaves the caller's stream untouched. Every public
/// batched entry point validates here; classify_indexed trusts them.
void validate_chw(std::size_t count, const tensor::Tensor* const* images,
                  const char* entry_point) {
  for (std::size_t i = 0; i < count; ++i) {
    if (images[i]->shape().rank() != 3) {
      throw std::invalid_argument(std::string("HybridNetwork::") +
                                  entry_point + ": expected CHW images");
    }
  }
}

}  // namespace

std::vector<HybridClassification> HybridNetwork::classify_indexed(
    std::size_t count, const tensor::Tensor* const* images,
    std::uint64_t seed_base, const std::uint64_t* seeds) const {
  if (count == 0) return {};

  // One reliable kernel (weight copy and fast-path pack) for the whole
  // batch, shared read-only by every image.
  const reliable::ReliableConv2d rconv = make_reliable_conv1();
  const auto seed_of = [&](std::size_t i) {
    return seeds != nullptr ? seeds[i] : seed_base + i;
  };

  auto& ctx = runtime::ComputeContext::global();
  std::vector<HybridClassification> results(count);
  // The whole per-image pipeline — reliable DCNN, qualifier and CNN
  // remainder — is a pure function of (weights, image, seed). One
  // parallel region covers everything; each chunk writes only its own
  // result slot, so outputs are bit-identical at every thread count.
  // Nested parallel regions inside the reliable/vision/GEMM code
  // serialise inline.
  ctx.pool().parallel_for(0, count, [&](std::size_t i) {
    results[i] = run_remainder(dependable_stage(rconv, *images[i], seed_of(i)),
                               ctx.workspace());
  });
  return results;
}

std::vector<HybridClassification> HybridNetwork::classify_batch(
    const std::vector<tensor::Tensor>& images, FaultSeedStream& seeds) const {
  std::vector<const tensor::Tensor*> ptrs;
  ptrs.reserve(images.size());
  for (const tensor::Tensor& img : images) ptrs.push_back(&img);
  // Validate before drawing seeds: a refused batch must not advance the
  // caller's stream. The accepted block is then exactly what a
  // classify() loop would consume — image i gets seeds.peek() + i — and
  // an empty batch consumes nothing.
  validate_chw(ptrs.size(), ptrs.data(), "classify_batch");
  const std::uint64_t seed_base = seeds.take_block(ptrs.size());
  return classify_indexed(ptrs.size(), ptrs.data(), seed_base, nullptr);
}

std::vector<HybridClassification> HybridNetwork::classify_repeat(
    const tensor::Tensor& image, std::size_t runs,
    FaultSeedStream& seeds) const {
  const tensor::Tensor* one = &image;
  validate_chw(1, &one, "classify_repeat");
  std::vector<const tensor::Tensor*> ptrs(runs, &image);
  const std::uint64_t seed_base = seeds.take_block(runs);
  return classify_indexed(ptrs.size(), ptrs.data(), seed_base, nullptr);
}

faultsim::CampaignSummary HybridNetwork::classify_campaign(
    const tensor::Tensor& image, std::size_t runs,
    const std::function<faultsim::Outcome(
        std::size_t, const HybridClassification&)>& judge,
    FaultSeedStream& seeds) const {
  if (image.shape().rank() != 3) {
    throw std::invalid_argument(
        "HybridNetwork::classify_campaign: expected CHW");
  }
  const std::uint64_t seed_base = seeds.take_block(runs);
  return classify_campaign_range(image, 0, runs, seed_base, judge);
}

faultsim::CampaignSummary HybridNetwork::classify_campaign_range(
    const tensor::Tensor& image, std::size_t run_begin, std::size_t run_end,
    std::uint64_t seed_base,
    const std::function<faultsim::Outcome(
        std::size_t, const HybridClassification&)>& judge) const {
  if (image.shape().rank() != 3) {
    throw std::invalid_argument(
        "HybridNetwork::classify_campaign_range: expected CHW");
  }
  if (run_end < run_begin) {
    throw std::invalid_argument(
        "HybridNetwork::classify_campaign_range: run_end < run_begin");
  }
  const std::size_t count = run_end - run_begin;
  const std::vector<const tensor::Tensor*> ptrs(count, &image);
  const std::vector<HybridClassification> results = classify_indexed(
      count, ptrs.data(), seed_base + run_begin, nullptr);
  faultsim::CampaignSummary summary;
  for (std::size_t i = 0; i < count; ++i) {
    summary.add(judge(run_begin + i, results[i]));
  }
  return summary;
}

std::vector<HybridClassification> HybridNetwork::classify_seeded(
    std::size_t count, const tensor::Tensor* const* images,
    const std::uint64_t* seeds) const {
  if (count != 0 && (images == nullptr || seeds == nullptr)) {
    throw std::invalid_argument(
        "HybridNetwork::classify_seeded: null images/seeds");
  }
  validate_chw(count, images, "classify_seeded");
  return classify_indexed(count, images, /*seed_base=*/0, seeds);
}

HybridNetwork::CostSplit HybridNetwork::cost_split(
    const tensor::Shape& input_shape) const {
  if (input_shape.rank() != 3) {
    throw std::invalid_argument("cost_split: expected CHW input shape");
  }
  CostSplit split;

  const reliable::ReliableConv2d rconv = make_reliable_conv1();
  split.reliable_macs = rconv.mac_count(input_shape);
  if (config_.qualifier.source == QualifierSource::kFullResolution) {
    // Two 3x3 Sobel filters over the luminance plane. The qualifier is
    // extra work the hybrid adds, so it counts into both sides.
    const std::uint64_t qualifier_macs =
        2ull * 9ull * input_shape[1] * input_shape[2];
    split.reliable_macs += qualifier_macs;
    split.total_macs += qualifier_macs;
  }

  // Walk the network propagating shapes to count every layer's MACs.
  std::size_t c = input_shape[0];
  std::size_t h = input_shape[1];
  std::size_t w = input_shape[2];
  std::size_t features = 0;  // once flattened
  for (std::size_t i = 0; i < cnn_->size(); ++i) {
    const nn::Layer& l = cnn_->layer(i);
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&l)) {
      const std::size_t oh = conv->out_size(h);
      const std::size_t ow = conv->out_size(w);
      split.total_macs += static_cast<std::uint64_t>(conv->out_channels()) *
                          oh * ow * conv->in_channels() * conv->kernel() *
                          conv->kernel();
      c = conv->out_channels();
      h = oh;
      w = ow;
    } else if (const auto* pool = dynamic_cast<const nn::MaxPool*>(&l)) {
      h = pool->out_size(h);
      w = pool->out_size(w);
    } else if (const auto* fc = dynamic_cast<const nn::Linear*>(&l)) {
      split.total_macs +=
          static_cast<std::uint64_t>(fc->out_features()) * fc->in_features();
      features = fc->out_features();
    } else if (l.name() == "flatten") {
      features = c * h * w;
      (void)features;
    }
    // relu/lrn/softmax/dropout contribute no MACs.
  }
  return split;
}

}  // namespace hybridcnn::core
