#include "probes.hpp"

#include <cstdio>
#include <future>

#include "campaign_fabric/campaigns.hpp"
#include "campaign_fabric/checkpoint_log.hpp"
#include "campaign_fabric/summary_codec.hpp"
#include "core/shape_qualifier.hpp"
#include "faultsim/injector.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "runtime/compute_context.hpp"
#include "serve/inference_service.hpp"

namespace perfbench {

using namespace hybridcnn;

namespace {

/// Span name of every layer of the Sequential: nn.conv1..5, nn.lrn1..2,
/// nn.fc6..8 and nn.<type> for the rest.
std::vector<std::string> layer_span_names(const nn::Sequential& cnn) {
  std::vector<std::string> names;
  std::size_t conv = 0;
  std::size_t lrn = 0;
  std::size_t fc = 5;
  for (std::size_t i = 0; i < cnn.size(); ++i) {
    const std::string type = cnn.layer(i).name();
    if (type == "conv2d") {
      names.push_back("nn.conv" + std::to_string(++conv));
    } else if (type == "lrn") {
      names.push_back("nn.lrn" + std::to_string(++lrn));
    } else if (type == "linear") {
      names.push_back("nn.fc" + std::to_string(++fc));
    } else {
      names.push_back("nn." + type);
    }
  }
  return names;
}

struct Replay {
  int predicted_class = -1;
  core::Decision decision = core::Decision::kNonCriticalPass;
  reliable::ExecutionReport conv1_report;
  core::QualifierVerdict qualifier;
  std::uint64_t faults = 0;  ///< injected into conv1 and the qualifier
};

reliable::ReliableConv2d reliable_conv1(const core::HybridNetwork& net) {
  const auto& conv1 = net.cnn().layer_as<nn::Conv2d>(net.conv1_index());
  return {conv1.weights(), conv1.bias(),
          reliable::ConvSpec{conv1.stride(), conv1.pad()},
          net.config().policy};
}

/// One classification of `net`, call by call: reliable conv1 (kernel
/// built per image, as classify() does), the qualifier on the same
/// executor, then each remainder layer.
Replay replay_classify(const core::HybridNetwork& net,
                       const core::ShapeQualifier& qualifier,
                       const std::vector<std::string>& names,
                       const tensor::Tensor& image, std::uint64_t seed,
                       Tracer& tracer, std::uint64_t request) {
  ScopedSpan top(tracer, "probe.classify", request);
  const core::HybridConfig& cfg = net.config();
  const bool faulty = cfg.fault_config.kind != faultsim::FaultKind::kNone;
  auto injector =
      std::make_shared<faultsim::FaultInjector>(cfg.fault_config, seed);
  const auto exec =
      reliable::make_executor(reliable::parse_scheme(cfg.scheme), injector);
  runtime::Workspace& ws = runtime::ComputeContext::global().workspace();

  Replay r;
  tensor::Tensor act;
  {
    ScopedSpan span(tracer,
                    faulty ? "reliable.conv1_qualified" : "reliable.conv1_fast",
                    request);
    const reliable::ReliableConv2d rconv = reliable_conv1(net);
    reliable::ReliableResult rel = rconv.forward(image, *exec);
    r.conv1_report = rel.report;
    act = rel.report.ok ? std::move(rel.output)
                        : rconv.reference_forward(image);
  }
  {
    ScopedSpan span(tracer, "core.qualifier", request);
    r.qualifier = qualifier.qualify(image, *exec, ws);
  }
  r.faults = injector->stats().faults;

  const tensor::Shape s = act.shape();
  act.reshape(tensor::Shape{1, s[0], s[1], s[2]});
  {
    ScopedSpan span(tracer, "nn.remainder", request);
    const nn::Sequential& cnn = net.cnn();
    for (std::size_t i = net.conv1_index() + 1; i < cnn.size(); ++i) {
      ScopedSpan layer(tracer, names[i], request);
      act = cnn.layer(i).infer(std::move(act), ws);
    }
  }
  std::size_t best = 0;
  for (std::size_t j = 1; j < act.shape()[1]; ++j) {
    if (act[j] > act[best]) best = j;
  }
  r.predicted_class = static_cast<int>(best);
  r.decision = net.policy().decide(
      r.predicted_class, r.qualifier.qualifies(),
      r.conv1_report.ok && r.qualifier.report.ok);
  return r;
}

double median_of(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations_ms(name));
}

double total_of(const Tracer& tracer, const std::string& name) {
  double sum = 0.0;
  for (const double d : tracer.durations_ms(name)) sum += d;
  return sum;
}

/// Eight frames submitted at once to a fresh InferenceService.
void serve_burst(const std::shared_ptr<const core::HybridNetwork>& net,
                 const std::vector<tensor::Tensor>& images, Tracer& tracer,
                 Result& result, std::map<std::string, double>& layer) {
  constexpr std::size_t kFrames = 8;
  serve::ServiceConfig cfg;
  cfg.max_batch = kFrames;
  cfg.overflow = serve::OverflowPolicy::kReject;
  serve::InferenceService service(net, cfg);
  auto session = service.open_session(1);
  std::vector<tensor::Tensor> copies;
  for (std::size_t i = 0; i < kFrames; ++i) {
    copies.push_back(images[i % images.size()]);
  }
  std::vector<std::future<core::HybridClassification>> futures;
  std::vector<double> lag_ms;
  const auto due = Clock::now();
  for (std::size_t i = 0; i < kFrames; ++i) {
    ScopedSpan span(tracer, "serve.submit", i);
    lag_ms.push_back(ms_between(due, Clock::now()));
    futures.push_back(session.submit(std::move(copies[i])));
  }
  std::size_t misses = 0;
  const auto deadline =
      due + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(kServePeriodMs));
  for (std::size_t i = 0; i < kFrames; ++i) {
    try {
      (void)futures[i].get();
    } catch (const std::exception& e) {
      result.fail(std::string("serve burst frame failed: ") + e.what());
    }
    const auto done = Clock::now();
    tracer.record("serve.frame", due, done, i, Tracer::kNone);
    if (done > deadline) ++misses;
  }
  service.drain();  // promises resolve before the batch is counted
  const serve::ServiceStats stats = service.stats();
  layer["serve.mean_batch"] = static_cast<double>(stats.completed) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  1, stats.batches));
  layer["serve.peak_queue_depth"] =
      static_cast<double>(stats.peak_queue_depth);
  layer["serve.deadline_miss_ratio"] =
      static_cast<double>(misses) / static_cast<double>(kFrames);
  layer["serve.generator_lag_ms"] = quantile(lag_ms, 0.9);
}

/// A fault-free four-run campaign through the fabric (one run per shard,
/// two workers, durable checkpoint).
void fabric_campaign(const core::HybridNetwork& net,
                     const tensor::Tensor& image, const std::string& out_dir,
                     Tracer& tracer, Result& result,
                     std::map<std::string, double>& layer) {
  constexpr std::uint64_t kRuns = 4;
  core::FaultSeedStream seeds(1);
  const core::HybridClassification golden = net.classify(image, seeds);
  std::vector<Clock::time_point> starts(kRuns);
  std::vector<Clock::time_point> ends(kRuns);
  fabric::FabricConfig cfg;
  cfg.shard_size = 1;
  cfg.workers = 2;
  cfg.checkpoint_path = out_dir + "/probe_campaign.ckpt";
  cfg.attempt_hook = [&](const fabric::ShardDescriptor& shard, std::size_t) {
    starts[shard.run_begin] = Clock::now();
  };
  const auto judge = [&](std::size_t run,
                         const core::HybridClassification& r) {
    ends[run] = Clock::now();
    return faultsim::classify(false, !r.conv1_report.ok,
                              identical(r, golden));
  };
  std::remove(cfg.checkpoint_path.c_str());
  ScopedSpan span(tracer, "fabric.campaign", 0);
  const auto out =
      fabric::run_classify_campaign(net, image, kRuns, 1, judge, cfg);
  std::remove(cfg.checkpoint_path.c_str());
  std::vector<double> shard_ms;
  for (std::size_t i = 0; i < kRuns; ++i) {
    tracer.record("fabric.shard", starts[i], ends[i], i, span.id());
    shard_ms.push_back(ms_between(starts[i], ends[i]));
  }
  if (!out.complete || out.summary.correct != kRuns) {
    result.fail("fabric probe: campaign incomplete or not all runs correct");
  }
  layer["fabric.shard_ms"] = median(shard_ms);
  layer["fabric.attempts"] = static_cast<double>(out.stats.attempts);
  layer["fabric.retries"] = static_cast<double>(out.stats.retries);
  layer["fabric.failures"] = static_cast<double>(out.stats.failures);
  layer["campaign.correct"] = static_cast<double>(out.summary.correct);
  layer["campaign.corrected"] = static_cast<double>(out.summary.corrected);
  layer["campaign.abort"] = static_cast<double>(out.summary.detected_abort);
  layer["campaign.silent"] =
      static_cast<double>(out.summary.silent_corruption);
}

/// save_checkpoint of the record set a finished four-shard campaign
/// leaves: one one-run summary per shard.
double checkpoint_write_ms(const std::string& out_dir, Tracer& tracer) {
  constexpr std::uint32_t kShards = 4;
  faultsim::CampaignSummary one;
  one.add(faultsim::Outcome::kCorrected);
  std::vector<fabric::ShardRecord> records(kShards);
  for (std::uint32_t i = 0; i < kShards; ++i) {
    records[i].shard_index = i;
    fabric::SummaryCodec<faultsim::CampaignSummary>::encode(
        one, records[i].payload);
  }
  const std::uint64_t fingerprint = fabric::campaign_fingerprint(
      fabric::SummaryCodec<faultsim::CampaignSummary>::kTag, kShards, 1, 1);
  const std::string path = out_dir + "/probe_write.ckpt";
  std::vector<double> ms;
  for (std::size_t i = 0; i < 8; ++i) {
    ScopedSpan span(tracer, "fabric.checkpoint_write", i);
    const auto t0 = Clock::now();
    fabric::save_checkpoint(path, fingerprint, kShards, records);
    ms.push_back(ms_between(t0, Clock::now()));
  }
  std::remove(path.c_str());
  return median(ms);
}

}  // namespace

void run_layer_probe(const Workload& workload, const ProbeConfig& config,
                     Tracer& tracer, Result& result,
                     std::map<std::string, double>& layer) {
  const core::HybridNetwork& net = workload.network();
  const std::shared_ptr<const core::HybridNetwork> clean =
      workload.clean_network();
  const std::vector<tensor::Tensor>& images = workload.images();
  const bool faulty = workload.injects_faults();
  const std::vector<std::string> names = layer_span_names(net.cnn());
  const core::ShapeQualifier qualifier(net.config().qualifier);
  const std::uint64_t seed_base = derive(config.seed, 7);
  runtime::Workspace& ws = runtime::ComputeContext::global().workspace();
  constexpr std::size_t kSamples = 8;
  // Request ids: replays count from 0; the other probes from 1000, 2000
  // and 3000, so each probe's calls group together in the trace.

  // The workload's own pipeline, replayed call by call. Each replay must
  // reach the decision the library's classify path reaches.
  const std::size_t replays = faulty ? 2 : kSamples;
  std::vector<const tensor::Tensor*> ptrs;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < replays; ++i) {
    ptrs.push_back(&images[i % images.size()]);
    seeds.push_back(seed_base + i);
  }
  const auto expected =
      clean->classify_seeded(ptrs.size(), ptrs.data(), seeds.data());
  std::uint64_t retries = 0;
  std::uint64_t first_faults = 0;
  std::uint64_t logical_ops = 0;
  for (std::size_t i = 0; i < replays; ++i) {
    const Replay r = replay_classify(net, qualifier, names, *ptrs[i],
                                     seeds[i], tracer, i);
    const auto& e = expected[i];
    bool same = r.predicted_class == e.predicted_class &&
                r.decision == e.decision;
    if (!faulty) {
      same = same && r.conv1_report == e.conv1_report &&
             r.qualifier.report == e.qualifier.report &&
             r.qualifier.match == e.qualifier.match;
    }
    if (!same) {
      result.fail("layer probe: replay " + std::to_string(i) +
                  " differs from classify_seeded");
    }
    retries += r.conv1_report.retries;
    if (i == 0) {
      first_faults = r.faults;
      logical_ops = r.conv1_report.logical_ops;
    }
  }

  // The conv1 variant the workload does not run.
  if (faulty) {
    for (std::size_t i = 0; i < kSamples; ++i) {
      const auto exec = reliable::make_executor(
          reliable::parse_scheme(net.config().scheme),
          std::make_shared<faultsim::FaultInjector>());
      ScopedSpan span(tracer, "reliable.conv1_fast", 1000 + i);
      const reliable::ReliableConv2d fresh = reliable_conv1(net);
      (void)fresh.forward(images[i % images.size()], *exec);
    }
  } else {
    auto injector = std::make_shared<faultsim::FaultInjector>(
        campaign_faults(), seed_base);
    const auto exec = reliable::make_executor(
        reliable::parse_scheme(net.config().scheme), injector);
    {
      ScopedSpan span(tracer, "reliable.conv1_qualified", 1000);
      (void)reliable_conv1(net).forward(images[0], *exec);
    }
    (void)qualifier.qualify(images[0], *exec, ws);
    first_faults = injector->stats().faults;
  }

  // Plain nn conv1, and the whole plain network against hybrid classify.
  const auto& conv1 = net.cnn().layer_as<nn::Conv2d>(net.conv1_index());
  core::FaultSeedStream stream(seed_base);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const tensor::Tensor input = batched(images[i % images.size()]);
    {
      ScopedSpan span(tracer, "nn.conv1", 2000 + i);
      (void)conv1.infer(input, ws);
    }
    {
      ScopedSpan span(tracer, "probe.hybrid_classify", 2000 + i);
      (void)clean->classify(images[i % images.size()], stream);
    }
    {
      ScopedSpan span(tracer, "probe.plain_infer", 2000 + i);
      (void)clean->cnn().infer(input, ws);
    }
  }

  // Per-batch compute of the serving path.
  {
    std::vector<const tensor::Tensor*> batch;
    std::vector<std::uint64_t> batch_seeds;
    for (std::size_t i = 0; i < 8; ++i) {
      batch.push_back(&images[i % images.size()]);
      batch_seeds.push_back(seed_base + i);
    }
    for (std::size_t rep = 0; rep < 3; ++rep) {
      ScopedSpan span(tracer, "serve.classify_seeded_b8", 3000 + rep);
      (void)clean->classify_seeded(batch.size(), batch.data(),
                                   batch_seeds.data());
    }
  }

  if (config.serve_burst) serve_burst(clean, images, tracer, result, layer);
  if (config.fabric_campaign) {
    fabric_campaign(*clean, images[0], config.out_dir, tracer, result, layer);
  }
  layer["fabric.checkpoint_write_ms"] =
      checkpoint_write_ms(config.out_dir, tracer);

  // Layer times (medians over the replays) and derived values.
  for (const char* name : {"conv1", "conv2", "conv3", "conv4", "conv5", "lrn1",
                           "lrn2", "fc6", "fc7", "fc8", "remainder"}) {
    layer[std::string("nn.") + name + "_ms"] =
        median_of(tracer, std::string("nn.") + name);
  }
  std::uint64_t fc6_macs = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "nn.fc6") {
      const auto& fc6 = net.cnn().layer_as<nn::Linear>(i);
      fc6_macs = static_cast<std::uint64_t>(fc6.in_features()) *
                 fc6.out_features();
    }
  }
  layer["nn.fc6_gmac_s"] =
      static_cast<double>(fc6_macs) / (layer["nn.fc6_ms"] * 1e-3) / 1e9;
  layer["reliable.conv1_fast_ms"] = median_of(tracer, "reliable.conv1_fast");
  layer["reliable.conv1_qualified_ms"] =
      median_of(tracer, "reliable.conv1_qualified");
  layer["reliable.qualified_gap"] =
      layer["reliable.conv1_fast_ms"] / layer["nn.conv1_ms"];
  layer["reliable.logical_ops"] = static_cast<double>(logical_ops);
  layer["reliable.retries"] = static_cast<double>(retries);
  layer["faultsim.faults_per_run"] = static_cast<double>(first_faults);
  layer["core.qualifier_ms"] = median_of(tracer, "core.qualifier");
  layer["core.hybrid_over_plain"] = median_of(tracer, "probe.hybrid_classify") /
                                    median_of(tracer, "probe.plain_infer");
  layer["serve.classify_seeded_b8_ms"] =
      median_of(tracer, "serve.classify_seeded_b8");

  // Share of the replayed pipeline (conv1 + qualifier + remainder).
  const double conv1_total = total_of(
      tracer, faulty ? "reliable.conv1_qualified" : "reliable.conv1_fast");
  const double qualifier_total = total_of(tracer, "core.qualifier");
  const double remainder_total = total_of(tracer, "nn.remainder");
  const double pipeline = conv1_total + qualifier_total + remainder_total;
  layer["share.reliable_conv1"] = conv1_total / pipeline;
  layer["share.qualifier"] = qualifier_total / pipeline;
  layer["share.nn_remainder"] = remainder_total / pipeline;
}

}  // namespace perfbench
