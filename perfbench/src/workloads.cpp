#include "workloads.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "campaign_fabric/campaigns.hpp"
#include "campaign_fabric/summary_codec.hpp"
#include "runtime/compute_context.hpp"
#include "serve/inference_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hybridcnn;

namespace {

void set_pool(std::size_t threads) {
  runtime::ComputeContext::set_global_threads(threads);
}

// ------------------------------------------------------------ classify_b1
//
// Closed loop, one caller, one image per classify() call, fault-free, on
// a pool of one thread: the latency path of a single camera. Most of the
// time is the nn remainder, so nn optimisations show here.
class ClassifyB1 final : public Workload {
 public:
  explicit ClassifyB1(const Options& opt)
      : images_(make_signs(derive(opt.seed, 1), kImages)),
        seeds_(derive(opt.seed, 2)) {}

  std::size_t pool_threads() const override { return 1; }

  void setup() override {
    model_ = {};
    model_ = build_model({}, seeds_.peek());
    alexnet_build_s = model_.alexnet_build_s;
  }

  void prepare() override {
    core::FaultSeedStream warm(0);
    for (std::size_t i = 0; i < 2; ++i) {
      (void)model_.net->classify(images_[i], warm);
    }
  }

  LoopStats run(double seconds, Tracer& tracer, Result& result) override {
    calls_.clear();
    LoopStats s;
    const auto t0 = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const auto start = Clock::now();
      if (ms_between(t0, start) >= seconds * 1e3) break;
      Call c{i % images_.size(), seeds_.peek(), {}};
      {
        ScopedSpan span(tracer, "core.classify", i);
        c.result = model_.net->classify(images_[c.image], seeds_);
      }
      s.latency_ms.push_back(ms_between(start, Clock::now()));
      calls_.push_back(std::move(c));
    }
    s.elapsed_s = ms_between(t0, Clock::now()) / 1e3;
    s.completed = calls_.size();
    result.attempt(calls_.size());
    return s;
  }

  // A sample of the loop's results must be bit-identical to
  // classify_seeded with the same images and seeds.
  void check(Result& result) override {
    const std::size_t stride = std::max<std::size_t>(1, calls_.size() / 16);
    std::vector<const tensor::Tensor*> ptrs;
    std::vector<std::uint64_t> seeds;
    std::vector<const Call*> sample;
    for (std::size_t i = 0; i < calls_.size(); i += stride) {
      sample.push_back(&calls_[i]);
      ptrs.push_back(&images_[calls_[i].image]);
      seeds.push_back(calls_[i].seed);
    }
    const auto expected =
        model_.net->classify_seeded(ptrs.size(), ptrs.data(), seeds.data());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (!identical(sample[i]->result, expected[i])) {
        result.fail("classify_b1: classify result differs from "
                    "classify_seeded for seed " +
                    std::to_string(seeds[i]));
      }
    }
  }

  const core::HybridNetwork& network() const override { return *model_.net; }
  std::shared_ptr<const core::HybridNetwork> clean_network() const override {
    return model_.net;
  }
  const std::vector<tensor::Tensor>& images() const override {
    return images_;
  }

 private:
  static constexpr std::size_t kImages = 20;
  struct Call {
    std::size_t image = 0;
    std::uint64_t seed = 0;
    core::HybridClassification result;
  };

  std::vector<tensor::Tensor> images_;
  core::FaultSeedStream seeds_;
  Model model_;
  std::vector<Call> calls_;
};

// ---------------------------------------------------------- serve_cameras
//
// Open loop: one generator thread plays eight cameras, one Session each.
// All eight frames of a period are due together (kServePeriodMs, plus a
// seeded jitter of up to 5% of it), so micro-batching decides the
// latency. Frames are timed from their due time.
class ServeCameras final : public Workload {
 public:
  explicit ServeCameras(const Options& opt)
      : seed_(opt.seed),
        images_(make_signs(derive(opt.seed, 1), kCameras * kFramesPerCamera)) {}

  std::size_t pool_threads() const override { return 2; }

  void setup() override {
    service_.reset();
    model_ = {};
    model_ = build_model({}, derive(seed_, 2));
    service_ = std::make_unique<serve::InferenceService>(model_.net,
                                                         service_config());
    alexnet_build_s = model_.alexnet_build_s;
  }

  void prepare() override {
    // One batch through the fresh service's pool path, not measured.
    std::vector<const tensor::Tensor*> ptrs;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 2; ++i) {
      ptrs.push_back(&images_[i]);
      seeds.push_back(i);
    }
    (void)model_.net->classify_seeded(ptrs.size(), ptrs.data(), seeds.data());
  }

  LoopStats run(double seconds, Tracer& tracer, Result& result) override {
    if (service_ == nullptr) {
      service_ = std::make_unique<serve::InferenceService>(model_.net,
                                                           service_config());
    }
    const std::size_t periods = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds * 1e3 / kServePeriodMs));
    frames_.clear();
    frames_.resize(periods * kCameras);
    std::vector<serve::InferenceService::Session> sessions;
    session_bases_.clear();
    for (std::size_t c = 0; c < kCameras; ++c) {
      session_bases_.push_back(derive(seed_, 100 + loops_ * kCameras + c));
      sessions.push_back(service_->open_session(session_bases_.back()));
    }
    util::Rng jitter(derive(seed_, 3), loops_);
    ++loops_;

    std::mutex mu;
    std::condition_variable cv;
    std::size_t published = 0;
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    {
      // Completion order equals submission order (FIFO micro-batches), so
      // one collector waiting on the futures in order sees each frame
      // finish when it does.
      std::jthread collector([&] {
        for (std::size_t i = 0; i < frames_.size(); ++i) {
          {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return published > i; });
          }
          Frame& f = frames_[i];
          if (f.accepted) {
            try {
              f.result = f.future.get();
              f.ok = true;
            } catch (const std::exception& e) {
              std::fprintf(stderr, "perfbench: frame %zu failed: %s\n", i,
                           e.what());
            }
          }
          f.done = Clock::now();
          tracer.record("serve.frame", f.due, f.done, i, f.period_span);
        }
      });

      for (std::size_t k = 0; k < periods; ++k) {
        const auto due = t0 + period() * k +
                         std::chrono::duration_cast<Clock::duration>(
                             period() * (kJitterShare * jitter.uniform()));
        std::vector<tensor::Tensor> copies;
        for (std::size_t c = 0; c < kCameras; ++c) {
          copies.push_back(images_[image_of(c, k)]);
        }
        std::this_thread::sleep_until(due);
        ScopedSpan period_span(tracer, "serve.period", k);
        for (std::size_t c = 0; c < kCameras; ++c) {
          Frame& f = frames_[k * kCameras + c];
          f.due = due;
          f.period_span = period_span.id();
          {
            ScopedSpan submit(tracer, "serve.submit", k * kCameras + c);
            f.submitted = Clock::now();
            try {
              f.future = sessions[c].submit(std::move(copies[c]));
              f.accepted = true;
            } catch (const std::exception& e) {
              // Rejected (queue full) or refused: a failed, missed frame.
              std::fprintf(stderr, "perfbench: frame %zu not accepted: %s\n",
                           k * kCameras + c, e.what());
              f.accepted = false;
            }
          }
          std::lock_guard<std::mutex> lk(mu);
          published = k * kCameras + c + 1;
          cv.notify_one();
        }
      }
    }
    service_->drain();
    const serve::ServiceStats stats = service_->stats();
    service_.reset();  // shuts down; a later loop starts a fresh service

    LoopStats s;
    std::size_t misses = 0;
    std::vector<double> lag_ms;
    Clock::time_point last_done = t0;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      const Frame& f = frames_[i];
      const Clock::time_point next_due =
          i + kCameras < frames_.size() ? frames_[i + kCameras].due
                                        : f.due + period();
      lag_ms.push_back(ms_between(f.due, f.submitted));
      last_done = std::max(last_done, f.done);
      if (!f.accepted || !f.ok) {
        ++misses;
        result.fail(f.accepted ? "serve_cameras: frame failed"
                               : "serve_cameras: frame rejected");
        continue;
      }
      if (f.done > next_due) ++misses;
      s.latency_ms.push_back(ms_between(f.due, f.done));
      ++s.completed;
    }
    result.attempt(frames_.size());
    s.elapsed_s = ms_between(frames_.front().due, last_done) / 1e3;
    s.layer["serve.mean_batch"] =
        stats.batches == 0 ? 0.0
                           : static_cast<double>(stats.completed) /
                                 static_cast<double>(stats.batches);
    s.layer["serve.peak_queue_depth"] =
        static_cast<double>(stats.peak_queue_depth);
    s.layer["serve.deadline_miss_ratio"] =
        static_cast<double>(misses) / static_cast<double>(frames_.size());
    s.layer["serve.generator_lag_ms"] = quantile(lag_ms, 0.9);
    return s;
  }

  // Per session, the served results must equal a serial classify()
  // replay of that session's seed stream over its accepted frames.
  void check(Result& result) override {
    set_pool(std::max<std::size_t>(2, std::min<std::size_t>(
                                          4, std::thread::hardware_concurrency())));
    for (std::size_t c = 0; c < kCameras; ++c) {
      core::FaultSeedStream replay(session_bases_[c]);
      for (std::size_t k = 0; k * kCameras < frames_.size(); ++k) {
        const Frame& f = frames_[k * kCameras + c];
        if (!f.accepted) continue;
        const auto serial = model_.net->classify(images_[image_of(c, k)], replay);
        if (!f.ok || !identical(f.result, serial)) {
          result.fail("serve_cameras: camera " + std::to_string(c) +
                      " frame " + std::to_string(k) +
                      " differs from the serial replay");
        }
      }
    }
    set_pool(pool_threads());
  }

  const core::HybridNetwork& network() const override { return *model_.net; }
  std::shared_ptr<const core::HybridNetwork> clean_network() const override {
    return model_.net;
  }
  const std::vector<tensor::Tensor>& images() const override {
    return images_;
  }

 private:
  static constexpr std::size_t kCameras = 8;
  static constexpr std::size_t kFramesPerCamera = 4;
  static constexpr double kJitterShare = 0.05;  ///< of the period

  struct Frame {
    Clock::time_point due;
    Clock::time_point submitted;
    Clock::time_point done;
    std::int64_t period_span = Tracer::kNone;
    bool accepted = false;
    bool ok = false;
    std::future<core::HybridClassification> future;
    core::HybridClassification result;
  };

  static serve::ServiceConfig service_config() {
    serve::ServiceConfig cfg;
    cfg.queue_capacity = 64;
    cfg.max_batch = kCameras;
    cfg.overflow = serve::OverflowPolicy::kReject;
    return cfg;
  }
  static Clock::duration period() {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kServePeriodMs));
  }
  static std::size_t image_of(std::size_t camera, std::size_t period) {
    return camera * kFramesPerCamera + period % kFramesPerCamera;
  }

  std::uint64_t seed_;
  std::vector<tensor::Tensor> images_;
  Model model_;
  std::unique_ptr<serve::InferenceService> service_;
  std::vector<Frame> frames_;
  std::vector<std::uint64_t> session_bases_;
  std::uint64_t loops_ = 0;
};

// --------------------------------------------------------- fault_campaign
//
// Sharded classify campaigns through fabric::run_classify_campaign with a
// durable checkpoint, two fabric workers and a pool of one thread, under
// transient result-bit upsets. The qualified conv1 schedule dominates,
// so qualified-kernel work shows here and nn work must not.
class FaultCampaign final : public Workload {
 public:
  explicit FaultCampaign(const Options& opt)
      : images_(make_signs(derive(opt.seed, 1), kImages)),
        seed_base_(derive(opt.seed, 2)),
        checkpoint_path_(opt.out_dir + "/fault_campaign.ckpt") {}

  std::size_t pool_threads() const override { return 1; }

  void setup() override {
    model_ = {};
    model_ = build_model(campaign_faults(), seed_base_);
    // What run_fabric plans first: part of the set-up a campaign pays.
    plan_ = fabric::make_shard_plan(
        kRuns, kShardSize, seed_base_,
        fabric::campaign_fingerprint(
            fabric::SummaryCodec<faultsim::CampaignSummary>::kTag, kRuns,
            kShardSize, seed_base_));
    alexnet_build_s = model_.alexnet_build_s;
  }

  void prepare() override {
    golden_ = build_model({}, seed_base_).net;
    goldens_.clear();
    core::FaultSeedStream seeds(seed_base_);
    for (const tensor::Tensor& image : images_) {
      goldens_.push_back(golden_->classify(image, seeds));
    }
  }

  LoopStats run(double seconds, Tracer& tracer, Result& result) override {
    campaigns_.clear();
    LoopStats s;
    const auto t0 = Clock::now();
    while (ms_between(t0, Clock::now()) < seconds * 1e3) {
      Campaign& rec = campaigns_.emplace_back();
      rec.image = next_campaign_ % images_.size();
      rec.seed_base = seed_base_ + next_campaign_ * kRuns;
      ++next_campaign_;
      const core::HybridClassification& golden = goldens_[rec.image];

      std::vector<Clock::time_point> starts(kRuns);
      std::vector<Clock::time_point> ends(kRuns);
      std::atomic<std::uint64_t> mismatches{0};
      fabric::FabricConfig cfg;
      cfg.shard_size = kShardSize;
      cfg.workers = kWorkers;
      cfg.checkpoint_path = checkpoint_path_;
      cfg.attempt_hook = [&](const fabric::ShardDescriptor& shard,
                             std::size_t) {
        starts[shard.run_begin] = Clock::now();
      };
      const auto judge = [&](std::size_t run,
                             const core::HybridClassification& r) {
        ends[run] = Clock::now();
        const bool aborted = !r.conv1_report.ok || !r.qualifier.report.ok;
        const bool activated = aborted || r.conv1_report.detected_errors > 0 ||
                               r.qualifier.report.detected_errors > 0;
        const bool matches = r.predicted_class == golden.predicted_class &&
                             r.decision == golden.decision &&
                             r.confidence == golden.confidence;
        if (!aborted && !matches) mismatches.fetch_add(1);
        return faultsim::classify(activated, aborted, matches);
      };
      std::remove(checkpoint_path_.c_str());
      {
        ScopedSpan span(tracer, "fabric.campaign", campaigns_.size() - 1);
        try {
          auto out = fabric::run_classify_campaign(
              *model_.net, images_[rec.image], kRuns, rec.seed_base, judge,
              cfg);
          rec.summary = out.summary;
          rec.stats = out.stats;
          rec.complete = out.complete;
        } catch (const std::exception& e) {
          result.fail(std::string("fault_campaign: fabric error: ") +
                      e.what());
        }
        for (std::size_t i = 0; i < kRuns && rec.complete; ++i) {
          tracer.record("fabric.shard", starts[i], ends[i],
                        rec.seed_base + i, span.id());
          s.latency_ms.push_back(ms_between(starts[i], ends[i]));
        }
      }
      rec.mismatches = mismatches.load();
      s.completed += rec.complete ? kRuns : 0;
    }
    s.elapsed_s = ms_between(t0, Clock::now()) / 1e3;
    result.attempt(campaigns_.size() * kRuns);

    // Exact counts come from the first campaign: fixed work per seed.
    const Campaign& first = campaigns_.front();
    s.layer["fabric.shard_ms"] = median(s.latency_ms);
    s.layer["fabric.attempts"] = static_cast<double>(first.stats.attempts);
    s.layer["fabric.retries"] = static_cast<double>(first.stats.retries);
    s.layer["fabric.failures"] = static_cast<double>(first.stats.failures);
    s.layer["campaign.correct"] = static_cast<double>(first.summary.correct);
    s.layer["campaign.corrected"] =
        static_cast<double>(first.summary.corrected);
    s.layer["campaign.abort"] =
        static_cast<double>(first.summary.detected_abort);
    s.layer["campaign.silent"] =
        static_cast<double>(first.summary.silent_corruption);
    return s;
  }

  // The fabric reports no failures, the outcome counts sum to the runs,
  // and every run's decision equals the fault-free golden.
  void check(Result& result) override {
    for (const Campaign& c : campaigns_) {
      const auto& sum = c.summary;
      const std::string where =
          "fault_campaign: campaign at seed " + std::to_string(c.seed_base);
      if (!c.complete) {
        result.fail(where + " incomplete", kRuns);
        continue;
      }
      if (c.stats.failures != 0) {
        result.fail(where + " had fabric failures", c.stats.failures);
      }
      if (sum.runs != kRuns || sum.correct + sum.corrected +
                                       sum.detected_abort +
                                       sum.silent_corruption !=
                                   kRuns) {
        result.fail(where + " outcome counts do not sum to the runs");
      }
      if (c.mismatches != 0 || sum.silent_corruption != 0) {
        result.fail(where + " decision differs from the golden",
                    std::max<std::uint64_t>(c.mismatches,
                                            sum.silent_corruption));
      }
    }
    std::remove(checkpoint_path_.c_str());
  }

  const core::HybridNetwork& network() const override { return *model_.net; }
  std::shared_ptr<const core::HybridNetwork> clean_network() const override {
    return golden_;
  }
  const std::vector<tensor::Tensor>& images() const override {
    return images_;
  }
  bool injects_faults() const override { return true; }

 private:
  static constexpr std::size_t kImages = 5;
  static constexpr std::uint64_t kRuns = 4;
  static constexpr std::uint64_t kShardSize = 1;
  static constexpr std::size_t kWorkers = 2;

  struct Campaign {
    std::size_t image = 0;
    std::uint64_t seed_base = 0;
    faultsim::CampaignSummary summary;
    fabric::FabricStats stats;
    bool complete = false;
    std::uint64_t mismatches = 0;
  };

  std::vector<tensor::Tensor> images_;
  std::uint64_t seed_base_;
  std::string checkpoint_path_;
  Model model_;
  fabric::ShardPlan plan_;
  std::shared_ptr<const core::HybridNetwork> golden_;
  std::vector<core::HybridClassification> goldens_;
  std::vector<Campaign> campaigns_;
  std::uint64_t next_campaign_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "classify_b1", "serve_cameras", "fault_campaign"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "classify_b1") return std::make_unique<ClassifyB1>(opt);
  if (opt.workload == "serve_cameras") {
    return std::make_unique<ServeCameras>(opt);
  }
  if (opt.workload == "fault_campaign") {
    return std::make_unique<FaultCampaign>(opt);
  }
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
