#include "serve/inference_service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hybridcnn::serve {

/// Per-session state: the deterministic seed cursor. The stream is only
/// ever advanced inside the queue's admission factory (under the queue
/// lock), so seeds are drawn atomically with admission, in admission
/// order.
struct SessionState {
  core::FaultSeedStream stream;
  std::uint64_t id = 0;
};

std::uint64_t InferenceService::Session::id() const noexcept {
  return state_->id;
}

InferenceService::InferenceService(
    std::shared_ptr<const core::HybridNetwork> network, ServiceConfig config)
    : network_(std::move(network)),
      config_(config),
      queue_(config.queue_capacity) {
  if (!network_) {
    throw std::invalid_argument("InferenceService: null network");
  }
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.latency_window == 0) config_.latency_window = 1;
  batch_size_histogram_.assign(config_.max_batch + 1, 0);
  latency_us_.assign(config_.latency_window, 0.0);
  default_session_ = [&] {
    auto state = std::make_unique<SessionState>();
    state->stream = network_->seed_stream();
    state->id = 0;
    sessions_.push_back(std::move(state));
    return sessions_.back().get();
  }();
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

InferenceService::~InferenceService() { shutdown(); }

InferenceService::Session InferenceService::open_session(
    std::uint64_t seed_base) {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  auto state = std::make_unique<SessionState>();
  state->stream = core::FaultSeedStream(seed_base);
  state->id = sessions_.size();
  sessions_.push_back(std::move(state));
  return Session(this, sessions_.back().get());
}

InferenceService::Session InferenceService::open_session() {
  return open_session(network_->seed_stream().peek());
}

std::future<core::HybridClassification> InferenceService::submit(
    tensor::Tensor image) {
  return submit_on(*default_session_, std::move(image));
}

std::future<core::HybridClassification> InferenceService::submit_on(
    SessionState& session, tensor::Tensor image) {
  // Validate before admission: a bad request must neither occupy queue
  // space nor consume a seed from the session stream.
  if (image.shape().rank() != 3) {
    throw std::invalid_argument("InferenceService::submit: expected CHW");
  }
  if (stopped_.load(std::memory_order_acquire)) throw ServiceStoppedError();

  std::promise<core::HybridClassification> promise;
  std::future<core::HybridClassification> future = promise.get_future();
  // Runs under the queue lock once capacity is reserved: admission and
  // seed draw are one atomic step, so accepted requests hold exactly the
  // seeds a serial loop over the session's accepted images would use.
  const auto make = [&]() -> Request {
    Request request;
    request.image = std::move(image);
    request.seed = session.stream.take();
    request.promise = std::move(promise);
    request.enqueued = std::chrono::steady_clock::now();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return request;
  };

  const bool admitted = config_.overflow == OverflowPolicy::kBlock
                            ? queue_.push_with(make)
                            : queue_.try_push_with(make);
  if (!admitted) {
    if (queue_.closed()) throw ServiceStoppedError();
    rejected_.fetch_add(1, std::memory_order_relaxed);
    throw QueueFullError();
  }

  // Track the high-water mark of pending requests without dragging the
  // submit hot path through stats_mu_ (CAS-max against racing peaks).
  const std::size_t depth = queue_.size();
  std::size_t peak = peak_queue_depth_.load(std::memory_order_relaxed);
  while (depth > peak && !peak_queue_depth_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
  return future;
}

void InferenceService::dispatch_loop() {
  std::vector<Request> batch;
  batch.reserve(config_.max_batch);

  // pop_batch blocks until work arrives; after close() it hands out the
  // already-admitted tail and finally returns 0 — the drain-then-exit
  // shutdown path.
  while (queue_.pop_batch(batch, config_.max_batch) != 0) {
    finish_batch(batch);
    batch.clear();
  }
}

void InferenceService::finish_batch(std::vector<Request>& batch) {
  std::vector<const tensor::Tensor*> images;
  std::vector<std::uint64_t> seeds;
  images.reserve(batch.size());
  seeds.reserve(batch.size());
  for (const Request& r : batch) {
    images.push_back(&r.image);
    seeds.push_back(r.seed);
  }

  std::vector<core::HybridClassification> results;
  std::exception_ptr error;
  try {
    // Fans the complete per-image pipelines across the global pool.
    // Each result is a pure function of (weights, image, seed), so the
    // batch composition the dispatcher happened to collect is invisible
    // in the outputs.
    results = network_->classify_seeded(batch.size(), images.data(),
                                        seeds.data());
  } catch (...) {
    error = std::current_exception();
  }

  const auto now = std::chrono::steady_clock::now();
  std::size_t ok = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (error) {
      batch[i].promise.set_exception(error);
    } else {
      batch[i].promise.set_value(std::move(results[i]));
      ++ok;
    }
  }

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    completed_ += ok;
    failed_ += batch.size() - ok;
    ++batches_;
    ++batch_size_histogram_[std::min(batch.size(),
                                     batch_size_histogram_.size() - 1)];
    for (const Request& r : batch) {
      const double us =
          std::chrono::duration<double, std::micro>(now - r.enqueued).count();
      latency_us_[latency_next_] = us;
      latency_next_ = (latency_next_ + 1) % latency_us_.size();
      if (latency_next_ == 0) latency_full_ = true;
    }
  }
  drained_cv_.notify_all();
}

void InferenceService::drain() {
  std::unique_lock<std::mutex> lk(stats_mu_);
  drained_cv_.wait(lk, [&] {
    return completed_ + failed_ >= accepted_.load(std::memory_order_acquire);
  });
}

void InferenceService::shutdown() {
  stopped_.store(true, std::memory_order_release);
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ServiceStats InferenceService::stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.size();
  s.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);

  // Copy under the lock, crunch (sort) after releasing it — a polling
  // monitor must not stall the dispatcher for an O(n log n) pass.
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s.completed = completed_;
    s.failed = failed_;
    s.batches = batches_;
    s.batch_size_histogram = batch_size_histogram_;
    const std::size_t n = latency_full_ ? latency_us_.size() : latency_next_;
    sorted.assign(latency_us_.begin(), latency_us_.begin() + n);
  }

  if (!sorted.empty()) {
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const auto pct = [&](double p) {
      const std::size_t idx = static_cast<std::size_t>(
          std::min<double>(static_cast<double>(n - 1),
                           std::ceil(p * static_cast<double>(n)) - 1.0));
      return sorted[idx];
    };
    s.p50_latency_us = pct(0.50);
    s.p99_latency_us = pct(0.99);
    s.max_latency_us = sorted.back();
  }
  return s;
}

}  // namespace hybridcnn::serve
