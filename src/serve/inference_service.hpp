// InferenceService: the concurrent-request front-end over one shared
// const HybridNetwork.
//
// The paper's hybrid network gates safety-critical classifications in a
// live system; this is the component that lets a live system actually
// feed it. Requests arrive from any OS thread via submit() and resolve
// through std::future; a dispatcher thread coalesces whatever is
// pending into dynamic micro-batches and runs them through the const
// classify_seeded path, which fans the per-image pipelines across the
// global runtime pool. Admission is a bounded queue with block/reject
// backpressure.
//
// Determinism contract: every Session owns an independent
// core::FaultSeedStream. A request draws its seed from its session's
// stream at admission time (atomically with queue entry, in admission
// order), and each classification is a pure function of
// (weights, image, seed) — so per session, results are bit-identical to
// a serial classify() loop over the same stream, no matter how requests
// interleaved with other sessions, how the dispatcher batched them, or
// how many pool threads executed them. tests/test_inference_service.cpp
// holds the service to exactly that replay.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/hybrid_network.hpp"
#include "runtime/bounded_queue.hpp"

namespace hybridcnn::serve {

struct SessionState;  // owned by the service; defined in the .cpp

/// What submit() does when the request queue is at capacity.
enum class OverflowPolicy {
  kBlock,   ///< block the submitter until space frees (backpressure)
  kReject,  ///< fail fast: submit throws QueueFullError
};

/// Thrown by submit() under OverflowPolicy::kReject when the queue is
/// full. A rejected request consumes no seed from its session stream.
struct QueueFullError : std::runtime_error {
  QueueFullError() : std::runtime_error("InferenceService: queue full") {}
};

/// Thrown by submit() after shutdown() (or during destruction).
struct ServiceStoppedError : std::runtime_error {
  ServiceStoppedError()
      : std::runtime_error("InferenceService: service stopped") {}
};

struct ServiceConfig {
  /// Admission bound: requests queued but not yet dispatched.
  std::size_t queue_capacity = 64;
  /// Largest micro-batch one dispatch collects. The dispatcher takes
  /// whatever is pending up to this, so batch size adapts to load.
  std::size_t max_batch = 16;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Completed-request latencies kept for the percentile snapshot.
  std::size_t latency_window = 4096;
};

/// Monitoring snapshot; see stats().
struct ServiceStats {
  std::uint64_t accepted = 0;   ///< requests admitted to the queue
  std::uint64_t rejected = 0;   ///< submits refused under kReject
  std::uint64_t completed = 0;  ///< futures resolved with a result
  std::uint64_t failed = 0;     ///< futures resolved with an exception
  std::uint64_t batches = 0;    ///< dispatches executed
  std::size_t queue_depth = 0;  ///< requests pending right now
  std::size_t peak_queue_depth = 0;
  /// batch_size_histogram[s] = number of dispatched batches of size s
  /// (index 0 unused); sized max_batch + 1.
  std::vector<std::uint64_t> batch_size_histogram;
  /// Submit-to-completion latency percentiles over the most recent
  /// `latency_window` completed requests (microseconds).
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
};

class InferenceService {
 public:
  /// A request stream with its own deterministic fault-seed cursor.
  /// Handles are small copyable views; they stay valid for the life of
  /// the service that opened them. Submitting from several threads
  /// through one session is safe but makes the image→seed assignment
  /// race-ordered — use one session per logical stream to keep the
  /// serial-replay property meaningful.
  class Session {
   public:
    /// Enqueues one [3, H, W] image; the future resolves when its
    /// micro-batch completed. Throws std::invalid_argument on a bad
    /// shape (before consuming a seed), QueueFullError under kReject
    /// with a full queue, ServiceStoppedError after shutdown.
    std::future<core::HybridClassification> submit(tensor::Tensor image) {
      return service_->submit_on(*state_, std::move(image));
    }

    [[nodiscard]] std::uint64_t id() const noexcept;

   private:
    friend class InferenceService;
    Session(InferenceService* service, SessionState* state) noexcept
        : service_(service), state_(state) {}
    InferenceService* service_;
    SessionState* state_;
  };

  /// Serves `network` (shared, const — the service never mutates it).
  /// Starts the dispatcher thread. The pool the batches fan across is
  /// the global runtime context; do not resize it while a service is
  /// live.
  explicit InferenceService(
      std::shared_ptr<const core::HybridNetwork> network,
      ServiceConfig config = {});

  /// shutdown()s if the caller has not already.
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Opens a session whose seed stream starts at `seed_base`.
  Session open_session(std::uint64_t seed_base);

  /// Opens a session at the network's configured fault_seed base — the
  /// stream a fresh network's classify loop would consume.
  Session open_session();

  /// submit() on the built-in default session (opened at the network's
  /// fault_seed base).
  std::future<core::HybridClassification> submit(tensor::Tensor image);

  /// Blocks until every request accepted so far has resolved.
  void drain();

  /// Stops admissions, completes everything already accepted, and joins
  /// the dispatcher. Idempotent.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const core::HybridNetwork& network() const noexcept {
    return *network_;
  }

 private:
  struct Request {
    tensor::Tensor image;
    std::uint64_t seed = 0;
    std::promise<core::HybridClassification> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  std::future<core::HybridClassification> submit_on(SessionState& session,
                                                    tensor::Tensor image);
  void dispatch_loop();
  void finish_batch(std::vector<Request>& batch);

  std::shared_ptr<const core::HybridNetwork> network_;
  ServiceConfig config_;
  runtime::BoundedQueue<Request> queue_;

  mutable std::mutex sessions_mu_;  // guards sessions_ growth
  std::vector<std::unique_ptr<SessionState>> sessions_;
  SessionState* default_session_ = nullptr;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::size_t> peak_queue_depth_{0};  // CAS-max from submits
  std::atomic<bool> stopped_{false};

  mutable std::mutex stats_mu_;  // guards the fields below + drain cv
  std::condition_variable drained_cv_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t batches_ = 0;
  std::vector<std::uint64_t> batch_size_histogram_;
  std::vector<double> latency_us_;  // ring buffer, latency_window entries
  std::size_t latency_next_ = 0;
  bool latency_full_ = false;

  std::thread dispatcher_;  // last member: joined before the rest dies
};

}  // namespace hybridcnn::serve
