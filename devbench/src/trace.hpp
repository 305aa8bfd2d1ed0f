// In-memory span recording for the traced run. Every span is counted in
// per-thread counters; the spans of a sample of requests are kept in
// per-thread buffers, collected after the run has quiesced, and written
// out as JSON lines.
//
// A span's request id is the issuing client plus that client's op
// sequence. Wrappers find it without touching the program:
//   * the stub's transport wrapper runs on the client thread;
//   * the coordinator's handler wrapper maps Message::from to the client;
//   * replica transport and store wrappers inherit it from the handler
//     thread they run on (ThreadContext);
//   * a peer's handler wrapper maps the message's block to its owner.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "reldev/storage/block.hpp"
#include "reldev/storage/site_metadata.hpp"

namespace devbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The p-th percentile (nearest rank) of `samples_ns`, in microseconds;
/// 0 when there are none.
inline double percentile_us(std::vector<std::int64_t> samples_ns, double p) {
  if (samples_ns.empty()) return 0.0;
  std::sort(samples_ns.begin(), samples_ns.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples_ns.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples_ns.size());
  return static_cast<double>(samples_ns[rank - 1]) / 1000.0;
}

/// The median of `values`; the mean of the middle two when even.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Clients talk to the sites under these transport ids (block_client uses
/// 1000 for its single stub).
inline constexpr reldev::storage::SiteId kClientIdBase = 1000;

/// The layer boundaries the traced run wraps.
enum class Layer : std::uint8_t {
  kClientCall = 0,  // DriverStub -> its net::Transport::call
  kEngine = 1,      // coordinator MessageHandler::handle
  kPeer = 2,        // non-coordinator MessageHandler::handle
  kFanout = 3,      // replica net::Transport call/send/multicast(_call)
  kStore = 4,       // replica storage::BlockStore call
};
const char* layer_name(Layer layer) noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root or unknown
  std::uint64_t request = 0;  // request_id(client, seq); 0 = unknown
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t bytes = 0;      // store writes: payload bytes
  std::uint16_t addressed = 0;  // fan-out: destinations addressed
  std::uint16_t replied = 0;    // fan-out: replies handed back
  Layer layer = Layer::kClientCall;
  std::uint8_t site = 0;  // site id; client index for kClientCall
  std::uint8_t op = 0;    // operation code, see op_name()
  bool counts_replies = false;  // fan-out: `replied` is observable

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Operation codes stored in Span::op.
enum class Op : std::uint8_t {
  kCall = 0,
  kSend,
  kMulticast,
  kMulticastCall,
  kHandle,
  kHandleOneway,
  kRead,
  kWrite,
  kVersionOf,
  kVersionVector,
  kPutMetadata,
  kGetMetadata,
  kSync,
  kLastSequence,
  kDurableSequence,
  kWaitDurable,
  kDemote,
};
const char* op_name(std::uint8_t op) noexcept;

[[nodiscard]] inline std::uint64_t request_id(std::size_t client,
                                              std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(client + 1) << 40) | seq;
}

/// Spans of one request in kKeepOneIn are kept in memory; every span is
/// counted. Distributions come from the kept spans, counts per op from
/// the counters, which are exact.
inline constexpr std::uint64_t kKeepOneIn = 16;

/// Exact counts over every span recorded.
struct LayerCounts {
  std::uint64_t calls[5] = {};  // by Layer
  std::uint64_t store_writes = 0;
  std::uint64_t store_write_bytes = 0;
  std::uint64_t store_syncs = 0;  // sync() and wait_durable()
  std::uint64_t addressed = 0;    // fan-out spans that observe replies
  std::uint64_t replied = 0;

  [[nodiscard]] std::uint64_t of(Layer layer) const {
    return calls[static_cast<std::size_t>(layer)];
  }
  LayerCounts& operator+=(const LayerCounts& other);
  [[nodiscard]] LayerCounts operator-(const LayerCounts& other) const;
};

/// Per-thread buffers. A process has at most one recorder: a thread's
/// buffer pointer is thread-local, not per recorder.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// A span id unique within this recorder.
  [[nodiscard]] std::uint64_t new_id();
  void record(const Span& span);

  /// Every kept span so far. Call only once the traced threads are idle
  /// (clients joined, stragglers drained).
  [[nodiscard]] std::vector<Span> collect();
  /// Counts over every span recorded so far.
  [[nodiscard]] LayerCounts counts();

 private:
  // Written only by the owning thread; atomic so counts() may read it.
  struct Counter {
    std::atomic<std::uint64_t> value{0};
    void add(std::uint64_t n) {
      value.store(value.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
    }
  };
  struct Buffer {
    std::uint64_t thread_index = 0;
    std::uint64_t next_id = 0;
    std::mutex mutex;  // guards spans; uncontended until collect()
    std::vector<Span> spans;
    Counter calls[5];
    Counter store_writes, store_write_bytes, store_syncs, addressed, replied;
  };
  Buffer& local();

  static thread_local Buffer* t_buffer_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// What the current thread is doing on behalf of a request: set by the
/// handler and client wrappers, read by the wrappers nested under them.
struct ThreadContext {
  std::uint64_t request = 0;
  std::uint64_t parent = 0;
};
ThreadContext& thread_context() noexcept;

/// Restores the thread context on scope exit.
class ContextScope {
 public:
  ContextScope(std::uint64_t request, std::uint64_t parent) noexcept
      : saved_(thread_context()) {
    thread_context() = ThreadContext{request, parent};
  }
  ~ContextScope() { thread_context() = saved_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  ThreadContext saved_;
};

/// Where each client stands, so wrappers on other threads can attach
/// their spans to the right request.
struct ClientSlot {
  std::atomic<std::uint64_t> request{0};
  std::atomic<std::uint64_t> call_span{0};    // stub call in flight
  std::atomic<std::uint64_t> fanout_span{0};  // coordinator fan-out in flight
};

class Tracer {
 public:
  Tracer(std::size_t clients, std::size_t blocks_per_client);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Recorder& recorder() noexcept { return recorder_; }

  /// The slot of the client behind transport id `from`, or nullptr when
  /// `from` is a site.
  [[nodiscard]] ClientSlot* client_by_id(reldev::storage::SiteId from) noexcept;
  /// The slot of the client that owns `block`.
  [[nodiscard]] ClientSlot& owner_of(reldev::storage::BlockId block) noexcept;
  [[nodiscard]] ClientSlot& client(std::size_t index) noexcept {
    return slots_[index];
  }

 private:
  Recorder recorder_;
  std::size_t clients_;
  std::size_t blocks_per_client_;
  std::unique_ptr<ClientSlot[]> slots_;
};

/// Write `spans` as JSON lines, keeping every span of one request in 64
/// (whole request trees; set-up calls outside any request are left out)
/// so the file stays small on long runs.
[[nodiscard]] bool write_spans_jsonl(const std::string& path,
                                     const std::vector<Span>& spans);

}  // namespace devbench
