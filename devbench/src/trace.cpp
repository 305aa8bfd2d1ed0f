#include "trace.hpp"

#include <fstream>

namespace devbench {

namespace {

thread_local ThreadContext t_context;

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kClientCall: return "net.client.call";
    case Layer::kEngine: return "core.engine.handle";
    case Layer::kPeer: return "core.peer.handle";
    case Layer::kFanout: return "net.fanout.round";
    case Layer::kStore: return "storage.store.call";
  }
  return "?";
}

const char* op_name(std::uint8_t op) noexcept {
  static constexpr const char* kNames[] = {
      "call",         "send",          "multicast",        "multicast_call",
      "handle",       "handle_oneway", "read",             "write",
      "version_of",   "version_vector", "put_metadata",    "get_metadata",
      "sync",         "last_sequence", "durable_sequence", "wait_durable",
      "demote"};
  return op < std::size(kNames) ? kNames[op] : "?";
}

ThreadContext& thread_context() noexcept { return t_context; }

thread_local Recorder::Buffer* Recorder::t_buffer_ = nullptr;

Recorder::Buffer& Recorder::local() {
  if (t_buffer_ == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1 << 12);
    const std::lock_guard<std::mutex> lock(mutex_);
    buffer->thread_index = buffers_.size();
    t_buffer_ = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *t_buffer_;
}

std::uint64_t Recorder::new_id() {
  Buffer& buffer = local();
  return ((buffer.thread_index + 1) << 40) | ++buffer.next_id;
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& other) {
  for (std::size_t i = 0; i < std::size(calls); ++i) calls[i] += other.calls[i];
  store_writes += other.store_writes;
  store_write_bytes += other.store_write_bytes;
  store_syncs += other.store_syncs;
  addressed += other.addressed;
  replied += other.replied;
  return *this;
}

LayerCounts LayerCounts::operator-(const LayerCounts& other) const {
  LayerCounts out = *this;
  for (std::size_t i = 0; i < std::size(calls); ++i) {
    out.calls[i] -= other.calls[i];
  }
  out.store_writes -= other.store_writes;
  out.store_write_bytes -= other.store_write_bytes;
  out.store_syncs -= other.store_syncs;
  out.addressed -= other.addressed;
  out.replied -= other.replied;
  return out;
}

void Recorder::record(const Span& span) {
  Buffer& buffer = local();
  buffer.calls[static_cast<std::size_t>(span.layer)].add(1);
  if (span.layer == Layer::kStore) {
    const auto op = static_cast<Op>(span.op);
    if (op == Op::kWrite || op == Op::kDemote) {
      buffer.store_writes.add(1);
      buffer.store_write_bytes.add(span.bytes);
    }
    if (op == Op::kSync || op == Op::kWaitDurable) buffer.store_syncs.add(1);
  }
  if (span.layer == Layer::kFanout && span.counts_replies) {
    buffer.addressed.add(span.addressed);
    buffer.replied.add(span.replied);
  }
  if (span.request % kKeepOneIn == 0) {
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.spans.push_back(span);
  }
}

LayerCounts Recorder::counts() {
  const std::lock_guard<std::mutex> lock(mutex_);
  LayerCounts total;
  const auto get = [](const Counter& c) {
    return c.value.load(std::memory_order_relaxed);
  };
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < std::size(total.calls); ++i) {
      total.calls[i] += get(buffer->calls[i]);
    }
    total.store_writes += get(buffer->store_writes);
    total.store_write_bytes += get(buffer->store_write_bytes);
    total.store_syncs += get(buffer->store_syncs);
    total.addressed += get(buffer->addressed);
    total.replied += get(buffer->replied);
  }
  return total;
}

std::vector<Span> Recorder::collect() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

Tracer::Tracer(std::size_t clients, std::size_t blocks_per_client)
    : clients_(clients),
      blocks_per_client_(blocks_per_client),
      slots_(std::make_unique<ClientSlot[]>(clients)) {}

ClientSlot* Tracer::client_by_id(reldev::storage::SiteId from) noexcept {
  if (from < kClientIdBase || from - kClientIdBase >= clients_) return nullptr;
  return &slots_[from - kClientIdBase];
}

ClientSlot& Tracer::owner_of(reldev::storage::BlockId block) noexcept {
  const auto owner = static_cast<std::size_t>(block / blocks_per_client_);
  return slots_[owner < clients_ ? owner : clients_ - 1];
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& span : spans) {
    if (span.request == 0 || span.request % 64 != 0) continue;
    out << "{\"name\":\"" << layer_name(span.layer) << "\",\"op\":\""
        << op_name(span.op) << "\",\"site\":" << static_cast<int>(span.site)
        << ",\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"client\":" << (span.request >> 40) - 1
        << ",\"seq\":" << (span.request & ((1ull << 40) - 1))
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace devbench
