#include "wrappers.hpp"

#include <optional>
#include <type_traits>

namespace devbench {

namespace net = reldev::net;
namespace storage = reldev::storage;

// --- CountingStore -----------------------------------------------------------

CountingStore::CountingStore(BlockStore& inner, std::size_t block_count)
    : inner_(inner),
      block_count_(block_count),
      last_write_(std::make_unique<std::atomic<std::uint64_t>[]>(block_count)) {}

void CountingStore::wrote(BlockId block) noexcept {
  if (block >= block_count_) return;
  const auto stamp = writes_done_.fetch_add(1) + 1;
  last_write_[block].store(stamp);
}

void CountingStore::covered(std::uint64_t upto) noexcept {
  auto seen = durable_upto_.load();
  while (seen < upto && !durable_upto_.compare_exchange_weak(seen, upto)) {
  }
}

bool CountingStore::durable(BlockId first, std::size_t count) const noexcept {
  const auto upto = durable_upto_.load();
  for (std::size_t i = 0; i < count; ++i) {
    if (first + i >= block_count_) return false;
    const auto stamp = last_write_[first + i].load();
    if (stamp == 0 || stamp > upto) return false;
  }
  return true;
}

Result<storage::VersionedBlock> CountingStore::read(BlockId block) const {
  count();
  return inner_.read(block);
}

Status CountingStore::write(BlockId block, std::span<const std::byte> data,
                            storage::VersionNumber version) {
  count();
  auto status = inner_.write(block, data, version);
  if (status.is_ok()) wrote(block);
  return status;
}

Result<storage::VersionNumber> CountingStore::version_of(BlockId block) const {
  count();
  return inner_.version_of(block);
}

storage::VersionVector CountingStore::version_vector() const {
  count();
  return inner_.version_vector();
}

Status CountingStore::put_metadata(std::span<const std::byte> blob) {
  count();
  return inner_.put_metadata(blob);
}

Result<std::vector<std::byte>> CountingStore::get_metadata() const {
  count();
  return inner_.get_metadata();
}

Status CountingStore::sync() {
  count();
  // Writes completed before the sync starts are the ones it covers.
  const auto upto = writes_done_.load();
  auto status = inner_.sync();
  if (status.is_ok()) covered(upto);
  return status;
}

CommitSequence CountingStore::last_sequence() const noexcept {
  count();
  return inner_.last_sequence();
}

CommitSequence CountingStore::durable_sequence() const noexcept {
  count();
  return inner_.durable_sequence();
}

Status CountingStore::wait_durable(CommitSequence sequence) {
  count();
  // Credit only waits that cover every write completed so far (a store
  // without sequences drains everything). A partial wait is credited with
  // nothing, which can under-count durability but never over-count it.
  const auto upto = writes_done_.load();
  const auto last = inner_.last_sequence();
  const bool whole = last == 0 || sequence >= last;
  auto status = inner_.wait_durable(sequence);
  if (status.is_ok() && whole) covered(upto);
  return status;
}

Status CountingStore::demote(BlockId block) {
  count();
  auto status = inner_.demote(block);
  if (status.is_ok()) wrote(block);
  return status;
}

// --- TracedStore -------------------------------------------------------------

template <typename F>
auto TracedStore::timed(Op op, std::uint32_t bytes, F&& forward) const {
  const ThreadContext context = thread_context();
  Span span;
  span.id = recorder_.new_id();
  span.parent = context.parent;
  span.request = context.request;
  span.layer = Layer::kStore;
  span.site = static_cast<std::uint8_t>(site_);
  span.op = static_cast<std::uint8_t>(op);
  span.bytes = bytes;
  span.start_ns = now_ns();
  auto result = forward();
  span.end_ns = now_ns();
  recorder_.record(span);
  return result;
}

Result<storage::VersionedBlock> TracedStore::read(BlockId block) const {
  return timed(Op::kRead, 0, [&] { return inner_.read(block); });
}

Status TracedStore::write(BlockId block, std::span<const std::byte> data,
                          storage::VersionNumber version) {
  return timed(Op::kWrite, static_cast<std::uint32_t>(data.size()),
               [&] { return inner_.write(block, data, version); });
}

Result<storage::VersionNumber> TracedStore::version_of(BlockId block) const {
  return timed(Op::kVersionOf, 0, [&] { return inner_.version_of(block); });
}

storage::VersionVector TracedStore::version_vector() const {
  return timed(Op::kVersionVector, 0, [&] { return inner_.version_vector(); });
}

Status TracedStore::put_metadata(std::span<const std::byte> blob) {
  return timed(Op::kPutMetadata, 0, [&] { return inner_.put_metadata(blob); });
}

Result<std::vector<std::byte>> TracedStore::get_metadata() const {
  return timed(Op::kGetMetadata, 0, [&] { return inner_.get_metadata(); });
}

Status TracedStore::sync() {
  return timed(Op::kSync, 0, [&] { return inner_.sync(); });
}

CommitSequence TracedStore::last_sequence() const noexcept {
  return timed(Op::kLastSequence, 0, [&] { return inner_.last_sequence(); });
}

CommitSequence TracedStore::durable_sequence() const noexcept {
  return timed(Op::kDurableSequence, 0,
               [&] { return inner_.durable_sequence(); });
}

Status TracedStore::wait_durable(CommitSequence sequence) {
  return timed(Op::kWaitDurable, 0,
               [&] { return inner_.wait_durable(sequence); });
}

Status TracedStore::demote(BlockId block) {
  return timed(Op::kDemote, 0, [&] { return inner_.demote(block); });
}

// --- TracedTransport ---------------------------------------------------------

namespace {

std::uint16_t destinations(SiteId from, const net::SiteSet& to) {
  return static_cast<std::uint16_t>(to.size() - to.count(from));
}

}  // namespace

Span TracedTransport::open(Op op, std::uint16_t addressed) {
  const ThreadContext context = thread_context();
  Span span;
  span.id = tracer_.recorder().new_id();
  span.parent = context.parent;
  span.request = context.request;
  span.layer = role_ == Role::kClient ? Layer::kClientCall : Layer::kFanout;
  span.site = static_cast<std::uint8_t>(owner_);
  span.op = static_cast<std::uint8_t>(op);
  span.addressed = addressed;
  // Publish the span so the handler wrapper on the far side can parent to
  // it: the coordinator finds the stub call through Message::from, a peer
  // finds the fan-out through the block's owning client.
  if (role_ == Role::kClient) {
    tracer_.client(owner_).call_span.store(span.id);
  } else if (span.request != 0) {
    tracer_.client(static_cast<std::size_t>(span.request >> 40) - 1)
        .fanout_span.store(span.id);
  }
  span.start_ns = now_ns();
  return span;
}

void TracedTransport::close(Span& span) {
  span.end_ns = now_ns();
  tracer_.recorder().record(span);
}

Result<Message> TracedTransport::call(SiteId from, SiteId to,
                                      const Message& request) {
  Span span = open(Op::kCall, 1);
  auto reply = [&] {
    const ContextScope scope(span.request, span.id);
    return inner_.call(from, to, request);
  }();
  span.counts_replies = true;
  span.replied = reply.is_ok() ? 1 : 0;
  close(span);
  return reply;
}

Status TracedTransport::send(SiteId from, SiteId to, const Message& message) {
  Span span = open(Op::kSend, 1);
  auto status = [&] {
    const ContextScope scope(span.request, span.id);
    return inner_.send(from, to, message);
  }();
  close(span);
  return status;
}

Status TracedTransport::multicast(SiteId from, const net::SiteSet& to,
                                  const Message& message) {
  Span span = open(Op::kMulticast, destinations(from, to));
  auto status = [&] {
    const ContextScope scope(span.request, span.id);
    return inner_.multicast(from, to, message);
  }();
  close(span);
  return status;
}

std::vector<net::GatherReply> TracedTransport::multicast_call(
    SiteId from, const net::SiteSet& to, const Message& request,
    const net::EarlyStop& early_stop) {
  Span span = open(Op::kMulticastCall, destinations(from, to));
  auto replies = [&] {
    const ContextScope scope(span.request, span.id);
    return inner_.multicast_call(from, to, request, early_stop);
  }();
  span.counts_replies = true;
  span.replied = static_cast<std::uint16_t>(replies.size());
  close(span);
  return replies;
}

// --- TracedHandler -----------------------------------------------------------

namespace {

/// The block a peer request is about, used to find the request's client.
std::optional<BlockId> block_of(const Message& message) {
  if (message.holds<net::VoteRequest>()) {
    return message.as<net::VoteRequest>().block;
  }
  if (message.holds<net::RangeVoteRequest>()) {
    return message.as<net::RangeVoteRequest>().first;
  }
  if (message.holds<net::BlockUpdate>()) {
    return message.as<net::BlockUpdate>().block;
  }
  if (message.holds<net::WriteAllRequest>()) {
    return message.as<net::WriteAllRequest>().block;
  }
  if (message.holds<net::BlockFetchRequest>()) {
    return message.as<net::BlockFetchRequest>().block;
  }
  if (message.holds<net::BatchWriteRequest>()) {
    const auto& updates = message.as<net::BatchWriteRequest>().updates;
    if (!updates.empty()) return updates.front().block;
  }
  if (message.holds<net::BatchFetchRequest>()) {
    const auto& blocks = message.as<net::BatchFetchRequest>().blocks;
    if (!blocks.empty()) return blocks.front();
  }
  return std::nullopt;
}

/// The device operation a peer request serves: votes say so, pushes are
/// writes, fetches repair a read.
net::OpKind kind_of(const Message& message) {
  if (message.holds<net::VoteRequest>()) {
    return message.as<net::VoteRequest>().access == net::AccessKind::kRead
               ? net::OpKind::kRead
               : net::OpKind::kWrite;
  }
  if (message.holds<net::RangeVoteRequest>()) {
    return message.as<net::RangeVoteRequest>().access ==
                   net::AccessKind::kRead
               ? net::OpKind::kRead
               : net::OpKind::kWrite;
  }
  if (message.holds<net::BlockUpdate>() ||
      message.holds<net::WriteAllRequest>() ||
      message.holds<net::BatchWriteRequest>()) {
    return net::OpKind::kWrite;
  }
  if (message.holds<net::BlockFetchRequest>() ||
      message.holds<net::BatchFetchRequest>()) {
    return net::OpKind::kRead;
  }
  return net::OpKind::kOther;
}

}  // namespace

template <typename F>
auto TracedHandler::traced(const Message& message, Op op,
                           std::uint64_t transmissions, F&& forward) {
  Span span;
  span.id = tracer_.recorder().new_id();
  span.site = static_cast<std::uint8_t>(site_);
  span.op = static_cast<std::uint8_t>(op);
  if (ClientSlot* client = tracer_.client_by_id(message.from)) {
    span.layer = Layer::kEngine;
    span.request = client->request.load();
    span.parent = client->call_span.load();
  } else {
    span.layer = Layer::kPeer;
    peer_tx_[static_cast<std::size_t>(kind_of(message))].fetch_add(
        transmissions, std::memory_order_relaxed);
    if (const auto block = block_of(message)) {
      ClientSlot& owner = tracer_.owner_of(*block);
      span.request = owner.request.load();
      span.parent = owner.fanout_span.load();
    }
  }
  const ContextScope scope(span.request, span.id);
  span.start_ns = now_ns();
  if constexpr (std::is_void_v<decltype(forward())>) {
    forward();
    span.end_ns = now_ns();
    tracer_.recorder().record(span);
  } else {
    auto result = forward();
    span.end_ns = now_ns();
    tracer_.recorder().record(span);
    return result;
  }
}

Message TracedHandler::handle(const Message& request) {
  // A served request costs two transmissions: the request and its reply.
  return traced(request, Op::kHandle, 2,
                [&] { return inner_.handle(request); });
}

void TracedHandler::handle_oneway(const Message& message) {
  traced(message, Op::kHandleOneway, 1,
         [&] { inner_.handle_oneway(message); });
}

}  // namespace devbench
