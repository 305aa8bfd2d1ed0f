// Forwarding wrappers around the public interfaces of each layer. They
// change nothing but time: every virtual is forwarded to the wrapped
// object, and the run checks that calls and transmissions per op match the
// unwrapped run exactly.
//
//   CountingStore   coordinator storage::BlockStore, both runs: call count
//                   and which writes a finished sync()/wait_durable()
//                   covered. It never syncs on its own.
//   TracedStore     every replica's storage::BlockStore (traced run)
//   TracedTransport the stub's and every replica's net::Transport (traced)
//   TracedHandler   every site's net::MessageHandler (traced run)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "reldev/net/traffic.hpp"
#include "reldev/net/transport.hpp"
#include "reldev/storage/block_store.hpp"
#include "trace.hpp"

namespace devbench {

using reldev::Result;
using reldev::Status;
using reldev::net::Message;
using reldev::storage::BlockId;
using reldev::storage::BlockStore;
using reldev::storage::CommitSequence;
using reldev::storage::SiteId;

class CountingStore final : public BlockStore {
 public:
  CountingStore(BlockStore& inner, std::size_t block_count);

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return inner_.block_count();
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return inner_.block_size();
  }
  [[nodiscard]] Result<reldev::storage::VersionedBlock> read(
      BlockId block) const override;
  [[nodiscard]] Status write(BlockId block, std::span<const std::byte> data,
                             reldev::storage::VersionNumber version) override;
  [[nodiscard]] Result<reldev::storage::VersionNumber> version_of(
      BlockId block) const override;
  [[nodiscard]] reldev::storage::VersionVector version_vector() const override;
  [[nodiscard]] Status put_metadata(std::span<const std::byte> blob) override;
  [[nodiscard]] Result<std::vector<std::byte>> get_metadata() const override;
  [[nodiscard]] Status sync() override;
  [[nodiscard]] CommitSequence last_sequence() const noexcept override;
  [[nodiscard]] CommitSequence durable_sequence() const noexcept override;
  [[nodiscard]] Status wait_durable(CommitSequence sequence) override;
  [[nodiscard]] Status demote(BlockId block) override;

  /// Calls made through this wrapper (geometry getters excluded).
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_.load(); }
  /// True when the latest write of every block in [first, first + count)
  /// completed before a sync()/wait_durable() that has since returned OK.
  [[nodiscard]] bool durable(BlockId first, std::size_t count) const noexcept;

 private:
  void count() const noexcept { calls_.fetch_add(1, std::memory_order_relaxed); }
  void wrote(BlockId block) noexcept;
  void covered(std::uint64_t upto) noexcept;

  BlockStore& inner_;
  std::size_t block_count_;
  mutable std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> writes_done_{0};
  std::atomic<std::uint64_t> durable_upto_{0};
  // Per block: writes_done_ stamp of its latest completed write (0 = none).
  std::unique_ptr<std::atomic<std::uint64_t>[]> last_write_;
};

class TracedStore final : public BlockStore {
 public:
  TracedStore(BlockStore& inner, Recorder& recorder, SiteId site)
      : inner_(inner), recorder_(recorder), site_(site) {}

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return inner_.block_count();
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return inner_.block_size();
  }
  [[nodiscard]] Result<reldev::storage::VersionedBlock> read(
      BlockId block) const override;
  [[nodiscard]] Status write(BlockId block, std::span<const std::byte> data,
                             reldev::storage::VersionNumber version) override;
  [[nodiscard]] Result<reldev::storage::VersionNumber> version_of(
      BlockId block) const override;
  [[nodiscard]] reldev::storage::VersionVector version_vector() const override;
  [[nodiscard]] Status put_metadata(std::span<const std::byte> blob) override;
  [[nodiscard]] Result<std::vector<std::byte>> get_metadata() const override;
  [[nodiscard]] Status sync() override;
  [[nodiscard]] CommitSequence last_sequence() const noexcept override;
  [[nodiscard]] CommitSequence durable_sequence() const noexcept override;
  [[nodiscard]] Status wait_durable(CommitSequence sequence) override;
  [[nodiscard]] Status demote(BlockId block) override;

 private:
  template <typename F>
  auto timed(Op op, std::uint32_t bytes, F&& forward) const;

  BlockStore& inner_;
  Recorder& recorder_;
  SiteId site_;
};

class TracedTransport final : public reldev::net::Transport {
 public:
  enum class Role : std::uint8_t { kClient, kReplica };

  /// `owner` is the client index (kClient) or the site id (kReplica).
  TracedTransport(reldev::net::Transport& inner, Tracer& tracer, Role role,
                  std::size_t owner)
      : inner_(inner), tracer_(tracer), role_(role), owner_(owner) {}

  using Transport::multicast_call;

  [[nodiscard]] Result<Message> call(SiteId from, SiteId to,
                                     const Message& request) override;
  [[nodiscard]] Status send(SiteId from, SiteId to,
                            const Message& message) override;
  [[nodiscard]] Status multicast(SiteId from, const reldev::net::SiteSet& to,
                                 const Message& message) override;
  std::vector<reldev::net::GatherReply> multicast_call(
      SiteId from, const reldev::net::SiteSet& to, const Message& request,
      const reldev::net::EarlyStop& early_stop) override;

 private:
  [[nodiscard]] Span open(Op op, std::uint16_t addressed);
  void close(Span& span);

  reldev::net::Transport& inner_;
  Tracer& tracer_;
  Role role_;
  std::size_t owner_;
};

class TracedHandler final : public reldev::net::MessageHandler {
 public:
  TracedHandler(reldev::net::MessageHandler& inner, Tracer& tracer,
                SiteId site)
      : inner_(inner), tracer_(tracer), site_(site) {}

  Message handle(const Message& request) override;
  void handle_oneway(const Message& message) override;

  /// Transmissions of the peer requests this site served (request plus
  /// reply), by the operation that caused them. Peer traffic is caused by
  /// the coordinator's fan-out, so these split that transport's meter.
  [[nodiscard]] std::uint64_t peer_transmissions(
      reldev::net::OpKind kind) const noexcept {
    return peer_tx_[static_cast<std::size_t>(kind)].load();
  }

 private:
  template <typename F>
  auto traced(const Message& message, Op op, std::uint64_t transmissions,
              F&& forward);

  reldev::net::MessageHandler& inner_;
  Tracer& tracer_;
  SiteId site_;
  std::array<std::atomic<std::uint64_t>, 4> peer_tx_{};
};

}  // namespace devbench
