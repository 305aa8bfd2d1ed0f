// Three sites and their clients in one process, wired the way
// reliable_device_daemon and block_client wire them: a FileBlockStore per
// site, default reactor ServerOptions, one TcpPeerTransport per site with
// the daemon's 5 s call timeout, GroupConfig::majority(3, ...), and one
// TcpPeerTransport + DriverStub per client with the default RetryPolicy
// and server list {0, 1, 2}.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "reldev/core/driver_stub.hpp"
#include "reldev/net/traffic.hpp"
#include "reldev/storage/file_block_store.hpp"
#include "trace.hpp"
#include "wrappers.hpp"

namespace devbench {

inline constexpr std::size_t kSites = 3;
inline constexpr std::size_t kBlocks = 4096;     // 16 MiB per site
inline constexpr std::size_t kBlockSize = 4096;  // bytes
/// reliable_device_daemon --call-timeout-ms default.
inline constexpr std::chrono::milliseconds kCallTimeout{5000};

enum class Scheme : std::uint8_t { kVoting, kAvailableCopy };

struct ClusterOptions {
  std::string dir;  // store files live here
  Scheme scheme = Scheme::kVoting;
  std::size_t clients = 1;
  Tracer* tracer = nullptr;  // set: wrap every layer for the traced run
};

class Cluster {
 public:
  /// Create the stores, start the servers, connect the clients.
  static Result<std::unique_ptr<Cluster>> start(const ClusterOptions& options);

  /// Disconnects clients, stops servers, deletes the store files.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::size_t clients() const noexcept { return clients_.size(); }
  [[nodiscard]] reldev::core::DriverStub& stub(std::size_t client);
  [[nodiscard]] reldev::net::TrafficMeter& client_meter(std::size_t client);

  /// Counters summed over the whole cluster.
  struct Totals {
    std::uint64_t transmissions = 0;   // every TrafficMeter, client and site
    std::uint64_t client_tx[4] = {};   // client meters by net::OpKind
    std::uint64_t peer_tx[4] = {};     // traced run: peer traffic by OpKind
    std::uint64_t served_frames = 0;   // every server
    std::uint64_t coordinator_store_calls = 0;
    std::uint64_t pool_hits = 0;       // client channels
    std::uint64_t pool_misses = 0;
  };
  [[nodiscard]] Totals totals() const;

  /// The counting wrapper on site 0's store (present in both runs).
  [[nodiscard]] const CountingStore& coordinator_store() const;

  /// Wait until every transmission in flight has landed: all requests
  /// served and all replies (early-stop stragglers included) metered.
  /// Call with the clients idle. Fails if the meters then do not read
  /// exactly twice the frames served.
  [[nodiscard]] Status drain();

  /// Stop the servers, then require all three stores to hold the same
  /// version and bytes for every block. `coordinator` receives site 0's
  /// payloads, block after block, for the caller's own checks.
  [[nodiscard]] Status stop_and_compare_sites(
      std::vector<std::byte>& coordinator);

 private:
  struct Site;
  struct Client;
  Cluster() = default;

  std::vector<std::unique_ptr<Site>> sites_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::string> files_;
};

}  // namespace devbench
