#include "cluster.hpp"

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>

#include "reldev/core/available_copy_replica.hpp"
#include "reldev/core/voting_replica.hpp"
#include "reldev/net/fanout.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"

namespace devbench {

namespace core = reldev::core;
namespace net = reldev::net;
namespace storage = reldev::storage;
namespace tcp = reldev::net::tcp;

struct Cluster::Site {
  std::unique_ptr<storage::FileBlockStore> file;
  std::unique_ptr<CountingStore> counting;  // site 0 only
  std::unique_ptr<TracedStore> traced_store;
  net::TrafficMeter meter;
  std::unique_ptr<tcp::TcpPeerTransport> transport;
  std::unique_ptr<TracedTransport> traced_transport;
  std::unique_ptr<core::ReplicaBase> replica;
  std::unique_ptr<TracedHandler> handler;
  std::unique_ptr<tcp::TcpServer> server;
};

struct Cluster::Client {
  net::TrafficMeter meter;
  std::unique_ptr<tcp::TcpPeerTransport> transport;
  std::unique_ptr<TracedTransport> traced;
  std::optional<core::DriverStub> stub;
};

Result<std::unique_ptr<Cluster>> Cluster::start(const ClusterOptions& options) {
  std::unique_ptr<Cluster> cluster(new Cluster());
  const auto config = core::GroupConfig::majority(kSites, kBlocks, kBlockSize);

  for (std::size_t s = 0; s < kSites; ++s) {
    const auto id = static_cast<SiteId>(s);
    auto site = std::make_unique<Site>();
    const std::string path =
        options.dir + "/site" + std::to_string(s) + ".rdev";
    std::remove(path.c_str());
    auto created = storage::FileBlockStore::create(path, kBlocks, kBlockSize);
    if (!created) return created.status();
    cluster->files_.push_back(path);
    site->file = std::move(created).value();

    BlockStore* store = site->file.get();
    if (s == 0) {
      site->counting = std::make_unique<CountingStore>(*store, kBlocks);
      store = site->counting.get();
    }
    if (options.tracer != nullptr) {
      site->traced_store = std::make_unique<TracedStore>(
          *store, options.tracer->recorder(), id);
      store = site->traced_store.get();
    }

    site->transport = std::make_unique<tcp::TcpPeerTransport>();
    site->transport->set_call_timeout(kCallTimeout);
    site->transport->set_traffic_meter(&site->meter);
    net::Transport* transport = site->transport.get();
    if (options.tracer != nullptr) {
      site->traced_transport = std::make_unique<TracedTransport>(
          *transport, *options.tracer, TracedTransport::Role::kReplica, s);
      transport = site->traced_transport.get();
    }

    if (options.scheme == Scheme::kVoting) {
      site->replica = std::make_unique<core::VotingReplica>(id, config, *store,
                                                            *transport);
    } else {
      site->replica = std::make_unique<core::AvailableCopyReplica>(
          id, config, *store, *transport);
    }
    net::MessageHandler* handler = site->replica.get();
    if (options.tracer != nullptr) {
      site->handler =
          std::make_unique<TracedHandler>(*handler, *options.tracer, id);
      handler = site->handler.get();
    }
    auto server = tcp::TcpServer::start(0, handler, tcp::ServerOptions{});
    if (!server) return server.status();
    site->server = std::move(server).value();
    cluster->sites_.push_back(std::move(site));
  }
  // The daemon learns its peers from --peers before it listens; here the
  // ports are ephemeral, so the endpoints follow the listeners.
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::size_t peer = 0; peer < kSites; ++peer) {
      if (peer == s) continue;
      cluster->sites_[s]->transport->set_endpoint(
          static_cast<SiteId>(peer), "127.0.0.1",
          cluster->sites_[peer]->server->port());
    }
  }

  std::vector<SiteId> servers;
  for (std::size_t s = 0; s < kSites; ++s) {
    servers.push_back(static_cast<SiteId>(s));
  }
  for (std::size_t c = 0; c < options.clients; ++c) {
    auto client = std::make_unique<Client>();
    client->transport = std::make_unique<tcp::TcpPeerTransport>();
    client->transport->set_traffic_meter(&client->meter);
    for (std::size_t s = 0; s < kSites; ++s) {
      client->transport->set_endpoint(static_cast<SiteId>(s), "127.0.0.1",
                                      cluster->sites_[s]->server->port());
    }
    net::Transport* transport = client->transport.get();
    if (options.tracer != nullptr) {
      client->traced = std::make_unique<TracedTransport>(
          *transport, *options.tracer, TracedTransport::Role::kClient, c);
      transport = client->traced.get();
    }
    auto stub = core::DriverStub::connect(
        *transport, static_cast<SiteId>(kClientIdBase + c), servers);
    if (!stub) return stub.status();
    client->stub.emplace(std::move(stub).value());
    cluster->clients_.push_back(std::move(client));
  }
  return cluster;
}

Cluster::~Cluster() {
  clients_.clear();
  // Stop every listener before any replica or transport goes away, so no
  // handler runs against a half-destroyed site.
  for (auto& site : sites_) site->server.reset();
  while (!sites_.empty()) sites_.pop_back();
  for (const auto& path : files_) std::remove(path.c_str());
}

core::DriverStub& Cluster::stub(std::size_t client) {
  return *clients_.at(client)->stub;
}

net::TrafficMeter& Cluster::client_meter(std::size_t client) {
  return clients_.at(client)->meter;
}

const CountingStore& Cluster::coordinator_store() const {
  return *sites_.front()->counting;
}

Cluster::Totals Cluster::totals() const {
  Totals totals;
  for (const auto& client : clients_) {
    totals.transmissions += client->meter.total();
    for (std::size_t k = 0; k < 4; ++k) {
      totals.client_tx[k] += client->meter.count(static_cast<net::OpKind>(k));
    }
    totals.pool_hits += client->transport->pool_hits();
    totals.pool_misses += client->transport->pool_misses();
  }
  for (const auto& site : sites_) {
    totals.transmissions += site->meter.total();
    if (site->server) totals.served_frames += site->server->served_frames();
    if (site->handler) {
      for (std::size_t k = 0; k < 4; ++k) {
        totals.peer_tx[k] +=
            site->handler->peer_transmissions(static_cast<net::OpKind>(k));
      }
    }
  }
  totals.coordinator_store_calls = sites_.front()->counting->calls();
  return totals;
}

namespace {

/// Returns once every task submitted to the shared fan-out pool before the
/// call has finished. It parks one blocker on every worker: the pool hands
/// out tasks in submission order, so when all blockers run at once, no
/// earlier task is still queued or running. Fails if that takes longer
/// than `timeout`; the blockers then give up too.
Status fanout_barrier(std::chrono::milliseconds timeout) {
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t arrived = 0;
  };
  auto& pool = net::FanOut::shared();
  const std::size_t workers = pool.thread_count();
  auto latch = std::make_shared<Latch>();
  const auto deadline = Clock::now() + timeout;
  for (std::size_t i = 0; i < workers; ++i) {
    pool.submit([latch, workers, deadline] {
      std::unique_lock<std::mutex> lock(latch->mutex);
      if (++latch->arrived == workers) latch->cv.notify_all();
      latch->cv.wait_until(lock, deadline,
                           [&] { return latch->arrived >= workers; });
    });
  }
  std::unique_lock<std::mutex> lock(latch->mutex);
  if (latch->cv.wait_until(lock, deadline,
                           [&] { return latch->arrived >= workers; })) {
    return Status::ok();
  }
  return reldev::errors::unavailable(
      "fan-out stragglers did not finish within " +
      std::to_string(timeout.count()) + " ms");
}

}  // namespace

Status Cluster::drain() {
  // Clients call synchronously and are idle here, so the only traffic
  // still in flight is early-stop stragglers on the fan-out pool; each
  // meters its reply before it ends. After the barrier every request is
  // metered and served and every reply metered, so the meters must read
  // exactly twice the frames served. Counting alone could not tell: one
  // straggler not yet served and another served but not yet answered also
  // read twice the frames.
  if (auto status = fanout_barrier(2 * kCallTimeout); !status.is_ok()) {
    return status;
  }
  const Totals now = totals();
  if (now.transmissions == 2 * now.served_frames) return Status::ok();
  return reldev::errors::unavailable(
      "traffic does not balance once drained: " +
      std::to_string(now.transmissions) + " transmissions metered for " +
      std::to_string(now.served_frames) +
      " frames served (a call failed or went unanswered)");
}

Status Cluster::stop_and_compare_sites(std::vector<std::byte>& coordinator) {
  for (auto& site : sites_) site->server->stop();
  coordinator.assign(kBlocks * kBlockSize, std::byte{0});
  std::size_t mismatches = 0;
  std::string first;
  for (storage::BlockId block = 0; block < kBlocks; ++block) {
    auto reference = sites_[0]->file->read(block);
    if (!reference) return reference.status();
    std::memcpy(coordinator.data() + block * kBlockSize,
                reference.value().data.data(), kBlockSize);
    for (std::size_t s = 1; s < kSites; ++s) {
      auto other = sites_[s]->file->read(block);
      if (!other) return other.status();
      if (other.value().version == reference.value().version &&
          other.value().data == reference.value().data) {
        continue;
      }
      if (mismatches++ == 0) {
        first = "block " + std::to_string(block) + ": site 0 v" +
                std::to_string(reference.value().version) + ", site " +
                std::to_string(s) + " v" +
                std::to_string(other.value().version);
      }
    }
  }
  if (mismatches != 0) {
    return reldev::errors::corruption(std::to_string(mismatches) +
                                      " site copies diverge after quiesce; " +
                                      first);
  }
  return Status::ok();
}

}  // namespace devbench
