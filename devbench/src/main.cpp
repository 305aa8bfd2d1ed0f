// devbench: acknowledged block I/O against three sites wired like
// reliable_device_daemon, driven by closed-loop DriverStub clients in the
// same process. Usage (devbench/run.py builds the binary and calls it):
//
//   devbench --workload vote_small --seed 1 --seconds 10 --trace 0
//            --dir <work dir> [--commit <id>] [--tree <digest>]
//
// --trace 0 measures the end-to-end metrics with no wrapper but the
// counting one on the coordinator's store. --trace 1 alternates unwrapped
// segments and segments with every layer wrapped, and reports the
// per-layer metrics. The last line of stdout is one JSON object.
//
// Each client owns a disjoint range of blocks and runs rounds of a fixed
// number of ops drawn from the seed, with a fixed read/write mix per
// round; rounds repeat until --seconds of measurement have passed. Every
// round therefore costs the same transmissions and calls, which the run
// checks exactly.
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster.hpp"
#include "floors.hpp"
#include "trace.hpp"
#include "wrappers.hpp"

namespace devbench {
namespace {

namespace net = reldev::net;

struct Workload {
  const char* name;
  Scheme scheme;
  std::size_t clients;
  std::size_t blocks_per_op;
  double read_share;
  std::size_t round_ops;  // per client per round
};

// Why each workload exists: devbench/NOTES.md.
constexpr Workload kWorkloads[] = {
    {"vote_small", Scheme::kVoting, 4, 1, 0.70, 1000},
    {"vote_bulk", Scheme::kVoting, 4, 16, 0.50, 500},
    {"ac_single", Scheme::kAvailableCopy, 1, 1, 0.50, 2000},
};

/// A run is one segment per second of measurement, each on its own
/// set-up (setup_s is their median); at least two, and an even number so a
/// traced run can alternate untraced and traced segments.
int segment_count(double seconds) {
  const long n = std::max(2L, std::lround(seconds));
  return static_cast<int>(n + n % 2);
}
constexpr std::int64_t kWarmupNs = 300'000'000;  // unmeasured rounds first
/// Runs with less steal than this agreed as closely as runs with none.
constexpr double kQuietSteal = 0.01;

// --- inputs -----------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return splitmix(state_++ * 0x2545f4914f6cdd1dull); }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

struct DeviceOp {
  bool read = false;
  BlockId first = 0;
};

/// One client's ops for one round: exactly round(round_ops * read_share)
/// reads in seeded order, blocks uniform over the client's range.
std::vector<DeviceOp> make_round(const Workload& w, std::uint64_t seed,
                                 std::size_t client, std::size_t round) {
  Rng rng(splitmix(seed) ^ splitmix((client + 1) * 1000003ull + round));
  const std::size_t span = kBlocks / w.clients;
  const auto reads = static_cast<std::size_t>(
      std::llround(static_cast<double>(w.round_ops) * w.read_share));
  std::vector<DeviceOp> ops(w.round_ops);
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].read = i < reads;
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.below(i)]);
  }
  for (auto& op : ops) {
    op.first = client * span + rng.below(span - w.blocks_per_op + 1);
  }
  return ops;
}

/// Every 8-byte word of a written block: the write's tag mixed with the
/// block id, so a block landing in the wrong place is caught too.
std::uint64_t word_for(std::uint64_t tag, BlockId block) {
  return tag ^ (block * 0x9e3779b97f4a7c15ull);
}

void fill_block(std::byte* out, std::uint64_t tag, BlockId block) {
  const std::uint64_t word = word_for(tag, block);
  for (std::size_t i = 0; i < kBlockSize; i += sizeof word) {
    std::memcpy(out + i, &word, sizeof word);
  }
}

bool block_matches(const std::byte* data, std::uint64_t tag, BlockId block) {
  const std::uint64_t word = tag == 0 ? 0 : word_for(tag, block);
  for (std::size_t i = 0; i < kBlockSize; i += sizeof word) {
    std::uint64_t got = 0;
    std::memcpy(&got, data + i, sizeof got);
    if (got != word) return false;
  }
  return true;
}

// --- statistics -------------------------------------------------------------

double ratio(double numerator, double denominator) {
  return denominator == 0 ? 0.0 : numerator / denominator;
}

// --- one client -------------------------------------------------------------

struct ClientState {
  std::size_t index = 0;
  std::uint64_t tag_seed = 0;
  std::uint64_t seq = 0;    // op sequence, the request id's second half
  std::uint64_t writes = 0;  // tags issued
  std::vector<std::uint64_t> shadow;  // per owned block: last acked tag
  std::vector<bool> unknown;          // a failed write left it undetermined
  std::vector<std::byte> buffer;

  // Measured rounds only; latencies move to the round when it ends.
  std::vector<std::int64_t> read_ns, write_ns;
  std::uint64_t attempted = 0, failed = 0, acked_writes = 0, durable_acks = 0;
  std::uint64_t user_bytes_written = 0;
  // Every op, measured or not.
  std::uint64_t verified_reads = 0, bad_reads = 0, all_failed = 0;
  std::string first_problem;
};

class Phase {
 public:
  /// `first_seq` keeps request ids unique across the segments of a run.
  Phase(const Workload& w, std::uint64_t seed, Tracer* tracer,
        std::uint64_t first_seq)
      : w_(w), seed_(seed), tracer_(tracer) {
    const std::size_t span = kBlocks / w.clients;
    clients_.resize(w.clients);
    for (std::size_t c = 0; c < w.clients; ++c) {
      clients_[c].index = c;
      clients_[c].seq = first_seq;
      clients_[c].tag_seed = splitmix(seed ^ (0xc11e47ull + c));
      clients_[c].shadow.assign(span, 0);
      clients_[c].unknown.assign(span, false);
      clients_[c].buffer.resize(w.blocks_per_op * kBlockSize);
    }
  }

  struct Round {
    std::int64_t start_ns = 0, end_ns = 0, drained_ns = 0;
    std::uint64_t ops = 0, reads = 0, writes = 0;
    std::uint64_t failed = 0;  // ops that returned an error
    Cluster::Totals before, after;
    LayerCounts layers_before, layers_after;  // traced segments
    std::vector<std::int64_t> read_ns, write_ns;  // measured rounds
  };

  /// Prefill every block, run warm-up rounds for kWarmupNs, then measured
  /// rounds until `seconds` of round time have passed; finally drain, stop
  /// the servers and compare the sites. Returns the first failure.
  Status run(Cluster& cluster, double seconds) {
    cluster_ = &cluster;
    Status status = measure(seconds);
    cluster_ = nullptr;
    return status;
  }

  const std::vector<Round>& rounds() const { return rounds_; }
  const std::vector<Round>& warmup() const { return warmup_; }
  const std::vector<ClientState>& clients() const { return clients_; }

 private:
  Status measure(double seconds) {
    if (auto status = prefill(); !status.is_ok()) return status;
    std::int64_t warmup_ns = 0, measured_ns = 0;
    for (std::size_t r = 0;; ++r) {
      Round round;
      round.before = cluster_->totals();
      if (tracer_ != nullptr) round.layers_before = tracer_->recorder().counts();
      round.start_ns = now_ns();
      std::uint64_t failed_before = 0;
      for (const auto& client : clients_) failed_before += client.all_failed;
      const bool measured = warmup_ns >= kWarmupNs;
      run_clients([&](ClientState& client) {
        const auto ops = make_round(w_, seed_, client.index, r);
        for (const auto& op : ops) do_op(client, op, measured);
      });
      round.end_ns = now_ns();
      if (auto status = cluster_->drain(); !status.is_ok()) return status;
      round.drained_ns = now_ns();
      round.after = cluster_->totals();
      if (tracer_ != nullptr) round.layers_after = tracer_->recorder().counts();
      round.ops = w_.clients * w_.round_ops;
      round.reads = w_.clients * static_cast<std::size_t>(std::llround(
                                     static_cast<double>(w_.round_ops) *
                                     w_.read_share));
      round.writes = round.ops - round.reads;
      for (const auto& client : clients_) round.failed += client.all_failed;
      round.failed -= failed_before;
      for (auto& client : clients_) {
        round.read_ns.insert(round.read_ns.end(), client.read_ns.begin(),
                             client.read_ns.end());
        round.write_ns.insert(round.write_ns.end(), client.write_ns.begin(),
                              client.write_ns.end());
        client.read_ns.clear();
        client.write_ns.clear();
      }
      (measured ? rounds_ : warmup_).push_back(round);
      (measured ? measured_ns : warmup_ns) += round.end_ns - round.start_ns;
      if (static_cast<double>(measured_ns) >= seconds * 1e9) break;
    }
    return finish();
  }

  template <typename F>
  void run_clients(F&& body) {
    std::vector<std::thread> threads;
    threads.reserve(clients_.size());
    for (auto& client : clients_) {
      threads.emplace_back([&body, &client] { body(client); });
    }
    for (auto& thread : threads) thread.join();
  }

  void problem(ClientState& client, const std::string& what) {
    if (client.first_problem.empty()) client.first_problem = what;
  }

  Status prefill() {
    run_clients([&](ClientState& client) {
      const std::size_t span = kBlocks / w_.clients;
      const std::size_t chunk = 16;
      client.buffer.resize(chunk * kBlockSize);
      for (std::size_t at = 0; at < span; at += chunk) {
        write(client, client.index * span + at, chunk, false);
      }
      client.buffer.resize(w_.blocks_per_op * kBlockSize);
    });
    for (const auto& client : clients_) {
      if (client.all_failed != 0) {
        return reldev::errors::unavailable("prefill failed: " +
                                           client.first_problem);
      }
    }
    return cluster_->drain();
  }

  /// One write of `count` blocks at `first`.
  void write(ClientState& client, BlockId first, std::size_t count,
             bool measured) {
    const std::size_t base = client.index * (kBlocks / w_.clients);
    const std::uint64_t tag =
        splitmix(client.tag_seed + ++client.writes) | 1;  // never 0
    for (std::size_t i = 0; i < count; ++i) {
      fill_block(client.buffer.data() + i * kBlockSize, tag, first + i);
    }
    const auto start = now_ns();
    const Status status =
        count == 1
            ? cluster_->stub(client.index)
                  .write_block(first, std::span<const std::byte>(
                                          client.buffer.data(), kBlockSize))
            : cluster_->stub(client.index).write_blocks(first, client.buffer);
    const auto elapsed = now_ns() - start;
    // Checked on arrival of the ack: had the coordinator's store finished
    // a sync covering this write?
    const bool durable =
        status.is_ok() &&
        cluster_->coordinator_store().durable(first, count);
    for (std::size_t i = 0; i < count; ++i) {
      client.shadow[first + i - base] = tag;
      client.unknown[first + i - base] = !status.is_ok();
    }
    if (!status.is_ok()) {
      ++client.all_failed;
      problem(client, "write " + std::to_string(first) + ": " +
                          status.to_string());
    }
    if (measured) {
      ++client.attempted;
      if (status.is_ok()) {
        ++client.acked_writes;
        if (durable) ++client.durable_acks;
        client.user_bytes_written += count * kBlockSize;
        client.write_ns.push_back(elapsed);
      } else {
        ++client.failed;
      }
    }
  }

  void read(ClientState& client, BlockId first, bool measured) {
    const std::size_t base = client.index * (kBlocks / w_.clients);
    const std::size_t count = w_.blocks_per_op;
    const auto start = now_ns();
    auto data = count == 1 ? cluster_->stub(client.index).read_block(first)
                           : cluster_->stub(client.index).read_blocks(first,
                                                                     count);
    const auto elapsed = now_ns() - start;
    if (measured) ++client.attempted;
    if (!data) {
      ++client.all_failed;
      if (measured) ++client.failed;
      problem(client, "read " + std::to_string(first) + ": " +
                          data.status().to_string());
      return;
    }
    if (measured) client.read_ns.push_back(elapsed);
    if (data.value().size() != count * kBlockSize) {
      ++client.bad_reads;
      problem(client, "read " + std::to_string(first) + ": short payload");
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t slot = first + i - base;
      if (client.unknown[slot]) continue;
      if (!block_matches(data.value().data() + i * kBlockSize,
                         client.shadow[slot], first + i)) {
        ++client.bad_reads;
        problem(client, "read of block " + std::to_string(first + i) +
                            " does not match the last acknowledged write");
        return;
      }
    }
    ++client.verified_reads;
  }

  void do_op(ClientState& client, const DeviceOp& op, bool measured) {
    const std::uint64_t request = request_id(client.index, ++client.seq);
    if (tracer_ != nullptr) tracer_->client(client.index).request.store(request);
    const ContextScope context(request, 0);
    // Each client owns its transport, so its meter splits exactly by op.
    const net::OpScope meter_scope(
        cluster_->client_meter(client.index),
        op.read ? net::OpKind::kRead : net::OpKind::kWrite);
    if (op.read) {
      read(client, op.first, measured);
    } else {
      write(client, op.first, w_.blocks_per_op, measured);
    }
  }

  Status finish() {
    std::vector<std::byte> coordinator;
    if (auto status = cluster_->stop_and_compare_sites(coordinator);
        !status.is_ok()) {
      return status;
    }
    for (auto& client : clients_) {
      const std::size_t base = client.index * (kBlocks / w_.clients);
      for (std::size_t slot = 0; slot < client.shadow.size(); ++slot) {
        if (client.unknown[slot]) continue;
        if (!block_matches(coordinator.data() + (base + slot) * kBlockSize,
                           client.shadow[slot], base + slot)) {
          return reldev::errors::corruption(
              "block " + std::to_string(base + slot) +
              " at rest does not hold its last acknowledged write");
        }
      }
    }
    for (const auto& client : clients_) {
      if (client.bad_reads != 0) {
        return reldev::errors::corruption(client.first_problem);
      }
    }
    return Status::ok();
  }

  const Workload& w_;
  std::uint64_t seed_;
  Tracer* tracer_;
  Cluster* cluster_ = nullptr;  // during run() only
  std::vector<ClientState> clients_;
  std::vector<Round> rounds_, warmup_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

struct Summary {
  // Medians over segments of each segment's figure, its measured rounds
  // pooled: ops over round time (drain included), percentiles over all its
  // samples.
  double ops_per_s = 0;
  double read_p50_us = 0, read_p99_us = 0, write_p50_us = 0, write_p99_us = 0;
  std::uint64_t read_samples = 0, write_samples = 0, rounds = 0, segments = 0;
  std::uint64_t attempted = 0, failed = 0, acked_writes = 0, durable_acks = 0;
  std::uint64_t user_bytes_written = 0;
  std::uint64_t ops = 0, reads = 0, writes = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t verified_reads = 0;
};

std::uint64_t delta_tx(const Phase::Round& r) {
  return r.after.transmissions - r.before.transmissions;
}

using Phases = std::vector<const Phase*>;

std::vector<const Phase::Round*> measured_rounds(const Phases& phases) {
  std::vector<const Phase::Round*> rounds;
  for (const Phase* phase : phases) {
    for (const auto& round : phase->rounds()) rounds.push_back(&round);
  }
  return rounds;
}

Summary summarize(const Phases& phases) {
  Summary s;
  std::vector<double> rates, read_p50, read_p99, write_p50, write_p99;
  for (const Phase* phase : phases) {
    std::uint64_t ops = 0;
    std::int64_t round_ns = 0;
    std::vector<std::int64_t> read_ns, write_ns;
    for (const auto& round : phase->rounds()) {
      ops += round.ops;
      round_ns += round.drained_ns - round.start_ns;
      read_ns.insert(read_ns.end(), round.read_ns.begin(), round.read_ns.end());
      write_ns.insert(write_ns.end(), round.write_ns.begin(),
                      round.write_ns.end());
      ++s.rounds;
      s.reads += round.reads;
      s.writes += round.writes;
      s.transmissions += delta_tx(round);
    }
    rates.push_back(ratio(static_cast<double>(ops) * 1e9,
                          static_cast<double>(round_ns)));
    read_p50.push_back(percentile_us(read_ns, 0.50));
    read_p99.push_back(percentile_us(read_ns, 0.99));
    write_p50.push_back(percentile_us(write_ns, 0.50));
    write_p99.push_back(percentile_us(write_ns, 0.99));
    s.read_samples += read_ns.size();
    s.write_samples += write_ns.size();
    s.ops += ops;
    ++s.segments;
  }
  s.ops_per_s = median(rates);
  s.read_p50_us = median(read_p50);
  s.read_p99_us = median(read_p99);
  s.write_p50_us = median(write_p50);
  s.write_p99_us = median(write_p99);
  for (const Phase* phase : phases) {
    for (const auto& c : phase->clients()) {
      s.attempted += c.attempted;
      s.failed += c.failed;
      s.acked_writes += c.acked_writes;
      s.durable_acks += c.durable_acks;
      s.user_bytes_written += c.user_bytes_written;
      s.verified_reads += c.verified_reads;
    }
  }
  return s;
}

/// Per round: transmissions, stub calls as the client meters see them
/// (each call is one request and one reply), and coordinator store calls.
struct RoundCounts {
  std::uint64_t tx, stub_calls, store_calls;
  bool operator==(const RoundCounts&) const = default;
};

RoundCounts counts_of(const Phase::Round& r) {
  std::uint64_t client_tx = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    client_tx += r.after.client_tx[k] - r.before.client_tx[k];
  }
  return RoundCounts{delta_tx(r), client_tx / 2,
                     r.after.coordinator_store_calls -
                         r.before.coordinator_store_calls};
}

std::string describe(const RoundCounts& c) {
  return std::to_string(c.tx) + " tx, " + std::to_string(c.stub_calls) +
         " stub calls, " + std::to_string(c.store_calls) +
         " coordinator store calls";
}

/// Every round of every given phase must cost exactly the same. A round in
/// which an op failed is left out: its error replies cost differently.
Status check_rounds_repeat(const Phases& phases) {
  std::optional<RoundCounts> first;
  for (const Phase* phase : phases) {
    for (const auto* rounds : {&phase->warmup(), &phase->rounds()}) {
      for (const auto& round : *rounds) {
        if (round.failed != 0) continue;
        const RoundCounts counts = counts_of(round);
        if (!first) first = counts;
        if (!(counts == *first)) {
          return reldev::errors::internal(
              "rounds with the same op mix cost differently: " +
              describe(*first) + " vs " + describe(counts));
        }
      }
    }
  }
  return Status::ok();
}

std::vector<Metric> end_to_end(const Summary& s,
                               const std::vector<double>& setups) {
  const std::string per_segment =
      "; median over " + std::to_string(s.segments) + " segments of " +
      std::to_string(s.rounds) + " rounds in all";
  const auto n_reads = "n=" + std::to_string(s.read_samples) + per_segment;
  const auto n_writes = "n=" + std::to_string(s.write_samples) + per_segment;
  return {
      {"ops_per_s", s.ops_per_s, "ops/s",
       std::to_string(s.ops) + " ops" + per_segment},
      {"read_p50_us", s.read_p50_us, "us", n_reads},
      {"read_p99_us", s.read_p99_us, "us", n_reads},
      {"write_p50_us", s.write_p50_us, "us", n_writes},
      {"write_p99_us", s.write_p99_us, "us", n_writes},
      {"tx_per_op",
       ratio(static_cast<double>(s.transmissions), static_cast<double>(s.ops)),
       "tx/op", std::to_string(s.transmissions) + " tx after drain"},
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
  };
}

/// The two end-to-end ratios that read 0 at this commit.
std::vector<Metric> zero_ratios(const Summary& s) {
  return {
      {"failed_op_share",
       ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)),
       "ratio",
       std::to_string(s.failed) + " of " + std::to_string(s.attempted)},
      {"durable_ack_share",
       ratio(static_cast<double>(s.durable_acks),
             static_cast<double>(s.acked_writes)),
       "ratio",
       std::to_string(s.durable_acks) + " of " +
           std::to_string(s.acked_writes) + " acked writes"},
  };
}

std::vector<Metric> per_layer(const Phases& traced, const Summary& plain,
                              const Summary& s, const Floors& floors,
                              const std::vector<Span>& all_spans) {
  // Only spans that start inside a measured round (drain included).
  const auto rounds = measured_rounds(traced);
  std::vector<Span> spans;
  spans.reserve(all_spans.size());
  for (const Span& span : all_spans) {
    for (const auto* round : rounds) {
      if (span.start_ns >= round->start_ns &&
          span.start_ns < round->drained_ns) {
        spans.push_back(span);
        break;
      }
    }
  }
  std::vector<std::int64_t> call_ns, engine_ns, self_ns, fanout_ns, peer_ns,
      store_ns, hop_ns;
  std::unordered_map<std::uint64_t, std::int64_t> child_ns, call_by_request,
      engine_by_request;
  for (const Span& span : spans) {
    const auto d = span.duration_ns();
    switch (span.layer) {
      case Layer::kClientCall:
        call_ns.push_back(d);
        call_by_request[span.request] += d;
        break;
      case Layer::kEngine:
        engine_ns.push_back(d);
        engine_by_request[span.request] += d;
        break;
      case Layer::kPeer:
        peer_ns.push_back(d);
        break;
      case Layer::kFanout:
        fanout_ns.push_back(d);
        child_ns[span.parent] += d;
        break;
      case Layer::kStore:
        store_ns.push_back(d);
        child_ns[span.parent] += d;
        break;
    }
  }
  for (const Span& span : spans) {
    if (span.layer != Layer::kEngine) continue;
    const auto it = child_ns.find(span.id);
    self_ns.push_back(span.duration_ns() -
                      (it == child_ns.end() ? 0 : it->second));
  }
  for (const auto& [request, call] : call_by_request) {
    const auto it = engine_by_request.find(request);
    if (it != engine_by_request.end()) hop_ns.push_back(call - it->second);
  }

  Cluster::Totals sum;
  LayerCounts layers;
  for (const auto* round : rounds) {
    layers += round->layers_after - round->layers_before;
    for (std::size_t k = 0; k < 4; ++k) {
      sum.client_tx[k] +=
          round->after.client_tx[k] - round->before.client_tx[k];
      sum.peer_tx[k] += round->after.peer_tx[k] - round->before.peer_tx[k];
    }
    sum.pool_hits += round->after.pool_hits - round->before.pool_hits;
    sum.pool_misses += round->after.pool_misses - round->before.pool_misses;
  }
  const auto read_k = static_cast<std::size_t>(net::OpKind::kRead);
  const auto write_k = static_cast<std::size_t>(net::OpKind::kWrite);
  const double ops = static_cast<double>(s.ops);
  const auto n = [](const std::vector<std::int64_t>& v) {
    return "n=" + std::to_string(v.size());
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  std::vector<Metric> m = {
      {"core.stub.calls_per_op", ratio(d(layers.of(Layer::kClientCall)), ops),
       "calls/op", ""},
      {"net.client.call_us.p50", percentile_us(call_ns, 0.50), "us",
       n(call_ns)},
      {"net.client.call_us.p99", percentile_us(call_ns, 0.99), "us",
       n(call_ns)},
      {"net.client.pool_hit_ratio",
       ratio(d(sum.pool_hits), d(sum.pool_hits + sum.pool_misses)), "ratio",
       ""},
      {"net.tcp.hop_us", percentile_us(hop_ns, 0.50), "us", n(hop_ns)},
      {"core.engine.handle_us", percentile_us(engine_ns, 0.50), "us",
       n(engine_ns)},
      {"core.engine.self_us", percentile_us(self_ns, 0.50), "us", n(self_ns)},
      {"net.fanout.rounds_per_op", ratio(d(layers.of(Layer::kFanout)), ops),
       "rounds/op", ""},
      {"net.fanout.round_us.p50", percentile_us(fanout_ns, 0.50), "us",
       n(fanout_ns)},
      {"net.fanout.round_us.p99", percentile_us(fanout_ns, 0.99), "us",
       n(fanout_ns)},
      {"net.fanout.reply_ratio", ratio(d(layers.replied), d(layers.addressed)),
       "ratio",
       std::to_string(layers.replied) + " of " +
           std::to_string(layers.addressed)},
      {"core.peer.handle_us", percentile_us(peer_ns, 0.50), "us", n(peer_ns)},
      {"storage.store.calls_per_op", ratio(d(layers.of(Layer::kStore)), ops),
       "calls/op", ""},
      {"storage.store.call_us.p50", percentile_us(store_ns, 0.50), "us",
       n(store_ns)},
      {"storage.store.call_us.p99", percentile_us(store_ns, 0.99), "us",
       n(store_ns)},
      {"storage.store.write_bytes_per_user_byte",
       ratio(d(layers.store_write_bytes), d(s.user_bytes_written)), "ratio",
       ""},
      {"storage.store.syncs_per_write",
       ratio(d(layers.store_syncs), d(layers.store_writes)), "ratio", ""},
      {"net.tx.read_per_op",
       ratio(d(sum.client_tx[read_k] + sum.peer_tx[read_k]), d(s.reads)),
       "tx/op", ""},
      {"net.tx.write_per_op",
       ratio(d(sum.client_tx[write_k] + sum.peer_tx[write_k]), d(s.writes)),
       "tx/op", ""},
      {"floor.fsync_us", floors.fsync_us, "us", "pwrite+fsync of 4 KiB"},
      {"floor.loopback_rtt_us", floors.loopback_rtt_us, "us",
       "inline-handler TcpServer"},
      {"floor.codec_us", floors.codec_us, "us", "request+reply pair"},
      {"trace.overhead", 1.0 - ratio(s.ops_per_s, plain.ops_per_s), "ratio",
       "1 - traced/untraced ops_per_s"},
  };
  return m;
}

/// Split of the traced transmissions by op must add up to the meters.
Status check_split(const Phases& traced) {
  for (const auto* round_ptr : measured_rounds(traced)) {
    const auto& round = *round_ptr;
    std::uint64_t split = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      split += round.after.client_tx[k] - round.before.client_tx[k];
      split += round.after.peer_tx[k] - round.before.peer_tx[k];
    }
    if (split != delta_tx(round)) {
      return reldev::errors::internal(
          "transmissions split by op (" + std::to_string(split) +
          ") do not add up to the meters (" + std::to_string(delta_tx(round)) +
          ")");
    }
    const auto stub_calls =
        (round.layers_after - round.layers_before).of(Layer::kClientCall);
    if (stub_calls != counts_of(round).stub_calls) {
      return reldev::errors::internal("stub wrapper saw " +
                                      std::to_string(stub_calls) +
                                      " calls, the meters " +
                                      std::to_string(counts_of(round).stub_calls));
    }
  }
  return Status::ok();
}

// --- output -----------------------------------------------------------------

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << ' ' << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ')';
    std::cout << '\n';
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

std::string filesystem_of(const std::string& dir) {
  struct statfs info {};
  if (::statfs(dir.c_str(), &info) != 0) return "unknown";
  constexpr long kTmpfsMagic = 0x01021994;
  char text[32];
  std::snprintf(text, sizeof text, "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return info.f_type == kTmpfsMagic ? std::string("tmpfs (") + text + ")"
                                    : std::string(text);
}

/// CPU time since boot, in ticks, from the first line of /proc/stat:
/// all of it, and the share the hypervisor ran other guests instead.
struct CpuTicks {
  std::uint64_t total = 0, steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

/// Share of the CPU time since `start` that the hypervisor gave other
/// guests.
double stolen_since(const CpuTicks& start) {
  const CpuTicks end = cpu_ticks();
  return ratio(static_cast<double>(end.steal - start.steal),
               static_cast<double>(end.total - start.total));
}

/// Timings of a run on a shared host move with what its neighbours do;
/// print how much CPU time they took while it ran.
void print_host_load(const CpuTicks& start) {
  std::cout << "host: " << number(stolen_since(start))
            << " of CPU time stolen by other guests during the run\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".";
  std::string commit = "unknown";
  std::string tree = "unknown";
};

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value != "0";
      } else if (key == "--dir") {
        args.dir = value;
      } else if (key == "--commit") {
        args.commit = value;
      } else if (key == "--tree") {
        args.tree = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::cerr << "devbench: bad value for " << key << ": " << value << '\n';
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return std::nullopt;
  return args;
}

int fail(const std::string& what) {
  std::cerr << "devbench: " << what << '\n';
  return 1;
}

int run(const Args& args, const Workload& w) {
  const CpuTicks start_ticks = cpu_ticks();
  char host[256] = {};
  ::gethostname(host, sizeof host - 1);
  std::cout << "devbench " << w.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << "\nstamp: commit=" << args.commit << " tree=" << args.tree
            << " host=" << host
            << " nproc=" << std::thread::hardware_concurrency()
            << " store_fs=" << filesystem_of(args.dir) << '\n';

  ClusterOptions options;
  options.dir = args.dir;
  options.scheme = w.scheme;
  options.clients = w.clients;

  // A run is several segments, each on a freshly set-up cluster, so that
  // where the threads and connections of one set-up happen to land does
  // not decide the whole run's figures.
  std::vector<std::unique_ptr<Phase>> done;
  std::vector<double> setups, steals;  // per segment, as `done`
  const auto segment = [&](Tracer* tracer, double seconds) -> Status {
    options.tracer = tracer;
    const CpuTicks ticks = cpu_ticks();
    const auto start = now_ns();
    auto cluster = Cluster::start(options);
    if (!cluster) return cluster.status();
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
    done.push_back(std::make_unique<Phase>(w, args.seed, tracer,
                                           done.size() << 28));
    const Status status = done.back()->run(*cluster.value(), seconds);
    steals.push_back(stolen_since(ticks));
    return status;
  };
  const auto phases = [&](std::size_t first, std::size_t step) {
    Phases out;
    for (std::size_t i = first; i < done.size(); i += step) {
      out.push_back(done[i].get());
    }
    return out;
  };
  // The timings come from the quiet segments: those during which other
  // guests stole under kQuietSteal of the CPU time, or no more than in the
  // median segment of the same kind, so at least half of them. A
  // neighbour busy for part of a run then leaves its figures alone.
  // Counts, failures and checks use every segment.
  struct Quiet {
    Phases phases;
    std::vector<double> setups;
  };
  const auto quiet = [&](std::size_t first, std::size_t step) {
    std::vector<double> kind;
    for (std::size_t i = first; i < steals.size(); i += step) {
      kind.push_back(steals[i]);
    }
    const double limit = median(kind);
    Quiet out;
    for (std::size_t i = first; i < steals.size(); i += step) {
      if (steals[i] >= kQuietSteal && steals[i] > limit) continue;
      out.phases.push_back(done[i].get());
      out.setups.push_back(setups[i]);
    }
    return out;
  };
  const auto print_steals = [&](std::size_t used) {
    std::cout << "segments: " << used << " of " << steals.size()
              << " timed; CPU time stolen by other guests per segment:";
    for (const double stolen : steals) std::cout << ' ' << number(stolen);
    std::cout << '\n';
  };

  Status status;
  if (!args.trace) {
    const int segments = segment_count(args.seconds);
    for (int i = 0; i < segments && status.is_ok(); ++i) {
      status = segment(nullptr, args.seconds / segments);
    }
    if (status.is_ok()) status = check_rounds_repeat(phases(0, 1));
    const Summary all = summarize(phases(0, 1));
    const Quiet used = quiet(0, 1);
    const auto metrics = end_to_end(summarize(used.phases), used.setups);
    std::cout << "end-to-end:\n";
    print_metrics(metrics);
    print_metrics(zero_ratios(all));
    print_host_load(start_ticks);
    print_steals(used.phases.size());
    std::cout << "checks: " << all.verified_reads << " reads verified; "
              << (status.is_ok() ? "sites identical, rounds repeat exactly"
                                 : status.to_string())
              << '\n';
    print_result(status.is_ok(), all.attempted, all.failed, metrics);
    return status.is_ok() ? 0 : fail(status.to_string());
  }

  auto floors = measure_floors(args.dir, w.blocks_per_op, w.read_share);
  if (!floors) return fail("floors: " + floors.status().to_string());

  // Unwrapped and wrapped segments alternate; each starts from fresh
  // stores, so all of them replay the same rounds from the same state.
  Tracer tracer(w.clients, kBlocks / w.clients);
  const int segments = segment_count(args.seconds);
  for (int i = 0; i < segments && status.is_ok(); ++i) {
    status = segment(i % 2 == 0 ? nullptr : &tracer, args.seconds / segments);
  }
  const Phases plain = quiet(0, 2).phases;
  const Phases traced = quiet(1, 2).phases;
  if (status.is_ok()) status = check_rounds_repeat(phases(0, 1));
  if (status.is_ok()) status = check_split(phases(1, 2));

  const Summary all_plain = summarize(phases(0, 2));
  const Summary all_traced = summarize(phases(1, 2));
  const auto spans = tracer.recorder().collect();
  auto metrics = per_layer(traced, summarize(plain), summarize(traced),
                           floors.value(), spans);
  for (auto& zero : zero_ratios(all_plain)) metrics.push_back(std::move(zero));
  const std::string trace_file = args.dir + "/trace-" + w.name + ".jsonl";
  if (!write_spans_jsonl(trace_file, spans)) {
    std::cerr << "devbench: could not write " << trace_file << '\n';
  }
  std::cout << "per-layer (" << measured_rounds(traced).size()
            << " traced rounds, " << measured_rounds(plain).size()
            << " untraced; " << spans.size() << " spans kept, of 1 request in "
            << kKeepOneIn << "; 1 in 64 written to " << trace_file << "):\n";
  print_metrics(metrics);
  print_host_load(start_ticks);
  print_steals(plain.size() + traced.size());
  std::cout << "checks: "
            << all_plain.verified_reads + all_traced.verified_reads
            << " reads verified; "
            << (status.is_ok() ? "sites identical, traced and untraced rounds "
                                 "cost the same calls and transmissions"
                               : status.to_string())
            << '\n';
  print_result(status.is_ok(), all_traced.attempted, all_traced.failed,
               metrics);
  return status.is_ok() ? 0 : fail(status.to_string());
}

}  // namespace
}  // namespace devbench

int main(int argc, char** argv) {
  using namespace devbench;
  const auto args = parse(argc, argv);
  if (!args) {
    return fail(
        "usage: devbench --workload <vote_small|vote_bulk|ac_single> "
        "--seed <n> --seconds <s> --trace <0|1> --dir <work dir>");
  }
  for (const auto& w : kWorkloads) {
    if (args->workload == w.name) return run(*args, w);
  }
  return fail("unknown workload '" + args->workload + "'");
}
