#include "floors.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "cluster.hpp"
#include "reldev/net/message.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"
#include "trace.hpp"

namespace devbench {

namespace net = reldev::net;
namespace errors = reldev::errors;

namespace {

reldev::Result<double> fsync_floor(const std::string& dir) {
  constexpr int kWarmup = 3;
  constexpr int kSamples = 40;
  const std::string path = dir + "/floor-fsync.dat";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return errors::io_error("cannot create " + path + ": " +
                            std::strerror(errno));
  }
  std::vector<unsigned char> record(4096);
  std::vector<std::int64_t> samples;
  reldev::Status status;
  for (int i = 0; i < kWarmup + kSamples && status.is_ok(); ++i) {
    std::fill(record.begin(), record.end(), static_cast<unsigned char>(i));
    const auto start = now_ns();
    if (::pwrite(fd, record.data(), record.size(), 0) !=
            static_cast<ssize_t>(record.size()) ||
        ::fsync(fd) != 0) {
      status = errors::io_error("fsync floor: " +
                                std::string(std::strerror(errno)));
      break;
    }
    if (i >= kWarmup) samples.push_back(now_ns() - start);
  }
  ::close(fd);
  std::remove(path.c_str());
  if (!status.is_ok()) return status;
  return percentile_us(std::move(samples), 0.50);
}

/// Answers every request with a fixed reply, inline on the event loop.
class EchoHandler final : public net::MessageHandler {
 public:
  net::Message handle(const net::Message&) override {
    return net::Message{0, net::DeviceInfoReply{kBlocks, kBlockSize}};
  }
  void handle_oneway(const net::Message&) override {}
};

reldev::Result<double> loopback_floor() {
  constexpr int kWarmup = 200;
  constexpr int kSamples = 2000;
  EchoHandler handler;
  net::tcp::ServerOptions options;
  options.inline_handlers = true;
  auto server = net::tcp::TcpServer::start(0, &handler, options);
  if (!server) return server.status();
  net::tcp::TcpChannel channel("127.0.0.1", server.value()->port(),
                               kCallTimeout);
  const net::Message request{kClientIdBase, net::DeviceInfoRequest{}};
  std::vector<std::int64_t> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kWarmup + kSamples; ++i) {
    const auto start = now_ns();
    auto reply = channel.call(request);
    if (!reply) return reply.status();
    if (i >= kWarmup) samples.push_back(now_ns() - start);
  }
  return percentile_us(std::move(samples), 0.50);
}

/// Median time to encode and decode `request` and `reply`.
reldev::Result<double> codec_pair_us(const net::Message& request,
                                     const net::Message& reply) {
  constexpr int kWarmup = 100;
  constexpr int kSamples = 2000;
  std::vector<std::int64_t> samples;
  samples.reserve(kSamples);
  for (int i = 0; i < kWarmup + kSamples; ++i) {
    const auto start = now_ns();
    const auto request_bytes = request.encode();
    auto decoded_request = net::Message::decode(request_bytes);
    const auto reply_bytes = reply.encode();
    auto decoded_reply = net::Message::decode(reply_bytes);
    const auto elapsed = now_ns() - start;
    if (!decoded_request) return decoded_request.status();
    if (!decoded_reply) return decoded_reply.status();
    if (i >= kWarmup) samples.push_back(elapsed);
  }
  return percentile_us(std::move(samples), 0.50);
}

reldev::Result<double> codec_floor(std::size_t blocks_per_op,
                                   double read_share) {
  const SiteId client = kClientIdBase;
  const net::BlockData payload(blocks_per_op * kBlockSize, std::byte{0x5a});
  net::Message read_request, read_reply, write_request, write_reply;
  if (blocks_per_op == 1) {
    read_request = net::Message{client, net::ClientReadRequest{7}};
    read_reply = net::Message{0, net::ClientReadReply{0, payload}};
    write_request = net::Message{client, net::ClientWriteRequest{7, payload}};
    write_reply = net::Message{0, net::ClientWriteReply{0}};
  } else {
    const auto count = static_cast<std::uint32_t>(blocks_per_op);
    read_request = net::Message{client, net::MultiBlockReadRequest{7, count}};
    read_reply = net::Message{0, net::MultiBlockReadReply{0, payload}};
    write_request =
        net::Message{client, net::MultiBlockWriteRequest{7, payload}};
    write_reply = net::Message{0, net::MultiBlockWriteAck{0}};
  }
  auto read = codec_pair_us(read_request, read_reply);
  if (!read) return read.status();
  auto write = codec_pair_us(write_request, write_reply);
  if (!write) return write.status();
  return read_share * read.value() + (1.0 - read_share) * write.value();
}

}  // namespace

reldev::Result<Floors> measure_floors(const std::string& dir,
                                      std::size_t blocks_per_op,
                                      double read_share) {
  Floors floors;
  auto fsync_us = fsync_floor(dir);
  if (!fsync_us) return fsync_us.status();
  floors.fsync_us = fsync_us.value();
  auto rtt_us = loopback_floor();
  if (!rtt_us) return rtt_us.status();
  floors.loopback_rtt_us = rtt_us.value();
  auto codec_us = codec_floor(blocks_per_op, read_share);
  if (!codec_us) return codec_us.status();
  floors.codec_us = codec_us.value();
  return floors;
}

}  // namespace devbench
