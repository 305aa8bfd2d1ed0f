// Reference floors, measured at set-up in the benchmark's own process and
// on the filesystem that holds the stores:
//   fsync    pwrite + fsync of one 4 KiB record (the method of Mingardi &
//            Vieira, "Characterizing Synchronous Writes in Stable Memory
//            Devices")
//   loopback one client round trip through a TcpServer whose trivial
//            handler runs inline on the loop
//   codec    encode + decode of a workload's request/reply Message pair
#pragma once

#include <string>

#include "reldev/util/result.hpp"

namespace devbench {

struct Floors {
  double fsync_us = 0;
  double loopback_rtt_us = 0;
  double codec_us = 0;
};

/// `blocks_per_op` and `read_share` select the workload's message pairs:
/// codec_us is the read pair and the write pair weighted by read share.
reldev::Result<Floors> measure_floors(const std::string& dir,
                                      std::size_t blocks_per_op,
                                      double read_share);

}  // namespace devbench
