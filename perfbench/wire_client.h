// Minimal blocking client of the QRE service's framed protocol, with the
// client-side timings the benchmark reports for one submitted job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay.h"
#include "server/protocol.h"
#include "stats_util.h"

namespace perfbench {

/// Client-side view of one job, from encoding its submit to reading `done`.
/// Times are µs on NowUs()'s clock.
struct WireJob {
  double written_us = 0;       // the submit frame is fully written
  double accepted_us = 0;      // the `accepted` frame is decoded
  double first_answer_us = 0;  // the first `answer` frame is decoded
  double done_us = 0;          // the `done` frame is decoded
  double encode_us = 0;        // SerializeRequest + EncodeFrame
  double decode_us = 0;        // FrameReader::Next + ParseResponse, all frames
  uint64_t frames = 0;         // response frames decoded
  uint64_t request_bytes = 0;  // encoded submit frame
  double first_engine_s = 0;   // total_seconds of the first answer
  double last_engine_s = 0;    // total_seconds of the last answer
  uint64_t rejections = 0;     // retryable admission errors absorbed
  std::vector<AnswerKey> answers;
};

class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects to the loopback port; false on failure.
  bool Connect(uint16_t port);
  void Close();

  /// Submits `req` and reads its stream to `done`, retrying retryable
  /// admission errors. Returns an empty string on success, else what went
  /// wrong (transport error, non-retryable error, malformed stream). When
  /// `trace` is given, the job's client-side spans are added under
  /// `request`.
  std::string RunJob(const fastqre::Request& req, WireJob* job, Trace* trace,
                     uint64_t request);

 private:
  bool SendAll(const std::string& frame);
  /// Reads and decodes the next response frame; adds the decode time.
  bool Read(fastqre::Response* resp, double* decode_us);

  int fd_ = -1;
  fastqre::FrameReader reader_;
};

}  // namespace perfbench
