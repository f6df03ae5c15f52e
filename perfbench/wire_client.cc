#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace perfbench {

using namespace fastqre;

bool WireClient::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  reader_ = FrameReader();
  return true;
}

void WireClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool WireClient::SendAll(const std::string& frame) {
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool WireClient::Read(Response* resp, double* decode_us) {
  std::string payload;
  for (;;) {
    const double start = NowUs();
    auto next = reader_.Next(&payload);
    *decode_us += NowUs() - start;
    if (!next.ok()) return false;
    if (*next) break;
    char buf[64 << 10];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    reader_.Feed(buf, static_cast<size_t>(n));
  }
  const double start = NowUs();
  auto parsed = ParseResponse(payload);
  *decode_us += NowUs() - start;
  if (!parsed.ok()) return false;
  *resp = std::move(*parsed);
  return true;
}

std::string WireClient::RunJob(const Request& req, WireJob* job, Trace* trace,
                               uint64_t request) {
  *job = WireJob();
  const double encode_start = NowUs();
  const std::string frame = EncodeFrame(SerializeRequest(req));
  const double encode_end = NowUs();
  job->encode_us = encode_end - encode_start;
  job->request_bytes = frame.size();

  Response resp;
  for (;;) {
    if (!SendAll(frame)) return "send failed";
    job->written_us = NowUs();
    double decode = 0;
    if (!Read(&resp, &decode)) return "connection lost before accepted";
    job->decode_us += decode;
    ++job->frames;
    job->accepted_us = NowUs();
    if (resp.kind == Response::Kind::kError &&
        IsRetryableWireError(resp.error)) {
      ++job->rejections;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    break;
  }
  if (resp.kind != Response::Kind::kAccepted) {
    return std::string("submit refused: ") + WireErrorToString(resp.error) +
           " " + resp.message;
  }
  for (;;) {
    double decode = 0;
    if (!Read(&resp, &decode)) return "connection lost mid-stream";
    job->decode_us += decode;
    ++job->frames;
    if (resp.kind == Response::Kind::kAnswer) {
      if (resp.seq != job->answers.size()) return "stream gap or duplicate";
      if (job->answers.empty()) {
        job->first_answer_us = NowUs();
        job->first_engine_s = resp.answer.total_seconds;
      }
      job->last_engine_s = resp.answer.total_seconds;
      job->answers.push_back(AnswerKey{
          resp.answer.found,
          resp.answer.found ? resp.answer.sql : resp.answer.failure_reason});
      continue;
    }
    job->done_us = NowUs();
    if (resp.kind != Response::Kind::kDone) return "unexpected frame kind";
    if (resp.answers != job->answers.size()) return "done count mismatch";
    if (job->answers.empty()) return "job produced no answer";
    break;
  }
  if (trace != nullptr) {
    const int root = static_cast<int>(trace->spans().size());
    trace->Add("job", request, -1, encode_start, job->done_us);
    trace->Add("wire.encode", request, root, encode_start, encode_end);
    trace->Add("wire.send", request, root, encode_end, job->written_us);
    trace->Add("server.accept", request, root, job->written_us,
               job->accepted_us);
    trace->Add("server.first_answer", request, root, job->accepted_us,
               job->first_answer_us);
    trace->Add("server.stream_rest", request, root, job->first_answer_us,
               job->done_us);
  }
  return "";
}

}  // namespace perfbench
