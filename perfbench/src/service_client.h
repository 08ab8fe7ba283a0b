// The benchmark's loopback client of service::QueryService: pipelined
// `RUN` lines over a few TCP connections (TCP_NODELAY on each), one reader
// polling them all and splitting the replies into response blocks.
#ifndef PERFBENCH_SERVICE_CLIENT_H_
#define PERFBENCH_SERVICE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One received response block.
struct Response {
  uint64_t tag = 0;
  bool ok = false;
  std::string header;  // first line
  std::string rows;    // the ROW lines (OK blocks)
  double recv_ms = 0;  // NowMs() when its last byte arrived
  int workers = 0;
  double wall_ns = 0, queue_wait_ns = 0;
};

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens `n` connections to 127.0.0.1:`port`. Returns an error or "".
  std::string Connect(int port, int n);

  /// Sends `line` on connection i % n. Returns false if the send failed.
  bool Send(uint64_t i, const std::string& line);

  /// Reads until `expect` blocks arrived in total or `deadline_ms` (NowMs)
  /// passes.
  void Receive(size_t expect, const std::atomic<double>* deadline_ms,
               std::vector<Response>* out);

 private:
  std::vector<int> fds_;
  std::vector<std::string> bufs_;
};

/// The service's morsel size, as a multiple of the default, for a response
/// that ran on `workers` of a fleet of `fleet_workers` (the service scales
/// morsels by fleet / granted workers).
int MorselFactor(int fleet_workers, int workers);

}  // namespace perfbench

#endif  // PERFBENCH_SERVICE_CLIENT_H_
