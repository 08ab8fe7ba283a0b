#include "service_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common.h"

namespace perfbench {

namespace {

std::string Field(const std::string& header, const std::string& key) {
  const std::string k = " " + key + "=";
  const size_t at = header.find(k);
  if (at == std::string::npos) return "";
  const size_t b = at + k.size();
  return header.substr(b, header.find(' ', b) - b);
}

}  // namespace

Client::~Client() {
  for (int fd : fds_) ::close(fd);
}

std::string Client::Connect(int port, int n) {
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "socket: " + std::string(std::strerror(errno));
    fds_.push_back(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return "connect: " + std::string(std::strerror(errno));
    }
  }
  bufs_.assign(fds_.size(), std::string());
  return "";
}

bool Client::Send(uint64_t i, const std::string& line) {
  const int fd = fds_[i % fds_.size()];
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

void Client::Receive(size_t expect, const std::atomic<double>* deadline_ms,
                     std::vector<Response>* out) {
  std::vector<pollfd> pfds;
  for (int fd : fds_) pfds.push_back({fd, POLLIN, 0});
  while (out->size() < expect && NowMs() < deadline_ms->load()) {
    if (::poll(pfds.data(), pfds.size(), 50) <= 0) continue;
    for (size_t c = 0; c < pfds.size(); ++c) {
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char tmp[1 << 16];
      const ssize_t n = ::recv(fds_[c], tmp, sizeof(tmp), 0);
      if (n <= 0) {
        pfds[c].fd = -1;  // closed: poll ignores negative fds
        continue;
      }
      const double now = NowMs();
      std::string& buf = bufs_[c];
      buf.append(tmp, static_cast<size_t>(n));
      size_t end;
      while ((end = buf.find("END\n")) != std::string::npos &&
             (end == 0 || buf[end - 1] == '\n')) {
        Response r;
        const size_t nl = buf.find('\n');
        r.header = buf.substr(0, nl);
        r.rows = buf.substr(nl + 1, end - nl - 1);
        buf.erase(0, end + 4);
        r.recv_ms = now;
        r.ok = r.header.rfind("OK ", 0) == 0;
        r.tag = std::strtoull(Field(r.header, "tag").c_str(), nullptr, 10);
        r.workers = std::atoi(Field(r.header, "workers").c_str());
        r.wall_ns = std::atof(Field(r.header, "wall_ns").c_str());
        r.queue_wait_ns = std::atof(Field(r.header, "queue_wait_ns").c_str());
        out->push_back(std::move(r));
      }
    }
  }
}

int MorselFactor(int fleet_workers, int workers) {
  return workers > 0 ? std::max(1, fleet_workers / workers) : 1;
}

}  // namespace perfbench
