#include "service/transport.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace csfma {

// ---- LineChannel -------------------------------------------------------

LineChannel::LineChannel(int read_fd, int write_fd)
    : rfd_(read_fd), wfd_(write_fd) {}

LineChannel::Read LineChannel::read_line(std::string* line,
                                         double timeout_s) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      line->assign(buf_, pos_, nl - pos_);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return Read::Line;
    }
    // Compact the consumed prefix before growing the buffer.
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    if (timeout_s > 0.0) {
      pollfd p{};
      p.fd = rfd_;
      p.events = POLLIN;
      int rc;
      do {
        rc = ::poll(&p, 1, (int)(timeout_s * 1000.0));
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) return Read::Timeout;
      if (rc < 0) return Read::Error;
    }
    char chunk[4096];
    ssize_t n;
    do {
      n = ::read(rfd_, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return Read::Error;
    if (n == 0) {
      // Orderly EOF: deliver an unterminated trailing line once.
      if (!buf_.empty()) {
        line->assign(buf_);
        buf_.clear();
        return Read::Line;
      }
      return Read::Eof;
    }
    buf_.append(chunk, (std::size_t)n);
  }
}

bool LineChannel::write_line(std::string_view line) {
  if (peer_gone_) return false;
  std::string out(line);
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::write(wfd_, out.data() + off, out.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      peer_gone_ = true;  // client went away; drop this and later lines
      return false;
    }
    off += (std::size_t)n;
  }
  return true;
}

// ---- Listener ----------------------------------------------------------

Listener::~Listener() {
  stop();
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

int Listener::accept_conn() {
  for (;;) {
    if (stopped_.load(std::memory_order_relaxed)) return -1;
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      // Replies are small multi-line bursts: without TCP_NODELAY the second
      // line waits for the client's delayed ACK (~40 ms).
      const int one = 1;
      if (port_ != 0)
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    if (errno == EINTR) continue;
    return -1;
  }
}

void Listener::stop() {
  if (stopped_.exchange(true)) return;
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

std::unique_ptr<Listener> listen_unix(const std::string& path,
                                      std::string* err) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *err = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    *err = "socket path too long";
    ::close(fd);
    return nullptr;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ::unlink(path.c_str());
  if (::bind(fd, (const sockaddr*)&addr, sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    *err = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  auto l = std::unique_ptr<Listener>(new Listener());
  l->fd_ = fd;
  l->where_ = path;
  l->unlink_path_ = path;
  return l;
}

std::unique_ptr<Listener> listen_tcp(const std::string& host_port,
                                     std::string* err) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos) {
    *err = "--tcp wants HOST:PORT";
    return nullptr;
  }
  const std::string host = host_port.substr(0, colon);
  const std::string port = host_port.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port.c_str(), &hints, &res);
  if (rc != 0) {
    *err = std::string("resolve ") + host_port + ": " + ::gai_strerror(rc);
    return nullptr;
  }
  int fd = -1;
  for (addrinfo* a = res; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, a->ai_addr, a->ai_addrlen) == 0 && ::listen(fd, 64) == 0)
      break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    *err = std::string("bind/listen ") + host_port + ": " +
           std::strerror(errno);
    return nullptr;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  int bound_port = 0;
  if (::getsockname(fd, (sockaddr*)&bound, &len) == 0)
    bound_port = ntohs(bound.sin_port);
  auto l = std::unique_ptr<Listener>(new Listener());
  l->fd_ = fd;
  l->port_ = bound_port;
  l->where_ = (host.empty() ? std::string("0.0.0.0") : host) + ":" +
              std::to_string(bound_port);
  return l;
}

// ---- session-over-channel and the accept loop --------------------------

bool run_session_on_channel(LineChannel& ch, const ServiceConfig& cfg,
                            double idle_timeout_s) {
  if (cfg.log != nullptr)
    cfg.log->line("conn_accept").det("conn", cfg.conn);
  ServiceSession session(cfg, [&ch](const std::string& line) {
    ch.write_line(line);  // write failures mean a dead client: drop
  });
  std::string line;
  const char* why = "eof";
  while (!session.shutdown_requested()) {
    const LineChannel::Read r = ch.read_line(&line, idle_timeout_s);
    if (r == LineChannel::Read::Line) {
      session.handle_line(line);
      continue;
    }
    if (r == LineChannel::Read::Timeout) {
      // Only a connection with nothing queued or running is idle; a slow
      // job's client keeps its connection for the terminal reply.
      if (!session.idle()) continue;
      why = "idle_timeout";
      break;
    }
    why = r == LineChannel::Read::Error ? "read_error" : "eof";
    break;  // Eof or Error: drain and tear down
  }
  session.finish();
  if (session.shutdown_requested()) why = "shutdown";
  // A failed write anywhere along the way means the client vanished
  // mid-conversation — worth distinguishing from an orderly close.
  if (ch.peer_gone()) why = "dead_peer";
  if (cfg.metrics != nullptr) {
    if (std::string_view(why) == "idle_timeout")
      cfg.metrics->counter("service.conn.idle_closed", Stability::Timing)
          .add();
    if (std::string_view(why) == "dead_peer")
      cfg.metrics->counter("service.conn.dead_peer", Stability::Timing)
          .add();
  }
  if (cfg.log != nullptr)
    cfg.log->line("conn_close").det("conn", cfg.conn).det("why", why);
  return session.shutdown_requested();
}

int serve_connections(Listener& listener, const ServerConfig& cfg) {
  Counter* accepted = nullptr;
  Counter* closed = nullptr;
  if (cfg.session.metrics != nullptr) {
    accepted = &cfg.session.metrics->counter("service.conn.accepted",
                                             Stability::Timing);
    closed = &cfg.session.metrics->counter("service.conn.closed",
                                           Stability::Timing);
  }
  int served = 0;
  // Each connection thread posts its id as it ends; the loop joins the
  // posted ones after every accept, so a finished connection's stack is
  // released while the daemon runs, and joins the rest at exit.
  std::map<int, std::thread> threads;
  std::mutex ended_mu;
  std::vector<int> ended;
  for (;;) {
    const int fd = listener.accept_conn();
    if (fd < 0) break;
    ++served;
    if (accepted != nullptr) accepted->add();
    ServiceConfig session_cfg = cfg.session;
    session_cfg.conn = "conn-" + std::to_string(served);
    threads.emplace(served, std::thread([fd, session_cfg, id = served,
                                         idle = cfg.idle_timeout_s,
                                         &listener, closed, &ended_mu,
                                         &ended] {
      LineChannel ch(fd, fd);
      const bool shutdown = run_session_on_channel(ch, session_cfg, idle);
      ::close(fd);
      if (closed != nullptr) closed->add();
      // One client's shutdown request stops the whole daemon.
      if (shutdown) listener.stop();
      const std::lock_guard<std::mutex> lock(ended_mu);
      ended.push_back(id);
    }));
    std::vector<int> finished;
    {
      const std::lock_guard<std::mutex> lock(ended_mu);
      finished.swap(ended);
    }
    for (int id : finished) {
      const auto it = threads.find(id);
      it->second.join();
      threads.erase(it);
    }
  }
  for (auto& [id, t] : threads) t.join();
  return served;
}

}  // namespace csfma
