// Transport layer: how request/reply lines reach a ServiceSession.
//
// The session (session.hpp) is transport-agnostic by design — it consumes
// request lines and emits reply lines through a callback.  This header
// supplies the other half: framing and connection management for the three
// transports the daemon speaks, behind one API:
//
//   - LineChannel  — newline framing over a pair of file descriptors with
//     an optional idle timeout.  Works for stdio (fds 0/1), a Unix-socket
//     connection and a TCP connection alike.
//   - Listener     — a bound, listening socket (Unix or TCP) with a
//     stoppable accept loop.
//   - serve_connections() — the multi-client server: one thread + one
//     ServiceSession per accepted connection, every session sharing the
//     caller's cache/metrics through its ServiceConfig.  A connection's
//     thread is joined by the next accept after it ends, so a long-running
//     daemon holds no stacks of finished connections.  Idle connections
//     (no request AND no job in flight for idle_timeout_s) are closed so
//     one silent client cannot pin a connection slot forever; a client
//     that disconnects mid-job just stops receiving lines — its session
//     drains and is torn down without disturbing the others.
//
// A `shutdown` request on ANY connection stops the daemon: the accept
// loop unblocks, every live session drains, and serve_connections
// returns.  Stopping the listener from outside (Listener::stop) does the
// same without a shutdown request — the test harness uses that.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

#include "service/session.hpp"

namespace csfma {

/// Newline-delimited framing over file descriptors.  Reads are buffered;
/// writes handle partial writes and report a dead peer by returning false
/// (the caller drops the line — a vanished client must never wedge the
/// daemon).  Does NOT own the descriptors.
class LineChannel {
 public:
  /// `read_fd` and `write_fd` may be the same descriptor (sockets) or
  /// different ones (stdio: 0 and 1).
  LineChannel(int read_fd, int write_fd);

  enum class Read {
    Line,     // *line holds one complete request line (no newline)
    Eof,      // orderly close; a trailing unterminated line is delivered
              // first, then Eof
    Timeout,  // no byte arrived within timeout_s
    Error,    // unrecoverable read error
  };

  /// Block until one line, EOF, error, or — when timeout_s > 0 — until no
  /// data has arrived for timeout_s seconds.
  Read read_line(std::string* line, double timeout_s = 0.0);

  /// Write `line` plus a newline; false once the peer is gone.
  bool write_line(std::string_view line);

  /// True once a write failed because the client vanished (the
  /// connection-lifecycle accounting distinguishes dead peers from
  /// orderly closes).
  bool peer_gone() const { return peer_gone_; }

 private:
  int rfd_;
  int wfd_;
  std::string buf_;
  std::size_t pos_ = 0;
  bool peer_gone_ = false;
};

/// A bound, listening stream socket (Unix or TCP).
class Listener {
 public:
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Human-readable bound address: the socket path, or "host:port" with
  /// the actual port (so binding TCP port 0 reports the kernel's choice).
  const std::string& where() const { return where_; }
  /// TCP only: the bound port; 0 for Unix listeners.
  int port() const { return port_; }

  /// Block for the next connection; -1 after stop() or on a fatal error.
  /// TCP connections come back with TCP_NODELAY set.
  int accept_conn();
  /// Unblock accept_conn() and make it return -1 from now on.
  void stop();

 private:
  friend std::unique_ptr<Listener> listen_unix(const std::string&,
                                               std::string*);
  friend std::unique_ptr<Listener> listen_tcp(const std::string&,
                                              std::string*);
  Listener() = default;

  int fd_ = -1;
  int port_ = 0;
  std::string where_;
  std::string unlink_path_;  // Unix: remove the socket file on teardown
  std::atomic<bool> stopped_{false};
};

/// Bind a Unix stream socket at `path` (an existing file is replaced).
/// nullptr + *err on failure.
std::unique_ptr<Listener> listen_unix(const std::string& path,
                                      std::string* err);

/// Bind a TCP socket given "HOST:PORT" (numeric or resolvable host;
/// port 0 asks the kernel for a free port — read it back via port()).
std::unique_ptr<Listener> listen_tcp(const std::string& host_port,
                                     std::string* err);

struct ServerConfig {
  /// Per-session template.  Set `metrics` and `cache` to daemon-wide
  /// instances — that sharing is what makes one client's result the next
  /// client's cache hit.
  ServiceConfig session;
  /// Close a connection after this long with no request and no job in
  /// flight; 0 disables.  A connection with a running/queued job is never
  /// idle-closed, however slowly it reads.
  double idle_timeout_s = 0.0;
};

/// Accept loop: serve until a session requests shutdown or the listener
/// is stopped.  Returns the number of connections served.  Counts
/// service.conn.{accepted,closed,idle_closed} when metrics are attached.
int serve_connections(Listener& listener, const ServerConfig& cfg);

/// One session over an existing channel (the stdio transport, and the
/// per-connection body of serve_connections).  Reads until EOF, error,
/// shutdown, or idle timeout; always drains and emits the final bye.
/// Returns true iff the session requested daemon shutdown.
bool run_session_on_channel(LineChannel& ch, const ServiceConfig& cfg,
                            double idle_timeout_s = 0.0);

}  // namespace csfma
