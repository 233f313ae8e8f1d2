// Transport layer: LineChannel framing over raw fds, Unix/TCP listeners,
// idle timeouts, and serve_connections multiplexing concurrent clients
// over one shared cache.
#include "service/transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.hpp"
#include "service/log.hpp"

namespace csfma {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { std::signal(SIGPIPE, SIG_IGN); }
};

TEST_F(TransportTest, LineChannelFramesLinesAcrossArbitraryWrites) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  LineChannel ch(fds[0], -1);
  // Line boundaries never align with write boundaries; CRLF is accepted.
  for (const char* frag : {"hel", "lo\nwor", "ld\r\n", "tail-no-newline"})
    ASSERT_GT(::write(fds[1], frag, std::strlen(frag)), 0);
  ::close(fds[1]);

  std::string line;
  EXPECT_EQ(ch.read_line(&line), LineChannel::Read::Line);
  EXPECT_EQ(line, "hello");
  EXPECT_EQ(ch.read_line(&line), LineChannel::Read::Line);
  EXPECT_EQ(line, "world");
  // Orderly EOF delivers the unterminated trailing line once, then Eof.
  EXPECT_EQ(ch.read_line(&line), LineChannel::Read::Line);
  EXPECT_EQ(line, "tail-no-newline");
  EXPECT_EQ(ch.read_line(&line), LineChannel::Read::Eof);
  ::close(fds[0]);
}

TEST_F(TransportTest, LineChannelTimesOutOnSilence) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  LineChannel ch(fds[0], -1);
  std::string line;
  EXPECT_EQ(ch.read_line(&line, 0.05), LineChannel::Read::Timeout);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(TransportTest, LineChannelWriteAppendsNewlineAndDropsDeadPeer) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  LineChannel ch(-1, fds[1]);
  EXPECT_TRUE(ch.write_line("abc"));
  char buf[8] = {};
  EXPECT_EQ(::read(fds[0], buf, sizeof buf), 4);
  EXPECT_STREQ(buf, "abc\n");
  ::close(fds[0]);
  // The peer is gone: this write fails, and later writes are dropped
  // without touching the fd again.
  EXPECT_FALSE(ch.write_line("lost"));
  EXPECT_FALSE(ch.write_line("also lost"));
  ::close(fds[1]);
}

/// Every log line of `f` (rewinding first), for lifecycle assertions.
std::vector<std::string> log_lines(std::FILE* f) {
  std::rewind(f);
  std::vector<std::string> lines;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, f) != nullptr) lines.emplace_back(buf);
  return lines;
}

TEST_F(TransportTest, IdleTimeoutClosesAQuietSession) {
  int in[2], out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  MetricsRegistry metrics;
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  auto log = ServiceLog::attach(tmp);
  ServiceConfig cfg;
  cfg.metrics = &metrics;
  cfg.log = log.get();
  cfg.conn = "quiet";
  LineChannel ch(in[0], out[1]);
  // Nothing ever arrives: the idle timeout must end the session (with its
  // final bye), not leave it blocked on read forever.
  const bool shutdown = run_session_on_channel(ch, cfg, /*idle=*/0.05);
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(metrics.counter("service.conn.idle_closed", Stability::Timing)
                .value(),
            1u);
  EXPECT_EQ(metrics.counter("service.conn.dead_peer", Stability::Timing)
                .value(),
            0u);
  LineChannel reader(out[0], -1);
  ::close(out[1]);
  std::string line;
  ASSERT_EQ(reader.read_line(&line), LineChannel::Read::Line);
  EXPECT_NE(line.find("\"type\":\"bye\""), std::string::npos);
  // The structured log brackets the connection and records the cause.
  const auto logged = log_lines(tmp);
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_NE(logged.front().find("\"kind\":\"conn_accept\""),
            std::string::npos);
  EXPECT_NE(logged.back().find("\"kind\":\"conn_close\""),
            std::string::npos);
  EXPECT_NE(logged.back().find("\"conn\":\"quiet\""), std::string::npos);
  EXPECT_NE(logged.back().find("\"why\":\"idle_timeout\""),
            std::string::npos);
  std::fclose(tmp);
  for (int fd : {in[0], in[1], out[0]}) ::close(fd);
}

TEST_F(TransportTest, DeadPeerIsCountedAndLoggedDistinctly) {
  int in[2], out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  MetricsRegistry metrics;
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  auto log = ServiceLog::attach(tmp);
  ServiceConfig cfg;
  cfg.metrics = &metrics;
  cfg.log = log.get();
  cfg.conn = "vanisher";
  // The client vanishes before its reply: closing the read side of the
  // reply pipe makes the first write fail, marking the peer gone.
  ::close(out[0]);
  const char* req = "{\"type\":\"status\",\"id\":\"s\"}\n";
  ASSERT_GT(::write(in[1], req, std::strlen(req)), 0);
  ::close(in[1]);  // then EOF
  LineChannel ch(in[0], out[1]);
  const bool shutdown = run_session_on_channel(ch, cfg);
  EXPECT_FALSE(shutdown);
  EXPECT_TRUE(ch.peer_gone());
  EXPECT_EQ(metrics.counter("service.conn.dead_peer", Stability::Timing)
                .value(),
            1u);
  EXPECT_EQ(metrics.counter("service.conn.idle_closed", Stability::Timing)
                .value(),
            0u);
  const auto logged = log_lines(tmp);
  ASSERT_GE(logged.size(), 2u);
  EXPECT_NE(logged.back().find("\"kind\":\"conn_close\""),
            std::string::npos);
  EXPECT_NE(logged.back().find("\"why\":\"dead_peer\""), std::string::npos);
  std::fclose(tmp);
  for (int fd : {in[0], out[1]}) ::close(fd);
}

int connect_tcp_client(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((std::uint16_t)port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, (const sockaddr*)&addr, sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

/// Drive one request line and collect replies until `until` appears in a
/// line's "type"; returns every line read.
std::vector<std::string> roundtrip(LineChannel& ch, const std::string& req,
                                   const std::string& until) {
  EXPECT_TRUE(ch.write_line(req));
  std::vector<std::string> lines;
  std::string line;
  while (ch.read_line(&line, 60.0) == LineChannel::Read::Line) {
    lines.push_back(line);
    if (line.find("\"type\":\"" + until + "\"") != std::string::npos) break;
  }
  return lines;
}

TEST_F(TransportTest, ListenTcpBindsEphemeralPortAndReportsIt) {
  std::string err;
  auto listener = listen_tcp("127.0.0.1:0", &err);
  ASSERT_NE(listener, nullptr) << err;
  EXPECT_GT(listener->port(), 0);
  EXPECT_NE(listener->where().find(std::to_string(listener->port())),
            std::string::npos);
}

// Multi-line replies must not wait for the client's delayed ACK.
TEST_F(TransportTest, AcceptedTcpConnectionsSetNoDelay) {
  std::string err;
  auto listener = listen_tcp("127.0.0.1:0", &err);
  ASSERT_NE(listener, nullptr) << err;
  const int client = connect_tcp_client(listener->port());
  const int fd = listener->accept_conn();
  ASSERT_GE(fd, 0);
  int nodelay = 0;
  socklen_t len = sizeof nodelay;
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_NE(nodelay, 0);
  ::close(fd);
  ::close(client);
}

TEST_F(TransportTest, ListenTcpRejectsGarbageSpecs) {
  std::string err;
  EXPECT_EQ(listen_tcp("no-port-here", &err), nullptr);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(listen_tcp("definitely.not.a.host.invalid:1", &err), nullptr);
}

TEST_F(TransportTest, ServeConnectionsMultiplexesClientsOverSharedCache) {
  std::string err;
  auto listener = listen_tcp("127.0.0.1:0", &err);
  ASSERT_NE(listener, nullptr) << err;
  const int port = listener->port();

  MetricsRegistry metrics;
  ResultCache cache(16, &metrics);
  ServerConfig cfg;
  cfg.session.workers = 2;
  cfg.session.metrics = &metrics;
  cfg.session.cache = &cache;
  std::thread server([&] { serve_connections(*listener, cfg); });

  const std::string submit =
      R"({"type":"submit","id":"t1","unit":"pcs","seed":11,"ops":600,)"
      R"("shard_ops":128})";

  // Two concurrent connections, each its own session.  The second run of
  // the same request — on a DIFFERENT connection — must hit the shared
  // cache and replay the first one's bytes.
  const int fd_a = connect_tcp_client(port);
  const int fd_b = connect_tcp_client(port);
  LineChannel a(fd_a, fd_a), b(fd_b, fd_b);
  const auto lines_a = roundtrip(a, submit, "result");
  const auto lines_b = roundtrip(b, submit, "result");
  ASSERT_FALSE(lines_a.empty());
  ASSERT_FALSE(lines_b.empty());
  const std::string& ra = lines_a.back();
  const std::string& rb = lines_b.back();
  EXPECT_NE(ra.find("\"cache\":\"miss\""), std::string::npos) << ra;
  EXPECT_NE(rb.find("\"cache\":\"hit\""), std::string::npos) << rb;
  const auto report = [](const std::string& s) {
    return s.substr(s.find("\"report\":"));
  };
  EXPECT_EQ(report(ra), report(rb));

  // Disconnecting one client (EOF) leaves the daemon serving the other.
  ::close(fd_a);
  const auto status_b =
      roundtrip(b, R"({"type":"status","id":"s"})", "status");
  ASSERT_FALSE(status_b.empty());

  // A shutdown from any connection stops the accept loop.
  const auto bye = roundtrip(b, R"({"type":"shutdown","id":"z"})", "bye");
  ASSERT_FALSE(bye.empty());
  EXPECT_NE(bye.back().find("\"type\":\"bye\""), std::string::npos);
  ::close(fd_b);
  server.join();

  EXPECT_EQ(metrics.counter("service.conn.accepted", Stability::Timing)
                .value(),
            2u);
  EXPECT_EQ(
      metrics.counter("service.conn.closed", Stability::Timing).value(),
      2u);
}

/// This process's virtual size (VmSize) in kB.
long vm_size_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmSize: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

TEST_F(TransportTest, FinishedConnectionsReleaseTheirThreads) {
  // A daemon serving many short connections must not keep their threads:
  // each unjoined one holds its stack mapping (8 MB of address space by
  // default) until the daemon stops.
  std::string err;
  auto listener = listen_tcp("127.0.0.1:0", &err);
  ASSERT_NE(listener, nullptr) << err;
  MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.session.workers = 1;
  cfg.session.metrics = &metrics;
  std::thread server([&] { serve_connections(*listener, cfg); });
  const Counter& closed =
      metrics.counter("service.conn.closed", Stability::Timing);

  const auto one_connection = [&](std::uint64_t n) {
    const int fd = connect_tcp_client(listener->port());
    LineChannel ch(fd, fd);
    EXPECT_FALSE(roundtrip(ch, R"({"type":"stats","id":"s"})", "stats")
                     .empty());
    ::close(fd);
    for (int ms = 0; closed.value() < n && ms < 10000; ++ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(closed.value(), n);
  };
  one_connection(1);  // the first thread's stack is in the baseline
  const long before = vm_size_kb();
  ASSERT_GT(before, 0);
  constexpr int kConnections = 40;
  for (int i = 0; i < kConnections; ++i) one_connection(2 + (std::uint64_t)i);
  const long grown = vm_size_kb() - before;
  EXPECT_LT(grown, 40 * 1024) << "VmSize grew " << grown << " kB over "
                              << kConnections << " finished connections";
  listener->stop();
  server.join();
}

TEST_F(TransportTest, UnixListenerRoundTripAndCleanup) {
  const std::string path =
      std::string(::testing::TempDir()) + "transport_test.sock";
  ::unlink(path.c_str());
  std::string err;
  {
    auto listener = listen_unix(path, &err);
    ASSERT_NE(listener, nullptr) << err;
    EXPECT_EQ(listener->where(), path);

    ServerConfig cfg;
    cfg.session.workers = 1;
    std::thread server([&] { serve_connections(*listener, cfg); });

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, (const sockaddr*)&addr, sizeof addr), 0)
        << std::strerror(errno);
    LineChannel ch(fd, fd);
    const auto bye = roundtrip(ch, R"({"type":"shutdown","id":"q"})", "bye");
    ASSERT_FALSE(bye.empty());
    ::close(fd);
    server.join();
  }
  // Teardown removes the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace csfma
