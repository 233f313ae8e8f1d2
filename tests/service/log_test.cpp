// ServiceLog: the csfma-log-v1 structured server log.  The contract under
// test is what makes --check-log and the client's log-determinism check
// possible: strictly increasing seq, clamped-monotonic ts_ms, every
// Deterministic field top-level and every Timing field under "t", and
// exactly one committed line per Line builder (moves included).
#include "service/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/json_value.hpp"

namespace csfma {
namespace {

std::vector<std::string> lines_of(std::FILE* f) {
  std::rewind(f);
  std::vector<std::string> lines;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    std::string s(buf);
    if (!s.empty() && s.back() == '\n') s.pop_back();
    lines.push_back(std::move(s));
  }
  return lines;
}

TEST(ServiceLog, SeparatesDeterministicFromTimingFields) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  {
    auto log = ServiceLog::attach(tmp);
    ASSERT_NE(log, nullptr);
    log->line("request_end")
        .det("conn", "c1")
        .det("req", std::string("req-1"))
        .det("id", "a")
        .det("outcome", "ok")
        .timing("latency_ms", 12.5);
    log->line("journal_compact").det("entries", (std::uint64_t)7);
  }
  const auto lines = lines_of(tmp);
  ASSERT_EQ(lines.size(), 2u);

  JsonValue v;
  JsonParseError err;
  ASSERT_TRUE(json_parse(lines[0], &v, &err)) << lines[0];
  EXPECT_EQ(v.find("kind")->as_string(), "request_end");
  EXPECT_EQ(v.find("seq")->as_int(), 1);
  EXPECT_EQ(v.find("conn")->as_string(), "c1");
  EXPECT_EQ(v.find("outcome")->as_string(), "ok");
  // Timing fields live only under "t", next to the stamped ts_ms.
  EXPECT_EQ(v.find("latency_ms"), nullptr);
  const JsonValue* t = v.find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->find("ts_ms")->as_number(), 0.0);
  EXPECT_EQ(t->find("latency_ms")->as_number(), 12.5);

  ASSERT_TRUE(json_parse(lines[1], &v, &err)) << lines[1];
  EXPECT_EQ(v.find("seq")->as_int(), 2);
  EXPECT_EQ(v.find("entries")->as_int(), 7);
  std::fclose(tmp);
}

TEST(ServiceLog, MovedFromLineCommitsExactlyOnce) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  {
    auto log = ServiceLog::attach(tmp);
    auto build = [&] {
      ServiceLog::Line l = log->line("cancel");
      l.det("conn", "c");
      return l;  // implicit move out of the lambda
    };
    ServiceLog::Line moved = build();
    moved.commit();
    moved.commit();  // idempotent after an explicit commit
  }                  // destructor of the moved-from temporaries: no line
  EXPECT_EQ(lines_of(tmp).size(), 1u);
  std::fclose(tmp);
}

TEST(ServiceLog, ConcurrentWritersKeepSeqAndTimestampsOrdered) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  {
    auto log = ServiceLog::attach(tmp);
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
      writers.emplace_back([&log, w] {
        std::string conn = "c";
        conn += std::to_string(w);
        for (int i = 0; i < 50; ++i) log->line("reject").det("conn", conn);
      });
    }
    for (auto& t : writers) t.join();
  }
  const auto lines = lines_of(tmp);
  ASSERT_EQ(lines.size(), 200u);
  // seq is assigned under the writer mutex together with the fwrite, so
  // the file order IS the seq order, gap-free, with non-decreasing ts.
  std::int64_t expect_seq = 1;
  double last_ts = 0.0;
  for (const std::string& line : lines) {
    JsonValue v;
    JsonParseError err;
    ASSERT_TRUE(json_parse(line, &v, &err)) << line;
    EXPECT_EQ(v.find("seq")->as_int(), expect_seq++);
    const double ts = v.find("t")->find("ts_ms")->as_number();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
  std::fclose(tmp);
}

TEST(ServiceLog, OpenFailureReturnsNull) {
  EXPECT_EQ(ServiceLog::open("/nonexistent-dir/x/y/serve.log"), nullptr);
}

}  // namespace
}  // namespace csfma
