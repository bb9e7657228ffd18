#include "clado/obs/obs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace clado::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Minimal recursive-descent JSON validator: accepts exactly the grammar of
// objects/arrays/strings/numbers/true/false/null. Enough to prove the
// exporters emit parseable JSON without pulling in a parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_for_testing(); }
  void TearDown() override {
    set_trace_path({});
    reset_for_testing();
  }
};

TEST_F(ObsTest, CounterAccumulatesAcrossThreads) {
  Counter& c = counter("test.counter");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kAdds);
  // Interning: the same name resolves to the same slot.
  EXPECT_EQ(&counter("test.counter"), &c);
  EXPECT_EQ(counter("test.counter").value(), kThreads * kAdds);
}

TEST_F(ObsTest, GaugeTracksLastAndMax) {
  Gauge& g = gauge("test.gauge");
  g.set(3.0);
  g.set(7.5);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.5);
}

TEST_F(ObsTest, SpanAggregatesPerName) {
  {
    Span a("test.span");
    Span b("test.span");
    EXPECT_GE(b.close(), 0.0);
  }
  const SpanStat stat = span_stat("test.span");
  EXPECT_EQ(stat.count, 2);
  EXPECT_GE(stat.total_seconds, 0.0);
  EXPECT_EQ(span_stat("test.never_recorded").count, 0);
}

TEST_F(ObsTest, SpanCloseIsIdempotent) {
  Span s("test.idempotent");
  s.close();
  EXPECT_DOUBLE_EQ(s.close(), 0.0);
  EXPECT_EQ(span_stat("test.idempotent").count, 1);
}

TEST_F(ObsTest, MetricsTextListsEverything) {
  counter("test.c1").add(42);
  gauge("test.g1").set(1.5);
  { Span s("test.s1"); }
  const std::string text = metrics_text();
  EXPECT_NE(text.find("counter test.c1 42"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge test.g1"), std::string::npos) << text;
  EXPECT_NE(text.find("span test.s1 count 1"), std::string::npos) << text;
}

TEST_F(ObsTest, MetricsJsonIsValidJson) {
  counter("test.\"quoted\"\nname").add(1);
  gauge("test.g").set(-2.25);
  { Span s("test.s"); }
  const std::string json = metrics_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
}

TEST_F(ObsTest, TraceExportEmitsChromeEvents) {
  const std::string path = ::testing::TempDir() + "/clado_obs_trace.json";
  set_trace_path(path);
  ASSERT_TRUE(trace_enabled());
  {
    Span outer("test.trace_outer");
    Span inner("test.trace_inner");
  }
  ASSERT_TRUE(write_trace(path));
  const std::string json = read_file(path);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.trace_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.trace_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, TracingDisabledBuffersNothing) {
  set_trace_path({});
  EXPECT_FALSE(trace_enabled());
  { Span s("test.untraced"); }
  const std::string path = ::testing::TempDir() + "/clado_obs_empty_trace.json";
  ASSERT_TRUE(write_trace(path));
  const std::string json = read_file(path);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.find("test.untraced"), std::string::npos);
  // Aggregates still maintained with tracing off.
  EXPECT_EQ(span_stat("test.untraced").count, 1);
  std::remove(path.c_str());
}

TEST_F(ObsTest, WriteMetricsPicksFormatByExtension) {
  counter("test.fmt").add(5);
  const std::string json_path = ::testing::TempDir() + "/clado_obs_metrics.json";
  const std::string text_path = ::testing::TempDir() + "/clado_obs_metrics.txt";
  ASSERT_TRUE(write_metrics(json_path));
  ASSERT_TRUE(write_metrics(text_path));
  EXPECT_TRUE(JsonChecker(read_file(json_path)).valid());
  EXPECT_NE(read_file(text_path).find("counter test.fmt 5"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(text_path.c_str());
}

TEST_F(ObsTest, TraceRingKeepsNewestAndCountsDropped) {
  const std::string path = ::testing::TempDir() + "/clado_obs_ring.json";
  set_trace_path(path);
  set_trace_capacity(3);
  for (int i = 0; i < 5; ++i) {
    Span s("test.ring" + std::to_string(i));
  }
  EXPECT_EQ(trace_dropped(), 2);
  ASSERT_TRUE(write_trace(path));
  const std::string json = read_file(path);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Oldest two evicted, newest three retained.
  EXPECT_EQ(json.find("test.ring0"), std::string::npos);
  EXPECT_EQ(json.find("test.ring1"), std::string::npos);
  EXPECT_NE(json.find("test.ring2"), std::string::npos);
  EXPECT_NE(json.find("test.ring3"), std::string::npos);
  EXPECT_NE(json.find("test.ring4"), std::string::npos);
  // Evictions surface in both metric dumps.
  EXPECT_NE(metrics_text().find("counter trace.dropped 2"), std::string::npos);
  EXPECT_NE(metrics_json().find("\"trace.dropped\":2"), std::string::npos);
  // Aggregates are unaffected by ring eviction.
  EXPECT_EQ(span_stat("test.ring0").count, 1);
  set_trace_capacity(std::size_t{1} << 20);
  std::remove(path.c_str());
}

TEST_F(ObsTest, TraceRingPreservesChronologyAcrossWrap) {
  const std::string path = ::testing::TempDir() + "/clado_obs_ring_order.json";
  set_trace_path(path);
  set_trace_capacity(2);
  { Span s("test.order_a"); }
  { Span s("test.order_b"); }
  { Span s("test.order_c"); }
  ASSERT_TRUE(write_trace(path));
  const std::string json = read_file(path);
  const std::size_t pos_b = json.find("test.order_b");
  const std::size_t pos_c = json.find("test.order_c");
  ASSERT_NE(pos_b, std::string::npos);
  ASSERT_NE(pos_c, std::string::npos);
  EXPECT_LT(pos_b, pos_c) << "wrapped ring must export oldest-first";
  set_trace_capacity(std::size_t{1} << 20);
  std::remove(path.c_str());
}

TEST_F(ObsTest, ShrinkingCapacityEvictsOldestExisting) {
  const std::string path = ::testing::TempDir() + "/clado_obs_shrink.json";
  set_trace_path(path);
  set_trace_capacity(std::size_t{1} << 20);
  for (int i = 0; i < 4; ++i) {
    Span s("test.shrink" + std::to_string(i));
  }
  set_trace_capacity(1);
  EXPECT_EQ(trace_dropped(), 3);
  ASSERT_TRUE(write_trace(path));
  const std::string json = read_file(path);
  EXPECT_EQ(json.find("test.shrink0"), std::string::npos);
  EXPECT_NE(json.find("test.shrink3"), std::string::npos);
  set_trace_capacity(std::size_t{1} << 20);
  std::remove(path.c_str());
}

TEST_F(ObsTest, ResetClearsWithoutInvalidatingHandles) {
  Counter& c = counter("test.reset");
  c.add(9);
  { Span s("test.reset_span"); }
  reset_for_testing();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(span_stat("test.reset_span").count, 0);
  c.add(1);  // the handle survived the reset
  EXPECT_EQ(counter("test.reset").value(), 1);
}

}  // namespace
}  // namespace clado::obs
