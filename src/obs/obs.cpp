#include "clado/obs/obs.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

// Lock-discipline annotations for tools/clado_lint (rule: lock-discipline).
// obs sits below clado::tensor in the layering, so it cannot include
// clado/tensor/check.h; the no-op definitions are repeated here verbatim.
#ifndef CLADO_GUARDED_BY
#define CLADO_GUARDED_BY(mutex)
#endif
#ifndef CLADO_REQUIRES
#define CLADO_REQUIRES(mutex)
#endif

namespace clado::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// Default capacity of the trace-event ring; override with CLADO_TRACE_CAP.
constexpr std::size_t kDefaultTraceCapacity = 1U << 20U;

/// Strict local parse of CLADO_TRACE_CAP (obs sits below clado::tensor in
/// the layering, so it cannot use env_int_strict; the policy is the same:
/// unset/empty means default, garbage throws instead of silently running
/// with a different buffer size).
std::size_t trace_capacity_from_env() {
  // obs layers below tensor and cannot use env.h; this local parse enforces
  // the same strictness (garbage throws) by hand.
  // clado-lint: allow(env-discipline) -- strict local parse, layering below env.h
  const char* env = std::getenv("CLADO_TRACE_CAP");
  if (env == nullptr || env[0] == '\0') return kDefaultTraceCapacity;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || value < 1 ||
      value > (1LL << 30U)) {
    throw std::invalid_argument("CLADO_TRACE_CAP='" + std::string(env) +
                                "' is not an integer in [1, 2^30]");
  }
  return static_cast<std::size_t>(value);
}

/// Mirrors Registry's tracing flag so Span construction can skip all work
/// with one relaxed load when tracing is off and the span name is unused.
std::atomic<bool> g_tracing{false};

struct TraceEvent {
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;
};

std::uint32_t current_tid() {
  return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

void json_escape(const std::string& in, std::string& out) {
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4U) & 0xFU];
          out += kHex[static_cast<unsigned char>(c) & 0xFU];
        } else {
          out += c;
        }
    }
  }
}

class Registry {
 public:
  Registry() : epoch_(Clock::now()), trace_capacity_(trace_capacity_from_env()) {
    // clado-lint: allow(env-discipline) -- path-valued; any non-empty string is valid
    if (const char* env = std::getenv("CLADO_TRACE"); env != nullptr && env[0] != '\0') {
      trace_path_ = env;
    }
    // clado-lint: allow(env-discipline) -- path-valued; any non-empty string is valid
    if (const char* env = std::getenv("CLADO_METRICS"); env != nullptr && env[0] != '\0') {
      metrics_path_ = env;
    }
    g_tracing.store(!trace_path_.empty(), std::memory_order_relaxed);
  }

  /// Constructed on first use and never destroyed: pool helpers and late
  /// static destructors may still record after main returns, and a
  /// registry that outlives every thread has no teardown to race. The
  /// trace and metrics files are written by an atexit hook instead, which
  /// reads the configured paths under the mutex like any other call.
  static Registry& instance() {
    static Registry& registry = []() -> Registry& {
      Registry& r = *std::make_unique<Registry>().release();
      std::atexit([] { Registry::instance().export_at_exit(); });
      return r;
    }();
    return registry;
  }

  void export_at_exit() {
    std::string trace_path;
    std::string metrics_path;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      trace_path = trace_path_;
      metrics_path = metrics_path_;
    }
    if (!trace_path.empty()) write_trace_file(trace_path);
    if (!metrics_path.empty()) write_metrics_file(metrics_path);
  }

  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch_).count();
  }

  Counter& counter_slot(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_[std::string(name)];
  }

  Gauge& gauge_slot(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return gauges_[std::string(name)];
  }

  void record_span(const std::string& name, std::int64_t start_us, std::int64_t end_us) {
    const std::lock_guard<std::mutex> lock(mutex_);
    SpanStat& stat = spans_[name];
    ++stat.count;
    stat.total_seconds += static_cast<double>(end_us - start_us) * 1e-6;
    if (!trace_path_.empty()) {
      append_event({name, start_us, end_us - start_us, current_tid()});
    }
  }

  void set_trace_capacity(std::size_t capacity) {
    const std::lock_guard<std::mutex> lock(mutex_);
    trace_capacity_ = capacity < 1 ? 1 : capacity;
    if (events_.size() > trace_capacity_) {
      // Keep the newest `trace_capacity_` events, chronological order.
      const std::vector<TraceEvent> ordered = ordered_events();
      dropped_events_ += static_cast<std::int64_t>(ordered.size() - trace_capacity_);
      events_.assign(ordered.end() - static_cast<std::ptrdiff_t>(trace_capacity_),
                     ordered.end());
      ring_start_ = 0;
    }
  }

  std::int64_t trace_dropped() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_events_;
  }

  SpanStat span_stat(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = spans_.find(std::string(name));
    return it == spans_.end() ? SpanStat{} : it->second;
  }

  void set_trace_path(std::string path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    trace_path_ = std::move(path);
    g_tracing.store(!trace_path_.empty(), std::memory_order_relaxed);
  }

  void set_metrics_path(std::string path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    metrics_path_ = std::move(path);
  }

  std::string metrics_text() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (counters_.empty() && gauges_.empty() && spans_.empty()) return {};
    std::ostringstream out;
    out << "# clado::obs metrics\n";
    for (const auto& [name, c] : counters_) {
      out << "counter " << name << " " << c.value() << "\n";
    }
    for (const auto& [name, g] : gauges_) {
      out << "gauge " << name << " last " << g.value() << " max " << g.max() << "\n";
    }
    for (const auto& [name, s] : spans_) {
      const double mean_ms = s.count > 0 ? s.total_seconds * 1e3 / static_cast<double>(s.count)
                                         : 0.0;
      out << "span " << name << " count " << s.count << " total_s " << s.total_seconds
          << " mean_ms " << mean_ms << "\n";
    }
    if (dropped_events_ > 0) out << "counter trace.dropped " << dropped_events_ << "\n";
    return out.str();
  }

  std::string metrics_json() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      json_escape(name, out);
      out += "\":" + std::to_string(c.value());
    }
    if (dropped_events_ > 0) {
      if (!first) out += ",";
      out += "\"trace.dropped\":" + std::to_string(dropped_events_);
    }
    out += "},\"gauges\":{";
    first = true;
    std::ostringstream num;
    for (const auto& [name, g] : gauges_) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      json_escape(name, out);
      num.str({});
      num << "{\"last\":" << g.value() << ",\"max\":" << g.max() << "}";
      out += "\":" + num.str();
    }
    out += "},\"spans\":{";
    first = true;
    for (const auto& [name, s] : spans_) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      json_escape(name, out);
      num.str({});
      num << "{\"count\":" << s.count << ",\"total_seconds\":" << s.total_seconds << "}";
      out += "\":" + num.str();
    }
    out += "}}";
    return out;
  }

  bool write_trace_file(const std::string& path) {
    std::vector<TraceEvent> events;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      events = ordered_events();
    }
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::string name;
    for (const auto& e : events) {
      if (!first) out << ",";
      first = false;
      name.clear();
      json_escape(e.name, name);
      out << "\n{\"name\":\"" << name << "\",\"cat\":\"clado\",\"ph\":\"X\",\"ts\":" << e.ts_us
          << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << e.tid << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  bool write_metrics_file(const std::string& path) {
    std::ofstream out(path);
    if (!out) return false;
    out << (path.ends_with(".json") ? metrics_json() : metrics_text());
    if (!path.ends_with(".json")) out << "\n";
    return static_cast<bool>(out);
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Zero counters/gauges in place: callers may hold interned references,
    // so the map nodes (and their addresses) must survive the reset.
    for (auto& [name, c] : counters_) c.reset_for_testing();
    for (auto& [name, g] : gauges_) g.reset_for_testing();
    spans_.clear();
    events_.clear();
    ring_start_ = 0;
    dropped_events_ = 0;
  }

 private:
  /// Appends into the bounded ring: below capacity the buffer grows; at
  /// capacity the oldest event is overwritten and counted as dropped, so a
  /// long-running process keeps the newest window of activity.
  void append_event(TraceEvent e) CLADO_REQUIRES(mutex_) {
    if (events_.size() < trace_capacity_) {
      events_.push_back(std::move(e));
      return;
    }
    events_[ring_start_] = std::move(e);
    ring_start_ = (ring_start_ + 1) % events_.size();
    ++dropped_events_;
  }

  /// Ring contents oldest-first (callers hold mutex_).
  std::vector<TraceEvent> ordered_events() const CLADO_REQUIRES(mutex_) {
    std::vector<TraceEvent> out;
    out.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
      out.push_back(events_[(ring_start_ + i) % events_.size()]);
    }
    return out;
  }

  const Clock::time_point epoch_;
  std::mutex mutex_;
  // Node-based maps: element addresses are stable across inserts, which is
  // what makes returning long-lived Counter&/Gauge& handles sound.
  std::map<std::string, Counter, std::less<>> counters_ CLADO_GUARDED_BY(mutex_);
  std::map<std::string, Gauge, std::less<>> gauges_ CLADO_GUARDED_BY(mutex_);
  std::map<std::string, SpanStat, std::less<>> spans_ CLADO_GUARDED_BY(mutex_);
  /// Ring once full; events_[ring_start_] is oldest.
  std::vector<TraceEvent> events_ CLADO_GUARDED_BY(mutex_);
  std::size_t ring_start_ CLADO_GUARDED_BY(mutex_) = 0;
  std::size_t trace_capacity_ CLADO_GUARDED_BY(mutex_) = kDefaultTraceCapacity;
  std::int64_t dropped_events_ CLADO_GUARDED_BY(mutex_) = 0;
  std::string trace_path_ CLADO_GUARDED_BY(mutex_);
  std::string metrics_path_ CLADO_GUARDED_BY(mutex_);
};

}  // namespace

void Gauge::set(double v) noexcept {
  last_.store(v, std::memory_order_relaxed);
  double prev = max_.load(std::memory_order_relaxed);
  while (v > prev && !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

Counter& counter(std::string_view name) {
  return Registry::instance().counter_slot(name);
}

Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge_slot(name);
}

Span::Span(std::string_view name) {
  name_ = name;
  start_us_ = Registry::instance().now_us();
  open_ = true;
}

double Span::close() noexcept {
  if (!open_) return 0.0;
  open_ = false;
  Registry& reg = Registry::instance();
  const std::int64_t end_us = reg.now_us();
  reg.record_span(name_, start_us_, end_us);
  return static_cast<double>(end_us - start_us_) * 1e-6;
}

SpanStat span_stat(std::string_view name) {
  return Registry::instance().span_stat(name);
}

bool trace_enabled() { return g_tracing.load(std::memory_order_relaxed); }

void set_trace_path(std::string path) {
  Registry::instance().set_trace_path(std::move(path));
}

void set_metrics_path(std::string path) {
  Registry::instance().set_metrics_path(std::move(path));
}

void set_trace_capacity(std::size_t capacity) {
  Registry::instance().set_trace_capacity(capacity);
}

std::int64_t trace_dropped() {
  return Registry::instance().trace_dropped();
}

std::string metrics_text() {
  return Registry::instance().metrics_text();
}

std::string metrics_json() {
  return Registry::instance().metrics_json();
}

bool write_trace(const std::string& path) {
  return Registry::instance().write_trace_file(path);
}

bool write_metrics(const std::string& path) {
  return Registry::instance().write_metrics_file(path);
}

void touch() {
  Registry::instance();
}

void reset_for_testing() {
  Registry::instance().reset();
}

}  // namespace clado::obs
