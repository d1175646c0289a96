// Telemetry subsystem: sharded metrics merge-on-scrape, Chrome trace
// JSON well-formedness (parsed back by a minimal JSON reader),
// concurrent-writer shard safety, and the runtime wiring in both real
// (wall-clock Runtime) and sim (virtual-time SimRuntime) modes.
#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "core/sim_runtime.h"
#include "labmods/genericfs.h"
#include "simdev/registry.h"

namespace labstor::telemetry {
namespace {

// ------------------------------------------------------------------
// Minimal JSON well-formedness checker (objects, arrays, strings,
// numbers, true/false/null). Returns true iff the whole input is one
// valid JSON value.
// ------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

std::set<std::string> Categories(const TraceRecorder& trace) {
  std::set<std::string> cats;
  for (const TraceEvent& e : trace.Snapshot()) cats.insert(e.category);
  return cats;
}

// ------------------------------------------------------------------
// MetricsRegistry
// ------------------------------------------------------------------

TEST(MetricsRegistry, CounterMergesAcrossShardsOnScrape) {
  MetricsRegistry registry(4);
  Counter* c = registry.GetCounter("runtime.worker.requests");
  c->Add(10, 0);
  c->Add(20, 1);
  c->Add(30, 2);
  c->Inc(3);
  EXPECT_EQ(c->Value(), 61u);
  const MetricsSnapshot snap = registry.Scrape();
  ASSERT_TRUE(snap.counters.contains("runtime.worker.requests"));
  EXPECT_EQ(snap.counters.at("runtime.worker.requests"), 61u);
}

TEST(MetricsRegistry, GetReturnsSameHandleAndSurvivesReset) {
  MetricsRegistry registry(2);
  Counter* a = registry.GetCounter("x.y.z");
  Counter* b = registry.GetCounter("x.y.z");
  EXPECT_EQ(a, b);
  a->Add(5);
  registry.Reset();
  EXPECT_EQ(a->Value(), 0u);
  a->Add(7);
  EXPECT_EQ(registry.Scrape().counters.at("x.y.z"), 7u);
}

TEST(MetricsRegistry, HistogramMergesAcrossShardsOnScrape) {
  MetricsRegistry registry(4);
  LatencyHistogram* h = registry.GetHistogram("ipc.queue.wait_ns");
  for (uint64_t shard = 0; shard < 4; ++shard) {
    for (uint64_t i = 0; i < 100; ++i) {
      h->Record(1000 * (shard + 1), shard);
    }
  }
  const Histogram merged = h->Merged();
  EXPECT_EQ(merged.count(), 400u);
  EXPECT_EQ(merged.Min(), 1000u);
  EXPECT_GE(merged.Max(), 4000u);
  // p50 sits between the shard-1 and shard-4 values only if all
  // shards merged.
  EXPECT_GT(merged.Percentile(99), merged.Percentile(10));
}

TEST(MetricsRegistry, GaugeTracksLastSetValue) {
  MetricsRegistry registry(2);
  Gauge* g = registry.GetGauge("orchestrator.workers.active");
  g->Set(6);
  g->Add(-2);
  EXPECT_EQ(registry.Scrape().gauges.at("orchestrator.workers.active"), 4);
}

TEST(MetricsRegistry, JsonScrapeIsWellFormed) {
  MetricsRegistry registry(2);
  registry.GetCounter("a.b.count")->Add(42);
  registry.GetGauge("a.b.gauge")->Set(-7);
  LatencyHistogram* h = registry.GetHistogram("a.b.lat_ns");
  h->Record(123, 0);
  h->Record(456, 1);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"a.b.count\":42"), std::string::npos);
  EXPECT_NE(json.find("\"a.b.gauge\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentWritersAreExact) {
  MetricsRegistry registry(8);
  Counter* c = registry.GetCounter("stress.counter");
  LatencyHistogram* h = registry.GetHistogram("stress.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc(static_cast<size_t>(t));
        h->Record(static_cast<uint64_t>(i), static_cast<size_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->Merged().count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------------
// TraceRecorder
// ------------------------------------------------------------------

TEST(TraceRecorder, ChromeJsonParsesBackAndKeepsCategories) {
  TraceRecorder trace(4, 64);
  trace.Span(0, kCatQueue, "queue.wait", 100, 50, "qid", 7);
  trace.Span(1, kCatMod, "labfs", 150, 3000);
  trace.Span(1, kCatDevice, "write 4096B ch0", 3150, 9000, "channel", 0);
  trace.Span(0, kCatOrchestrator, "rebalance", 5000, 0, "workers", 2);
  // A name needing escapes must not break the JSON.
  trace.Span(2, kCatRuntime, "weird \"name\"\\path", 6000, 1);

  const std::string json = trace.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  for (const char* cat : {"queue", "mod", "device", "orchestrator"}) {
    EXPECT_NE(json.find("\"cat\":\"" + std::string(cat) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"args\":{\"qid\":7}"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);

  // Snapshot is merged and time-sorted.
  const std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder trace(1, 8);
  for (uint64_t i = 0; i < 20; ++i) {
    trace.Span(0, kCatRuntime, "e" + std::to_string(i), i, 1);
  }
  EXPECT_EQ(trace.recorded(), 8u);
  EXPECT_EQ(trace.dropped(), 12u);
  // The retained window is the most recent events.
  uint64_t min_ts = ~0ull;
  for (const TraceEvent& e : trace.Snapshot()) min_ts = std::min(min_ts, e.ts_ns);
  EXPECT_GE(min_ts, 12u);
  trace.Clear();
  EXPECT_EQ(trace.recorded(), 0u);
}

TEST(TraceRecorder, ConcurrentSpanWritersAreSafe) {
  TraceRecorder trace(8, 1024);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace.Span(static_cast<uint32_t>(t), kCatMod, "span",
                   static_cast<uint64_t>(i), 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.recorded(), 8u * 1024u);
  EXPECT_EQ(trace.dropped() + trace.recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_TRUE(JsonChecker(trace.ToChromeJson()).Valid());
}

// ------------------------------------------------------------------
// Sim-mode wiring: virtual-time spans out of a SimRuntime.
// ------------------------------------------------------------------

sim::Task<void> OneRequest(core::SimRuntime& rt, uint32_t qid,
                           core::Stack& stack, ipc::Request& req) {
  (void)co_await rt.Execute(qid, stack, req);
}

TEST(SimModeTelemetry, VirtualTimeSpansCoverQueueModDevice) {
  sim::Environment env;
  simdev::DeviceRegistry devices(&env);
  ASSERT_TRUE(devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  core::SimRuntime rt(env, devices, 2);
  Telemetry tel;
  rt.AttachTelemetry(&tel);
  EXPECT_TRUE(tel.virtual_time());

  auto stack = rt.MountYaml(
      "mount: fs::/tel\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_tel\n"
      "    params:\n"
      "      log_records_per_worker: 1024\n"
      "    outputs: [sched_tel]\n"
      "  - mod: noop_sched\n"
      "    uuid: sched_tel\n"
      "    outputs: [drv_tel]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_tel\n");
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  rt.RegisterQueue(1, 3 * sim::kUs);
  core::DynamicOrchestrator policy;
  rt.StartRebalancer(&policy, 1 * sim::kMs);

  ipc::Request create;
  create.op = ipc::OpCode::kCreate;
  create.SetPath("fs::/tel/file");
  env.Spawn(OneRequest(rt, 1, **stack, create));
  env.Run();

  std::vector<uint8_t> data(4096, 0x5A);
  ipc::Request write;
  write.op = ipc::OpCode::kWrite;
  write.SetPath("fs::/tel/file");
  write.length = 4096;
  write.data = data.data();
  env.Spawn(OneRequest(rt, 1, **stack, write));
  const sim::Time end = env.Run();

  const std::set<std::string> cats = Categories(tel.trace());
  EXPECT_TRUE(cats.contains("queue"));
  EXPECT_TRUE(cats.contains("mod"));
  EXPECT_TRUE(cats.contains("device"));
  EXPECT_TRUE(cats.contains("orchestrator"));
  // Every span lives on the virtual timeline, not the wall clock.
  for (const TraceEvent& e : tel.trace().Snapshot()) {
    EXPECT_LE(e.ts_ns + e.dur_ns, end) << e.name;
  }

  const MetricsSnapshot snap = tel.metrics().Scrape();
  EXPECT_EQ(snap.counters.at("runtime.worker.requests"), 2u);
  EXPECT_GT(snap.counters.at("device.write.ops"), 0u);
  EXPECT_GT(snap.counters.at("mod.labfs.charged_ns"), 0u);
  EXPECT_GT(snap.histograms.at("runtime.request.latency_ns").count(), 0u);
  EXPECT_TRUE(JsonChecker(snap.ToJson()).Valid());
  EXPECT_TRUE(JsonChecker(tel.TraceJson()).Valid());
}

// ------------------------------------------------------------------
// Real-mode wiring: Runtime workers + client queue-wait stamping.
// ------------------------------------------------------------------

TEST(RealModeTelemetry, RuntimeWorkersEmitQueueAndModSpans) {
  simdev::DeviceRegistry devices(nullptr);
  ASSERT_TRUE(devices.Create(simdev::DeviceParams::NvmeP3700(64 << 20)).ok());
  Telemetry tel;
  core::Runtime::Options options;
  options.max_workers = 2;
  options.admin_poll = std::chrono::milliseconds(2);
  options.telemetry = &tel;
  core::Runtime runtime(std::move(options), devices);
  auto spec = core::StackSpec::Parse(
      "mount: fs::/teler\n"
      "rules:\n"
      "  exec_mode: async\n"
      "dag:\n"
      "  - mod: labfs\n"
      "    uuid: labfs_teler\n"
      "    params:\n"
      "      log_records_per_worker: 2048\n"
      "    outputs: [lru_teler]\n"
      "  - mod: lru_cache\n"
      "    uuid: lru_teler\n"
      "    outputs: [drv_teler]\n"
      "  - mod: kernel_driver\n"
      "    uuid: drv_teler\n");
  ASSERT_TRUE(spec.ok());
  auto stack = runtime.MountStack(*spec, ipc::Credentials{1, 0, 0});
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  ASSERT_TRUE(runtime.Start().ok());

  core::Client client(runtime, ipc::Credentials{100, 1000, 1000});
  ASSERT_TRUE(client.Connect().ok());
  labmods::GenericFs fs(client);
  auto fd = fs.Create("fs::/teler/file");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::vector<uint8_t> data(4096, 0x11);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs.Write(*fd, data, static_cast<uint64_t>(i) * 4096).ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs.Read(*fd, data, static_cast<uint64_t>(i) * 4096).ok());
  }
  ASSERT_TRUE(runtime.Stop().ok());

  const MetricsSnapshot snap = tel.metrics().Scrape();
  EXPECT_GE(snap.counters.at("runtime.worker.requests"), 17u);  // ops + create
  EXPECT_GE(snap.histograms.at("ipc.queue.wait_ns").count(), 1u);
  EXPECT_GE(snap.counters.at("cache.lru_cache.hits"), 1u);
  EXPECT_GE(snap.counters.at("orchestrator.rebalance.count"), 1u);

  const std::set<std::string> cats = Categories(tel.trace());
  EXPECT_TRUE(cats.contains("queue"));
  EXPECT_TRUE(cats.contains("mod"));
  EXPECT_TRUE(cats.contains("orchestrator"));
  EXPECT_TRUE(JsonChecker(tel.TraceJson()).Valid());

  // Disabled telemetry stops recording instantly.
  const size_t before = tel.trace().recorded();
  tel.set_enabled(false);
  tel.trace().Clear();
  EXPECT_EQ(tel.trace().recorded(), 0u);
  EXPECT_GE(before, 1u);
}

// ------------------------------------------------------------------
// ExecTrace helpers shared with bench_anatomy.
// ------------------------------------------------------------------

TEST(ExecTraceSummarize, AggregatesInFirstAppearanceOrder) {
  core::ExecTrace trace;
  trace.Charge("permissions", 100);
  trace.Charge("labfs", 200);
  trace.Charge("permissions", 50);
  trace.Charge("cache", 400);
  const auto totals = trace.Summarize();
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].component, "permissions");
  EXPECT_EQ(totals[0].total, 150u);
  EXPECT_EQ(totals[1].component, "labfs");
  EXPECT_EQ(totals[1].total, 200u);
  EXPECT_EQ(totals[2].component, "cache");
  EXPECT_EQ(totals[2].total, 400u);

  core::ExecTrace::DevOp op;
  op.op = simdev::IoOp::kWrite;
  op.length = 4096;
  op.channel = 3;
  op.async = true;
  EXPECT_EQ(op.Summary(), "write 4096B ch3 async");

  Telemetry tel;
  trace.PublishTo(tel, 1);
  const MetricsSnapshot snap = tel.metrics().Scrape();
  EXPECT_EQ(snap.counters.at("mod.permissions.charged_ns"), 150u);
  EXPECT_EQ(snap.counters.at("mod.cache.charged_ns"), 400u);
}

}  // namespace
}  // namespace labstor::telemetry
