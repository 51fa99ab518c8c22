// Tests of the benchmark's own machinery: the percentile rule, the Poisson
// schedule, due-time latency under a generator stall, the three pim clocks,
// and the span tracer.  Run: .bench_build/cmake/perfbench_test
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "metrics.hpp"
#include "serve/session_manager.hpp"
#include "serve_loop.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  const Tail t = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.n, 1000u);
  EXPECT_EQ(t.beyond, 10u);

  // One sample fewer leaves only nine beyond p99: the rule steps down.
  const Tail u = tail_percentile(one_to(999));
  EXPECT_DOUBLE_EQ(u.q, 0.95);
  EXPECT_GE(u.beyond, 10u);

  EXPECT_DOUBLE_EQ(tail_percentile(one_to(10000)).q, 0.999);
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(20)).q, 0.50);
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(10)).q, 0.0);  // nothing qualifies
}

TEST(PercentileRule, NearestRankAndMedian) {
  const Tail t = percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.5);
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_EQ(t.beyond, 2u);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(PoissonSchedule, ReproducibleFromTheSeed) {
  const std::vector<std::size_t> per_tenant = {300, 280, 310, 290};
  const auto a = poisson_schedule(7, 80.0, per_tenant);
  const auto b = poisson_schedule(7, 80.0, per_tenant);
  const auto c = poisson_schedule(8, 80.0, per_tenant);
  ASSERT_EQ(a.size(), 1180u);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].batch, b[i].batch);
    differs = differs || a[i].due_s != c[i].due_s || a[i].tenant != c[i].tenant;
  }
  EXPECT_TRUE(differs);
}

TEST(PoissonSchedule, EveryBatchOnceInOrderAtTheRate) {
  const std::vector<std::size_t> per_tenant = {5000, 5000, 5000, 5000};
  const double rate = 250.0;
  const auto s = poisson_schedule(3, rate, per_tenant);
  std::vector<std::uint32_t> next(per_tenant.size(), 0);
  double prev = 0.0;
  for (const Arrival& a : s) {
    EXPECT_EQ(a.batch, next[a.tenant]++);
    EXPECT_GT(a.due_s, prev);
    prev = a.due_s;
  }
  for (std::size_t t = 0; t < per_tenant.size(); ++t) {
    EXPECT_EQ(next[t], per_tenant[t]);
  }
  // 20000 exponential gaps: the mean is within 3% of 1/rate.
  EXPECT_NEAR(prev / static_cast<double>(s.size()), 1.0 / rate,
              0.03 / rate);
}

/// One cpu-fast tenant fed small batches on a fast schedule.
OpenLoopResult serve_small(const std::function<void(std::size_t)>& stall) {
  TenantStream ts;
  ts.name = "t";
  pimtc::graph::EdgeList g = community(4000, 11);
  std::vector<pimtc::EdgeUpdate> ups;
  for (const pimtc::Edge& e : g.edges()) ups.push_back(pimtc::insert_of(e));
  for (std::size_t off = 0; off + 8 <= ups.size() && ts.batches.size() < 200;
       off += 8) {
    ts.batches.emplace_back(ups.begin() + static_cast<std::ptrdiff_t>(off),
                            ups.begin() + static_cast<std::ptrdiff_t>(off + 8));
  }
  const std::vector<TenantStream> tenants = {ts};
  const auto schedule = poisson_schedule(5, 500.0, {ts.batches.size()});
  pimtc::serve::ServeConfig cfg;
  cfg.workers = 1;
  pimtc::serve::SessionManager mgr(cfg);
  mgr.open("t", "cpu-fast", {}, pimtc::serve::AdmissionPolicy::kReject);
  Tracer tracer;
  return run_open_loop(mgr, tenants, schedule, tracer, stall);
}

TEST(OpenLoop, LatencyRunsFromTheDueTimeSoAStallShows) {
  const OpenLoopResult clean = serve_small({});
  const OpenLoopResult stalled = serve_small([](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  ASSERT_EQ(clean.due_to_visible_s.size(), 200u);
  ASSERT_EQ(stalled.due_to_visible_s.size(), 200u);
  EXPECT_EQ(clean.rejected + clean.unpublished, 0u);
  // The stall delays the first batch by 300 ms, and every batch due during
  // it waits too: at 500 batches/s that is most of the 200.
  EXPECT_GE(stalled.due_to_visible_s.front(), 0.3);
  EXPECT_GE(stalled.late_s.front(), 0.3);
  EXPECT_GT(median(stalled.due_to_visible_s),
            median(clean.due_to_visible_s) + 0.05);
  // The stall lands before admission, where SessionManager::latencies()
  // (admit to visible) cannot see it.
  EXPECT_GT(median(stalled.due_to_admit_s),
            median(clean.due_to_admit_s) + 0.05);
}

TEST(PimClocks, HostSimulatorAndModeledSecondsStayApart) {
  pimtc::engine::CountReport r;
  r.times.setup_s = 1.0;
  r.times.ingest_s = 2.0;
  r.times.count_s = 4.0;
  r.times.host_s = 0.25;
  const PimClocks c = split_clocks(r, 1.0);
  EXPECT_DOUBLE_EQ(c.host_s, 0.25);
  EXPECT_DOUBLE_EQ(c.sim_overhead_s, 0.75);
  EXPECT_DOUBLE_EQ(c.modeled_s(), 7.0);  // no host seconds in it

  RunResult out;
  set_pim_layer_metrics(out, r, c);
  EXPECT_DOUBLE_EQ(out.metrics.at("pim.host_s").value, 0.25);
  EXPECT_DOUBLE_EQ(out.metrics.at("pim.sim_overhead_s").value, 0.75);
  EXPECT_DOUBLE_EQ(out.metrics.at("pim.modeled_setup_s").value, 1.0);
  EXPECT_DOUBLE_EQ(out.metrics.at("pim.modeled_ingest_s").value, 2.0);
  EXPECT_DOUBLE_EQ(out.metrics.at("pim.modeled_count_s").value, 4.0);
  // Exactly these five metrics are in seconds: no sum across clocks.
  std::vector<std::string> seconds;
  for (const auto& [name, m] : out.metrics) {
    if (m.unit == "s") seconds.push_back(name);
  }
  EXPECT_EQ(seconds.size(), 5u);
}

TEST(Tracer, RecordsOnlyWhileRecordingWithParents) {
  Tracer tracer;
  {
    Tracer::Span off(tracer, "graph", "untraced");
  }
  tracer.set_recording(true);
  {
    Tracer::Span outer(tracer, "engine", "outer");
    Tracer::Span inner(tracer, "graph", "inner");
    EXPECT_GE(inner.end(), 0.0);
  }
  const auto spans = tracer.records();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
}

TEST(Tracer, RecordsFromManyThreads) {
  Tracer tracer;
  tracer.set_recording(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 500; ++i) {
        Tracer::Span outer(tracer, "serve", "submit");
        Tracer::Span inner(tracer, "engine", "apply");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const auto spans = tracer.records();
  ASSERT_EQ(spans.size(), 4000u);
  std::map<std::uint64_t, SpanRecord> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = s;
  EXPECT_EQ(by_id.size(), 4000u);  // ids are unique
  for (const SpanRecord& s : spans) {
    if (s.name == "apply") {
      // Each inner span's parent is the outer span open on its own thread.
      const SpanRecord& parent = by_id.at(s.parent);
      EXPECT_EQ(parent.name, "submit");
      EXPECT_EQ(parent.tid, s.tid);
    } else {
      EXPECT_EQ(s.parent, 0u);
    }
  }
}

TEST(Tracer, SelfTimeCoverageAndChromeJson) {
  const std::vector<SpanRecord> spans = {
      {1, 0, "engine", "count", 0.0, 10.0, 1},
      {2, 1, "graph", "read", 2.0, 5.0, 1},
      {3, 0, "serve", "submit", 12.0, 14.0, 2},
  };
  std::map<std::string, LayerTime> by;
  for (const LayerTime& lt : layer_self_times(spans)) by[lt.layer] = lt;
  EXPECT_DOUBLE_EQ(by["engine"].self_s, 7.0);
  EXPECT_DOUBLE_EQ(by["engine"].total_s, 10.0);
  EXPECT_DOUBLE_EQ(by["graph"].self_s, 3.0);
  EXPECT_DOUBLE_EQ(by["serve"].self_s, 2.0);
  EXPECT_DOUBLE_EQ(top_level_coverage(spans, 0.0, 20.0), 0.6);
  EXPECT_DOUBLE_EQ(span_sum(spans, "graph", "read").total_s, 3.0);
  EXPECT_EQ(span_sum(spans, "graph", "read").count, 1u);

  Tracer tracer;
  tracer.set_recording(true);
  {
    Tracer::Span a(tracer, "engine", "a");
    Tracer::Span b(tracer, "graph", "b \"quoted\"");
  }
  const std::filesystem::path path = "perfbench_test_trace.json";
  tracer.write_chrome_json(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::filesystem::remove(path);
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"graph.b \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"parent\":"), std::string::npos);
}

TEST(RunResult, JsonCarriesEveryDigitAndTheVerdict) {
  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  r.set("x", 0.1234567890123, "s");
  r.fail_check("because");
  EXPECT_EQ(r.to_json(),
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\"metrics\":"
            "{\"x\":{\"value\":0.12345678901230001,\"unit\":\"s\"}}}");
}

}  // namespace
}  // namespace perfbench
