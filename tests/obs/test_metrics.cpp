// Unit tests for the obs metric primitives and the PerfMonitor catalogue.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace fluxion::obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, TracksLastValueAndHighWater) {
  Gauge g;
  g.set(3);
  g.set(10);
  g.set(5);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.max(), 10);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
}

TEST(OpNames, StableAndDistinct) {
  EXPECT_STREQ(op_name(Op::allocate), "allocate");
  EXPECT_STREQ(op_name(Op::allocate_orelse_reserve),
               "allocate_orelse_reserve");
  EXPECT_STREQ(op_name(Op::satisfiability), "satisfiability");
  EXPECT_STREQ(op_name(Op::allocate_with_satisfiability),
               "allocate_with_satisfiability");
  EXPECT_STREQ(op_name(Op::cancel), "cancel");
}

TEST(EnabledFlag, DefaultsOffAndToggles) {
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

TEST(PerfMonitor, ResetZeroesEveryGroup) {
  PerfMonitor m;
  m.trav_visits.inc(7);
  m.op(Op::allocate).calls.inc();
  m.op(Op::allocate).latency_us.add(12.0);
  m.planner_span_adds.inc(3);
  m.multi_atf_rounds.inc();
  m.sdfu_spans_per_commit.add(2.0);
  m.queue_depth.set(9);
  m.job_wait.add(100.0);
  m.reset();
  EXPECT_EQ(m.trav_visits.value(), 0u);
  EXPECT_EQ(m.op(Op::allocate).calls.value(), 0u);
  EXPECT_EQ(m.op(Op::allocate).latency_us.count(), 0u);
  EXPECT_EQ(m.planner_span_adds.value(), 0u);
  EXPECT_EQ(m.multi_atf_rounds.value(), 0u);
  EXPECT_EQ(m.sdfu_spans_per_commit.count(), 0u);
  EXPECT_EQ(m.queue_depth.value(), 0);
  EXPECT_EQ(m.queue_depth.max(), 0);
  EXPECT_EQ(m.job_wait.count(), 0u);
}

TEST(PerfMonitor, JsonHasEverySectionAndRoundTripValues) {
  set_enabled(true);
  PerfMonitor& m = monitor();
  m.reset();
  std::uint64_t submitted = 0;  // a queue's tally, read through a Source
  const Source queue(nullptr, {{"queue.submitted", &submitted}});
  m.trav_visits.inc(5);
  m.op(Op::cancel).calls.inc(2);
  m.planner_atf_probes.inc(11);
  submitted = 4;
  const std::string doc = m.json();
  m.reset();
  set_enabled(false);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
  for (const char* section :
       {"\"traverser\":", "\"ops\":", "\"planner\":", "\"planner_multi\":",
        "\"sdfu\":", "\"queue\":"}) {
    EXPECT_NE(doc.find(section), std::string::npos) << section;
  }
  EXPECT_NE(doc.find("\"visits\":5"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"cancel\":{\"calls\":2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"atf_probes\":11"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"submitted\":4"), std::string::npos) << doc;
}

TEST(PerfMonitor, RenderSkipsIdleOpsAndQueue) {
  set_enabled(true);
  PerfMonitor& m = monitor();
  m.reset();
  std::uint64_t submitted = 0;
  const Source queue(nullptr, {{"queue.submitted", &submitted}});
  std::string out = m.render(false);
  EXPECT_EQ(out.find("calls="), std::string::npos) << out;
  EXPECT_EQ(out.find("queue:"), std::string::npos) << out;
  m.op(Op::satisfiability).calls.inc();
  ++submitted;
  out = m.render(false);
  m.reset();
  set_enabled(false);
  EXPECT_NE(out.find("satisfiability"), std::string::npos) << out;
  EXPECT_NE(out.find("queue:"), std::string::npos) << out;
}

TEST(PerfMonitor, VerboseRenderAppendsHistogramBars) {
  PerfMonitor m;
  m.op(Op::allocate).calls.inc();
  m.op(Op::allocate).latency_us.add(50.0);
  const std::string terse = m.render(false);
  const std::string verbose = m.render(true);
  EXPECT_EQ(terse.find('#'), std::string::npos) << terse;
  EXPECT_NE(verbose.find('#'), std::string::npos) << verbose;
  EXPECT_GT(verbose.size(), terse.size());
}

TEST(GlobalMonitor, IsASingleInstance) {
  monitor().reset();
  monitor().trav_visits.inc();
  EXPECT_EQ(monitor().trav_visits.value(), 1u);
  monitor().reset();
  EXPECT_EQ(monitor().trav_visits.value(), 0u);
}

}  // namespace
}  // namespace fluxion::obs
