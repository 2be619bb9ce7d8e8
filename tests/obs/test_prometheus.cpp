// Prometheus text-exposition export (format 0.0.4): counters end in
// _total, every series is preceded by a # TYPE line, histograms emit
// cumulative le-labelled buckets closed by +Inf plus _sum/_count, and
// labelled families (per-op, per-member) share one TYPE header.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace fluxion::obs {
namespace {

class PrometheusFixture : public ::testing::Test {
 protected:
  PrometheusFixture() {
    set_enabled(true);
    monitor().reset();
  }
  ~PrometheusFixture() override {
    monitor().reset();
    set_enabled(false);
  }
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST_F(PrometheusFixture, CountersRenderAsTotalSeries) {
  std::uint64_t submitted = 0;  // a queue's tally, read through a Source
  const Source queue(nullptr, {{"queue.submitted", &submitted}});
  monitor().trav_visits.inc(7);
  submitted = 3;
  const std::string text = monitor().prometheus();
  EXPECT_NE(text.find("# TYPE fluxion_traverser_visits_total counter\n"
                      "fluxion_traverser_visits_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("fluxion_queue_submitted_total 3\n"), std::string::npos);
}

TEST_F(PrometheusFixture, GaugeRendersValueAndHighWaterMark) {
  monitor().queue_depth.set(9);
  monitor().queue_depth.set(4);
  const std::string text = monitor().prometheus();
  EXPECT_NE(text.find("# TYPE fluxion_queue_depth gauge\n"
                      "fluxion_queue_depth 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("fluxion_queue_depth_max 9\n"), std::string::npos);
}

TEST_F(PrometheusFixture, HistogramBucketsAreCumulativeAndClosed) {
  monitor().job_wait.add(10.0);
  monitor().job_wait.add(20.0);
  const std::string text = monitor().prometheus();
  EXPECT_NE(text.find("# TYPE fluxion_job_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("fluxion_job_wait_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("fluxion_job_wait_seconds_sum 30\n"), std::string::npos);
  EXPECT_NE(text.find("fluxion_job_wait_seconds_count 2\n"),
            std::string::npos);
  // Buckets must be monotone non-decreasing within the family.
  std::uint64_t prev = 0;
  bool saw_bucket = false;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("fluxion_job_wait_seconds_bucket{", 0) != 0) continue;
    saw_bucket = true;
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos);
    const std::uint64_t c = std::stoull(line.substr(sp + 1));
    EXPECT_GE(c, prev) << line;
    prev = c;
  }
  EXPECT_TRUE(saw_bucket);
}

TEST_F(PrometheusFixture, LabelledFamiliesShareOneTypeHeader) {
  monitor().op(Op::allocate).calls.inc(5);
  const std::string text = monitor().prometheus();
  std::size_t type_headers = 0;
  bool saw_allocate = false, saw_cancel = false;
  for (const std::string& line : lines_of(text)) {
    if (line == "# TYPE fluxion_op_calls_total counter") ++type_headers;
    if (line == "fluxion_op_calls_total{op=\"allocate\"} 5") {
      saw_allocate = true;
    }
    if (line == "fluxion_op_calls_total{op=\"cancel\"} 0") saw_cancel = true;
  }
  EXPECT_EQ(type_headers, 1u);
  EXPECT_TRUE(saw_allocate);
  EXPECT_TRUE(saw_cancel);
}

TEST_F(PrometheusFixture, EveryLineIsTypeCommentOrSample) {
  monitor().trav_visits.inc();
  monitor().job_wait.add(1.0);
  for (const std::string& line : lines_of(monitor().prometheus())) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) continue;
    // A sample: metric-name[{labels}] SP value.
    EXPECT_EQ(line.rfind("fluxion_", 0), 0u) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace fluxion::obs
