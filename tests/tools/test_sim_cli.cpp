// Integration test for the fluxion-sim batch simulator binary.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>

namespace {

#ifndef FLUXION_SIM_BIN
#error "FLUXION_SIM_BIN must be defined by the build"
#endif

// ctest runs each discovered test as its own process, in parallel, all
// sharing TempDir() — so every scratch filename carries the pid.
std::string temp_dir() {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + std::to_string(::getpid()) + "_";
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << path;
  out << content;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class SimCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    grug_ = temp_dir() + "sim_sys.grug";
    trace_ = temp_dir() + "sim_trace.txt";
    write_file(grug_,
               "filters node core\nfilter-at cluster rack\n"
               "cluster count=1\n  rack count=1\n    node count=4\n"
               "      core count=8\n");
    write_file(trace_, "# demo\n2 100\n4 50\n1 25\n");
  }
  int run(const std::string& extra, std::string* out = nullptr) {
    const std::string out_path = temp_dir() + "sim_out.txt";
    const std::string cmd = std::string(FLUXION_SIM_BIN) + " --grug " +
                            grug_ + " --trace " + trace_ + " --cores 8 " +
                            extra + " > " + out_path + " 2>&1";
    const int rc = std::system(cmd.c_str());
    if (out != nullptr) *out = slurp(out_path);
    return rc;
  }
  std::string grug_;
  std::string trace_;
};

TEST_F(SimCliTest, EmitsCsvScheduleAndSummary) {
  std::string out;
  ASSERT_EQ(run("", &out), 0) << out;
  EXPECT_NE(out.find("job,nodes,duration,state,start,end,wait,fom,match_ms"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("1,2,100,completed,0,100,0"), std::string::npos) << out;
  EXPECT_NE(out.find("3 jobs, 3 completed, 0 rejected"), std::string::npos)
      << out;
}

TEST_F(SimCliTest, QueueDisciplineChangesSchedule) {
  std::string cons, fcfs;
  ASSERT_EQ(run("--queue conservative", &cons), 0);
  ASSERT_EQ(run("--queue fcfs", &fcfs), 0);
  // Job 3 (1 node) backfills at t=0 under backfilling but waits for the
  // 4-node job under FCFS.
  EXPECT_NE(cons.find("3,1,25,completed,0,25,0"), std::string::npos) << cons;
  EXPECT_EQ(fcfs.find("3,1,25,completed,0,25,0"), std::string::npos) << fcfs;
}

TEST_F(SimCliTest, PerfClassesFillFomColumn) {
  std::string out;
  ASSERT_EQ(run("--perf-classes 7", &out), 0);
  // With classes stamped, fom is >= 0 (last-but-one CSV column not -1).
  EXPECT_EQ(out.find(",-1,"), std::string::npos) << out;
}

TEST_F(SimCliTest, CsvGoesToFile) {
  const std::string csv = temp_dir() + "sim_sched.csv";
  std::string out;
  ASSERT_EQ(run("--csv " + csv, &out), 0);
  const std::string data = slurp(csv);
  EXPECT_NE(data.find("job,nodes"), std::string::npos);
  EXPECT_EQ(out.find("job,nodes"), std::string::npos);  // not on stdout
}

TEST_F(SimCliTest, OnlineReplayWithArrivalColumn) {
  const std::string trace = temp_dir() + "sim_trace_arr.txt";
  write_file(trace, "4 100 0\n4 50 30\n1 10 500\n");
  const std::string out_path = temp_dir() + "sim_arr_out.txt";
  const std::string cmd = std::string(FLUXION_SIM_BIN) + " --grug " + grug_ +
                          " --trace " + trace + " --cores 8 > " + out_path +
                          " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string out = slurp(out_path);
  // Second job arrived at 30, started at 100 (wait 70); third started at
  // its own arrival.
  EXPECT_NE(out.find("2,4,50,completed,100,150,70"), std::string::npos)
      << out;
  EXPECT_NE(out.find("3,1,10,completed,500,510,0"), std::string::npos)
      << out;
}

TEST_F(SimCliTest, PoissonArrivalsFlag) {
  std::string out;
  ASSERT_EQ(run("--arrivals 50", &out), 0) << out;
  EXPECT_NE(out.find("completed"), std::string::npos);
}

#ifndef FLUXION_ANALYZE_BIN
#error "FLUXION_ANALYZE_BIN must be defined by the build"
#endif

TEST_F(SimCliTest, AnalyzeSummarisesSchedule) {
  const std::string csv = temp_dir() + "sim_an.csv";
  std::string out;
  ASSERT_EQ(run("--perf-classes 3 --csv " + csv, &out), 0);
  const std::string an_out = temp_dir() + "an_out.txt";
  const std::string cmd = std::string(FLUXION_ANALYZE_BIN) + " " + csv +
                          " > " + an_out + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string report = slurp(an_out);
  EXPECT_NE(report.find("jobs: 3 (3 completed, 0 rejected)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("fom histogram:"), std::string::npos) << report;
  EXPECT_NE(report.find("wait distribution:"), std::string::npos) << report;
}

TEST_F(SimCliTest, AnalyzeRejectsGarbage) {
  const std::string bad = temp_dir() + "an_bad.csv";
  write_file(bad, "not,a,schedule\n");
  const std::string cmd = std::string(FLUXION_ANALYZE_BIN) + " " + bad +
                          " > /dev/null 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0);
}

TEST_F(SimCliTest, MetricsFlagWritesJsonCatalogue) {
  const std::string metrics = temp_dir() + "sim_metrics.json";
  std::string out;
  ASSERT_EQ(run("--metrics " + metrics, &out), 0) << out;
  const std::string doc = slurp(metrics);
  // Top-level sections of the obs catalogue, with real activity inside.
  EXPECT_NE(doc.find("\"traverser\":{\"visits\":"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"allocate_orelse_reserve\":{\"calls\":3"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"planner\":{"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"queue\":{\"submitted\":3"), std::string::npos) << doc;
}

TEST_F(SimCliTest, TraceOutFlagWritesChromeTraceEvents) {
  const std::string trace_out = temp_dir() + "sim_events.json";
  std::string out;
  ASSERT_EQ(run("--trace-out " + trace_out, &out), 0) << out;
  const std::string doc = slurp(trace_out);
  ASSERT_FALSE(doc.empty());
  // Bare JSON array of events with the trace-event fields.
  EXPECT_EQ(doc.front(), '[') << doc;
  EXPECT_EQ(doc[doc.find_last_not_of('\n')], ']') << doc;
  for (const char* name : {"\"submit\"", "\"start\"", "\"run\"",
                           "\"complete\"", "\"process_name\""}) {
    EXPECT_NE(doc.find(name), std::string::npos) << name << "\n" << doc;
  }
  for (const char* field : {"\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"}) {
    EXPECT_NE(doc.find(field), std::string::npos) << field << "\n" << doc;
  }
}

TEST_F(SimCliTest, AnalyzeMetricsMergesAcrossFiles) {
  const std::string csv = temp_dir() + "an_m.csv";
  std::string out;
  ASSERT_EQ(run("--csv " + csv, &out), 0);
  const std::string metrics = temp_dir() + "an_metrics.json";
  const std::string cmd = std::string(FLUXION_ANALYZE_BIN) + " " + csv +
                          " " + csv + " --metrics " + metrics +
                          " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string doc = slurp(metrics);
  // Two per-file entries plus a merged rollup over both (3 jobs each).
  EXPECT_NE(doc.find("\"files\":[{"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"merged\":{\"jobs\":6"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"wait\":{"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"match_ms\":{"), std::string::npos) << doc;
}

TEST_F(SimCliTest, AnalyzeTraceRebuildsJobLifecycles) {
  const std::string csv = temp_dir() + "an_t.csv";
  std::string out;
  ASSERT_EQ(run("--csv " + csv, &out), 0);
  const std::string trace_out = temp_dir() + "an_events.json";
  const std::string cmd = std::string(FLUXION_ANALYZE_BIN) + " " + csv +
                          " --trace " + trace_out + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string doc = slurp(trace_out);
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.front(), '[') << doc;
  for (const char* name :
       {"\"submit\"", "\"start\"", "\"run\"", "\"complete\""}) {
    EXPECT_NE(doc.find(name), std::string::npos) << name << "\n" << doc;
  }
}

TEST_F(SimCliTest, EventlogFlagWritesJsonlLifecycles) {
  const std::string log = temp_dir() + "sim_events.jsonl";
  std::string out;
  ASSERT_EQ(run("--eventlog " + log, &out), 0) << out;
  const std::string doc = slurp(log);
  ASSERT_FALSE(doc.empty());
  // One JSON object per line, covering the whole lifecycle of the trace.
  EXPECT_EQ(doc.back(), '\n');
  for (const char* frag :
       {"\"ev\":\"submit\"", "\"ev\":\"probe\"", "\"ev\":\"alloc\"",
        "\"ev\":\"start\"", "\"ev\":\"finish\"", "\"wait_resources\":"}) {
    EXPECT_NE(doc.find(frag), std::string::npos) << frag << "\n" << doc;
  }
  std::size_t pos = 0;
  while (pos < doc.size()) {
    EXPECT_EQ(doc[pos], '{') << doc.substr(pos, 40);
    pos = doc.find('\n', pos) + 1;
  }

  // Determinism: the export is byte-identical with the cache on and off
  // (the tool-level face of the differential tests).
  const std::string log2 = temp_dir() + "sim_events2.jsonl";
  ASSERT_EQ(run("--eventlog " + log2 + " --no-match-cache", &out), 0) << out;
  EXPECT_EQ(slurp(log2), doc);
}

TEST_F(SimCliTest, MetricsPromFlagWritesPrometheusText) {
  const std::string prom = temp_dir() + "sim_metrics.prom";
  std::string out;
  ASSERT_EQ(run("--metrics-prom " + prom, &out), 0) << out;
  const std::string doc = slurp(prom);
  EXPECT_NE(doc.find("# TYPE fluxion_traverser_visits_total counter"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("fluxion_queue_submitted_total 3"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("_bucket{le=\"+Inf\"}"), std::string::npos) << doc;
}

TEST_F(SimCliTest, AnalyzeEventlogReportsBlockedReasons) {
  // fcfs keeps the 4-node job (and everything behind it) blocked until
  // the head job finishes, so the eventlog carries blocked events with
  // attribution for the analyzer to aggregate.
  const std::string log = temp_dir() + "an_ev.jsonl";
  std::string out;
  ASSERT_EQ(run("--queue fcfs --eventlog " + log, &out), 0) << out;
  const std::string an_out = temp_dir() + "an_ev_out.txt";
  const std::string cmd = std::string(FLUXION_ANALYZE_BIN) + " --eventlog " +
                          log + " > " + an_out + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << slurp(an_out);
  const std::string report = slurp(an_out);
  EXPECT_NE(report.find("== eventlog report"), std::string::npos) << report;
  EXPECT_NE(report.find("blocked"), std::string::npos) << report;
  EXPECT_NE(report.find("top blockers"), std::string::npos) << report;
  EXPECT_NE(report.find("wait decomposition"), std::string::npos) << report;
}

TEST_F(SimCliTest, AnalyzeEventlogRejectsGarbage) {
  const std::string bad = temp_dir() + "an_ev_bad.jsonl";
  write_file(bad, "{\"t\":0,\"job\":1,\"ev\":\"submit\"}\nnot json\n");
  const std::string cmd = std::string(FLUXION_ANALYZE_BIN) + " --eventlog " +
                          bad + " > /dev/null 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0);
}

TEST_F(SimCliTest, BenchCompareDiffsTwoReports) {
  const std::string a = temp_dir() + "bench_a.json";
  const std::string b = temp_dir() + "bench_b.json";
  write_file(a,
             "{\"schema_version\":1,\"bench\":\"queue_events\","
             "\"config\":{\"jobs\":100},\"matches_per_s\":1000,"
             "\"ratios\":{\"match_ratio\":0.5}}\n");
  write_file(b,
             "{\"schema_version\":1,\"bench\":\"queue_events\","
             "\"config\":{\"jobs\":100},\"matches_per_s\":1500,"
             "\"ratios\":{\"match_ratio\":0.25}}\n");
  const std::string out_path = temp_dir() + "bench_cmp.txt";
  const std::string cmd = std::string(FLUXION_ANALYZE_BIN) +
                          " --bench-compare " + a + " " + b + " > " +
                          out_path + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << slurp(out_path);
  const std::string report = slurp(out_path);
  EXPECT_NE(report.find("matches_per_s"), std::string::npos) << report;
  EXPECT_NE(report.find("+50"), std::string::npos) << report;  // +50% delta
  EXPECT_NE(report.find("ratios.match_ratio"), std::string::npos) << report;

  // A non-BENCH document is refused.
  const std::string not_bench = temp_dir() + "bench_nb.json";
  write_file(not_bench, "{\"hello\":1}\n");
  const std::string bad_cmd = std::string(FLUXION_ANALYZE_BIN) +
                              " --bench-compare " + a + " " + not_bench +
                              " > /dev/null 2>&1";
  EXPECT_NE(std::system(bad_cmd.c_str()), 0);
}

TEST_F(SimCliTest, BenchCompareZeroBaselineIsNa) {
  // A zero baseline counter used to divide by zero; the delta is
  // undefined, printed as "n/a" (distinct from "-" = key missing on one
  // side), with exit 0 and no inf/nan anywhere in the report.
  const std::string a = temp_dir() + "bench_z_a.json";
  const std::string b = temp_dir() + "bench_z_b.json";
  write_file(a,
             "{\"schema_version\":1,\"bench\":\"queue_events\","
             "\"match_skipped\":0,\"only_in_a\":3}\n");
  write_file(b,
             "{\"schema_version\":1,\"bench\":\"queue_events\","
             "\"match_skipped\":12,\"only_in_b\":5}\n");
  const std::string out_path = temp_dir() + "bench_z_cmp.txt";
  const std::string cmd = std::string(FLUXION_ANALYZE_BIN) +
                          " --bench-compare " + a + " " + b + " > " +
                          out_path + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << slurp(out_path);
  const std::string report = slurp(out_path);
  EXPECT_NE(report.find("n/a"), std::string::npos) << report;
  EXPECT_EQ(report.find("inf"), std::string::npos) << report;
  EXPECT_EQ(report.find("nan"), std::string::npos) << report;
  // Keys present on only one side still get "-" for the missing value.
  EXPECT_NE(report.find("only_in_a"), std::string::npos) << report;
  EXPECT_NE(report.find("only_in_b"), std::string::npos) << report;
}

TEST_F(SimCliTest, BadArgsFail) {
  std::string out;
  EXPECT_NE(run("--queue bogus", &out), 0);
  const std::string cmd = std::string(FLUXION_SIM_BIN) + " --grug /nope";
  EXPECT_NE(std::system((cmd + " > /dev/null 2>&1").c_str()), 0);
}

TEST_F(SimCliTest, ScenarioReplaysDynamicEvents) {
  // Node fails mid-run, victim requeued, a second rack grows, the victim
  // restarts on it. The summary line reports the dynamic activity.
  const std::string scenario = temp_dir() + "sim_scenario.txt";
  const std::string rack = temp_dir() + "sim_rack.grug";
  write_file(rack,
             "filters node core\nfilter-at rack\n"
             "rack count=1\n  node count=4\n    core count=8\n");
  write_file(scenario,
             "1 1000\n1 1000\n1 1000\n1 1000\n"
             "@ 500 status /cluster0/rack0/node0 down requeue\n"
             "@ 600 grow /cluster0 " + rack + "\n");
  const std::string out_path = temp_dir() + "sim_scn_out.txt";
  const std::string cmd = std::string(FLUXION_SIM_BIN) + " --grug " + grug_ +
                          " --scenario " + scenario + " --cores 8 > " +
                          out_path + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << slurp(out_path);
  const std::string out = slurp(out_path);
  EXPECT_NE(out.find("dyn events 1 status, 1 grow, 0 shrink"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("1 evicted, "), std::string::npos) << out;
  EXPECT_NE(out.find("4 jobs, 4 completed, 0 rejected"), std::string::npos)
      << out;
  // The evicted job restarted when the rack arrived.
  EXPECT_NE(out.find(",completed,600,1600,"), std::string::npos) << out;

  // Determinism: identical schedules on a second run (the trailing
  // match_ms column is wall-clock noise; drop it before comparing).
  const std::string out_path2 = temp_dir() + "sim_scn_out2.txt";
  const std::string csv1 = temp_dir() + "scn1.csv";
  const std::string csv2 = temp_dir() + "scn2.csv";
  for (const auto* p : {&csv1, &csv2}) {
    const std::string c = std::string(FLUXION_SIM_BIN) + " --grug " + grug_ +
                          " --scenario " + scenario + " --cores 8 --csv " +
                          *p + " > " + out_path2 + " 2>&1";
    ASSERT_EQ(std::system(c.c_str()), 0) << slurp(out_path2);
  }
  auto strip_match_ms = [](std::string csv) {
    std::string out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
      const auto eol = csv.find('\n', pos);
      std::string line = csv.substr(pos, eol - pos);
      out += line.substr(0, line.rfind(','));
      out += '\n';
      pos = eol == std::string::npos ? csv.size() : eol + 1;
    }
    return out;
  };
  EXPECT_EQ(strip_match_ms(slurp(csv1)), strip_match_ms(slurp(csv2)));
}

TEST_F(SimCliTest, TraceAndScenarioAreMutuallyExclusive) {
  const std::string scenario = temp_dir() + "sim_both.txt";
  write_file(scenario, "1 10\n");
  const std::string cmd = std::string(FLUXION_SIM_BIN) + " --grug " + grug_ +
                          " --trace " + trace_ + " --scenario " + scenario +
                          " > /dev/null 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0);
}

}  // namespace
