// Integration test for the resource-query CLI: drives the real binary via
// a shell pipeline, the way the paper's evaluation scripts would.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

#ifndef RESOURCE_QUERY_BIN
#error "RESOURCE_QUERY_BIN must be defined by the build"
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

/// Run the CLI with `commands` on stdin; returns captured stdout.
std::string run_cli(const std::string& args, const std::string& commands,
                    int* exit_code = nullptr) {
  const std::string dir = temp_dir();
  const std::string cmd_path = dir + "rq_commands.txt";
  const std::string out_path = dir + "rq_output.txt";
  std::ofstream(cmd_path) << commands;
  const std::string cmdline = std::string(RESOURCE_QUERY_BIN) + " " + args +
                              " < " + cmd_path + " > " + out_path + " 2>&1";
  const int rc = std::system(cmdline.c_str());
  if (exit_code != nullptr) *exit_code = rc;
  std::ifstream in(out_path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    grug_ = temp_dir() + "cli_sys.grug";
    job_ = temp_dir() + "cli_job.yaml";
    write_file(grug_,
               "filters core\nfilter-at cluster rack\n"
               "cluster count=1\n  rack count=2\n    node count=2\n"
               "      core count=4\n");
    write_file(job_,
               "resources:\n"
               "  - type: node\n"
               "    count: 1\n"
               "    with:\n"
               "      - type: slot\n"
               "        count: 1\n"
               "        with:\n"
               "          - type: core\n"
               "            count: 2\n"
               "attributes:\n"
               "  system:\n"
               "    duration: 60\n");
  }
  std::string grug_;
  std::string job_;
};

TEST_F(CliTest, InfoAndAllocate) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "info\nmatch allocate " + job_ + "\nquit\n");
  EXPECT_NE(out.find("vertices: 23 live"), std::string::npos) << out;
  EXPECT_NE(out.find("/cluster0/rack0/node0/core0"), std::string::npos)
      << out;
}

TEST_F(CliTest, RliteFormat) {
  const std::string out = run_cli(
      "--grug " + grug_ + " --format rlite",
      "match allocate " + job_ + "\nquit\n");
  EXPECT_NE(out.find("\"R_lite\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"core\": 2"), std::string::npos) << out;
}

TEST_F(CliTest, SatisfiabilityAndFailure) {
  const std::string big = temp_dir() + "cli_big.yaml";
  write_file(big,
             "resources:\n"
             "  - type: slot\n"
             "    count: 1\n"
             "    with:\n"
             "      - type: node\n"
             "        count: 9\n"
             "        exclusive: true\n");
  const std::string out = run_cli(
      "--grug " + grug_,
      "match satisfiability " + job_ + "\nmatch satisfiability " + big +
          "\nquit\n");
  EXPECT_NE(out.find("satisfiable"), std::string::npos) << out;
  EXPECT_NE(out.find("MATCH FAILED (unsatisfiable)"), std::string::npos)
      << out;
}

TEST_F(CliTest, CancelRoundTrip) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate " + job_ + "\ncancel 1\ncancel 1\nquit\n");
  EXPECT_NE(out.find("canceled"), std::string::npos) << out;
  EXPECT_NE(out.find("unknown job"), std::string::npos) << out;
}

TEST_F(CliTest, HighIdPolicySelectsFromTheTop) {
  const std::string out = run_cli(
      "--grug " + grug_ + " --policy high-id",
      "match allocate " + job_ + "\nquit\n");
  EXPECT_NE(out.find("/cluster0/rack1/node3"), std::string::npos) << out;
}

TEST_F(CliTest, JgfDump) {
  const std::string out = run_cli("--grug " + grug_, "jgf\nquit\n");
  EXPECT_NE(out.find("\"graph\""), std::string::npos);
  EXPECT_NE(out.find("\"subsystem\": \"containment\""), std::string::npos);
}

TEST_F(CliTest, GrowAndShrink) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate " + job_ + "\n"        // job 1 on node0
      "grow 1 " + job_ + "\n"                // +2 cores
      "shrink 1 /cluster0/rack0/node0\n"     // drop node0's claims
      "shrink 1 /cluster0/rack0/node0\n"     // nothing left there
      "quit\n");
  EXPECT_NE(out.find("shrunk"), std::string::npos) << out;
  EXPECT_NE(out.find("holds nothing"), std::string::npos) << out;
}

TEST_F(CliTest, DetachSubtree) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "detach /cluster0/rack1\n"
      "info\n"
      "detach /cluster0/nowhere\n"
      "quit\n");
  EXPECT_NE(out.find("detached"), std::string::npos) << out;
  // 23 - (1 rack + 2 nodes + 8 cores) = 12 live vertices.
  EXPECT_NE(out.find("vertices: 12 live / 23 total"), std::string::npos)
      << out;
  EXPECT_NE(out.find("unknown path"), std::string::npos) << out;
}

TEST_F(CliTest, RunTraceReportsMetrics) {
  const std::string trace = temp_dir() + "cli_trace.txt";
  write_file(trace, "# tiny trace\n2 100\n4 50\n1 10\n");
  const std::string out = run_cli(
      "--grug " + grug_, "run-trace " + trace + " 4\nquit\n");
  EXPECT_NE(out.find("jobs: 3 completed"), std::string::npos) << out;
  EXPECT_NE(out.find("makespan:"), std::string::npos) << out;
}

TEST_F(CliTest, AllocateWithSatisfiability) {
  const std::string big = temp_dir() + "cli_big2.yaml";
  write_file(big,
             "resources:\n"
             "  - type: slot\n"
             "    count: 1\n"
             "    with:\n"
             "      - type: node\n"
             "        count: 4\n"
             "        exclusive: true\n");
  // Fill the system (4 nodes), then: same request again is BUSY (it could
  // run later), while a 5-node request is UNSATISFIABLE.
  const std::string impossible = temp_dir() + "cli_imp.yaml";
  write_file(impossible,
             "resources:\n"
             "  - type: slot\n"
             "    count: 1\n"
             "    with:\n"
             "      - type: node\n"
             "        count: 5\n"
             "        exclusive: true\n");
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate " + big + "\n"
      "match allocate_with_satisfiability " + big + "\n"
      "match allocate_with_satisfiability " + impossible + "\nquit\n");
  EXPECT_NE(out.find("MATCH FAILED (resource_busy)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("MATCH FAILED (unsatisfiable)"), std::string::npos)
      << out;
}

TEST_F(CliTest, StatsReportsCountersAfterMixedOps) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate " + job_ + "\n"
      "match allocate_orelse_reserve " + job_ + "\n"
      "cancel 1\n"
      "stats\nquit\n");
  // Legacy one-liner is intact and non-zero after two matches...
  EXPECT_NE(out.find("visits: "), std::string::npos) << out;
  EXPECT_EQ(out.find("visits: 0,"), std::string::npos) << out;
  // ...and the obs catalogue reports per-op and planner activity.
  EXPECT_NE(out.find("match ops:"), std::string::npos) << out;
  EXPECT_NE(out.find("allocate_orelse_reserve"), std::string::npos) << out;
  EXPECT_NE(out.find("calls=1"), std::string::npos) << out;
  EXPECT_NE(out.find("planner:"), std::string::npos) << out;
  EXPECT_NE(out.find("sdfu:"), std::string::npos) << out;
}

TEST_F(CliTest, StatsVerboseAddsHistograms) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate " + job_ + "\nstats -v\nquit\n");
  // Verbose mode renders latency histogram bars (bin rows with '#').
  EXPECT_NE(out.find("latency"), std::string::npos) << out;
  EXPECT_NE(out.find('#'), std::string::npos) << out;
}

TEST_F(CliTest, ClearStatsZeroesEverything) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate " + job_ + "\n"
      "clear-stats\nstats\nquit\n");
  EXPECT_NE(out.find("stats cleared"), std::string::npos) << out;
  // After clearing, the legacy line reads all zeros and the per-op
  // sections (printed only when calls > 0) are gone.
  const auto cleared = out.find("stats cleared");
  const std::string after = out.substr(cleared);
  EXPECT_NE(after.find("visits: 0, pruned: 0, match attempts: 0"),
            std::string::npos)
      << out;
  EXPECT_EQ(after.find("calls="), std::string::npos) << out;
}

TEST_F(CliTest, InfoReportsSubsystemEdges) {
  const std::string out = run_cli("--grug " + grug_, "info\nquit\n");
  // 23-vertex tree: 22 live containment edges.
  EXPECT_NE(out.find("subsystem containment: 22 edges"), std::string::npos)
      << out;
}

TEST_F(CliTest, JgfSystemLoading) {
  // Dump the GRUG system as JGF, then boot a second CLI from that file —
  // the hand-off path between instances and external tools.
  const std::string jgf_file = temp_dir() + "cli_sys.jgf";
  const std::string dump = run_cli("--grug " + grug_, "jgf\nquit\n");
  // Strip the banner line; the rest is the JGF document.
  const auto nl = dump.find('\n');
  write_file(jgf_file, dump.substr(nl + 1));
  const std::string out = run_cli(
      "--jgf " + jgf_file,
      "info\nmatch allocate " + job_ + "\nquit\n");
  EXPECT_NE(out.find("vertices: 23 live"), std::string::npos) << out;
  EXPECT_NE(out.find("/cluster0/rack0/node0/core0"), std::string::npos)
      << out;
}

TEST_F(CliTest, JgfChildNamedLikeTheRootKeepsRootPath) {
  // A node named like the cluster root must not hide the root's path.
  const std::string jgf_file = temp_dir() + "cli_twin.jgf";
  write_file(jgf_file,
             R"({"graph":{"nodes":[)"
             R"({"id":"0","metadata":{"type":"cluster","name":"cluster0"}},)"
             R"({"id":"1","metadata":{"type":"node","name":"cluster0"}},)"
             R"({"id":"2","metadata":{"type":"core","name":"core0"}}],)"
             R"("edges":[{"source":"0","target":"1"},)"
             R"({"source":"1","target":"2"}]}})");
  const std::string out =
      run_cli("--jgf " + jgf_file,
              "set-status /cluster0 drained\n"
              "set-status /cluster0/cluster0 up\nquit\n");
  EXPECT_EQ(out.find("needs a known path"), std::string::npos) << out;
  EXPECT_NE(out.find("/cluster0: up -> drained"), std::string::npos) << out;
  EXPECT_NE(out.find("/cluster0/cluster0: drained -> up"), std::string::npos)
      << out;
}

TEST_F(CliTest, GrugAndJgfAreMutuallyExclusive) {
  int rc = 0;
  run_cli("--grug " + grug_ + " --jgf " + grug_, "quit\n", &rc);
  EXPECT_NE(rc, 0);
  run_cli("", "quit\n", &rc);
  EXPECT_NE(rc, 0);
}

TEST_F(CliTest, BadInputsReportErrors) {
  int rc = 0;
  run_cli("--grug /nonexistent.grug", "quit\n", &rc);
  EXPECT_NE(rc, 0);
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate /nonexistent.yaml\nbogus\nquit\n");
  EXPECT_NE(out.find("cannot read"), std::string::npos);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, SetStatusDrainsAndRevives) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "set-status /cluster0/rack0 drained\n"
      "info\n"
      "tree\n"
      "set-status /cluster0/rack0 up\n"
      "info\n"
      "set-status /cluster0/nowhere down\n"
      "quit\n");
  EXPECT_NE(out.find("/cluster0/rack0: up -> drained, evicted 0 jobs"),
            std::string::npos)
      << out;
  // rack + 2 nodes + 8 cores drained.
  EXPECT_NE(out.find("status: up=12 down=0 drained=11"), std::string::npos)
      << out;
  EXPECT_NE(out.find("rack0 (drained)"), std::string::npos) << out;
  EXPECT_NE(out.find("/cluster0/rack0: drained -> up, evicted 0 jobs"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("status: up=23 down=0 drained=0"), std::string::npos)
      << out;
  EXPECT_NE(out.find("error: set-status"), std::string::npos) << out;
}

TEST_F(CliTest, DownNodeEvictsItsJob) {
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate " + job_ + "\n"  // lands on node0 (LowId)
      "set-status /cluster0/rack0/node0 down\n"
      "quit\n");
  EXPECT_NE(out.find("/cluster0/rack0/node0: up -> down, evicted 1 jobs"),
            std::string::npos)
      << out;
}

TEST_F(CliTest, ExplainAttributesMatchOutcomes) {
  const std::string big = temp_dir() + "cli_full.yaml";
  write_file(big,
             "resources:\n"
             "  - type: slot\n"
             "    count: 1\n"
             "    with:\n"
             "      - type: node\n"
             "        count: 4\n"
             "        exclusive: true\n"
             "attributes:\n"
             "  system:\n"
             "    duration: 500\n");
  const std::string out = run_cli(
      "--grug " + grug_,
      "match allocate " + big + "\n"   // job 1 fills the machine until 500
      "match allocate " + job_ + "\n"  // attempt 2: busy
      "explain 1\n"
      "explain last\n"
      "explain 77\n"
      "quit\n");
  EXPECT_NE(out.find("job 1: match allocate -> ok"), std::string::npos)
      << out;
  EXPECT_NE(out.find("no rejections recorded; match succeeded"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("job 2: match allocate -> resource_busy"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("dominant blocker: "), std::string::npos) << out;
  EXPECT_NE(out.find("rejections: "), std::string::npos) << out;
  EXPECT_NE(out.find("earliest feasible: t=500"), std::string::npos) << out;
  EXPECT_NE(out.find("no match attempt recorded for job 77"),
            std::string::npos)
      << out;
}

TEST_F(CliTest, GraphGrowAndShrink) {
  const std::string fragment = temp_dir() + "cli_rack.grug";
  write_file(fragment,
             "filters core\nfilter-at rack\n"
             "rack count=1\n  node count=2\n    core count=4\n");
  const std::string out = run_cli(
      "--grug " + grug_,
      "grow /cluster0 " + fragment + "\n"
      "info\n"
      "shrink /cluster0/rack2\n"
      "info\n"
      "quit\n");
  EXPECT_NE(out.find("grew /cluster0/rack2 under /cluster0"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("vertices: 34 live"), std::string::npos) << out;
  EXPECT_NE(out.find("shrunk /cluster0/rack2: removed 11 vertices"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("vertices: 23 live / 34 total"), std::string::npos)
      << out;
}

}  // namespace
