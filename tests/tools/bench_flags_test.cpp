#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_json_common.hpp"
#include "experiments/parallel.hpp"
#include "repro_common.hpp"

namespace paradyn::bench {
namespace {

std::string start_with(std::vector<const char*> argv, std::vector<tools::Flag> rows) {
  argv.insert(argv.begin(), "bench");
  return start("fig", static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
               std::move(rows));
}

TEST(BenchFlags, BadJobsExitOneBeforeTheStamp) {
  // fig22_smp_nodes --job 1 ran the whole figure and exited 0, --jobs abc
  // meant all hardware threads, and --jobs -1 wrapped through strtoul.
  EXPECT_EXIT(start_with({"--job", "1"}, {kJobs}), testing::ExitedWithCode(1),
              "^fig: unknown flag: --job \\(did you mean --jobs\\?\\)\n$");
  EXPECT_EXIT(start_with({"--jobs", "abc"}, {kJobs}), testing::ExitedWithCode(1),
              "^fig: flag --jobs: not an integer: abc\n$");
  EXPECT_EXIT(start_with({"--jobs", "-1"}, {kJobs}), testing::ExitedWithCode(1),
              "^fig: flag --jobs: out of range \\[0, 2147483647\\]: -1\n$");
  EXPECT_EXIT(start_with({"stray"}, {kJobs}), testing::ExitedWithCode(1),
              "^fig: unexpected positional argument: stray\n$");
}

TEST(BenchFlags, BenchJsonTakesBothSpellings) {
  // fault_grid --bench-json out.json wrote no JSON and exited 0.  start()
  // opens the file to check it, so it lives in the test's scratch directory.
  const std::string out = testing::TempDir() + "out.json";
  const std::string joined = "--bench-json=" + out;
  testing::internal::CaptureStdout();
  EXPECT_EQ(start_with({"--bench-json", out.c_str()}, {kBenchJson}), out);
  EXPECT_EQ(start_with({joined.c_str()}, {kBenchJson}), out);
  EXPECT_EQ(start_with({}, {kBenchJson}), "");
  (void)testing::internal::GetCapturedStdout();
  // A bench accepts exactly the flags it reads.
  EXPECT_EXIT(start_with({"--jobs", "2"}, {kBenchJson}), testing::ExitedWithCode(1),
              "^fig: unknown flag: --jobs\n$");
  EXPECT_EXIT(start_with({"--bench-json", "x"}, {kJobs}), testing::ExitedWithCode(1),
              "^fig: unknown flag: --bench-json\n$");
}

TEST(BenchFlags, UnwritableBenchJsonExitsOneBeforeTheStamp) {
  // fault_grid --bench-json /nonexistent/dir/x.json reported "wrote 6
  // metric(s)" and exited 0 with no file written.
  EXPECT_EXIT(start_with({"--bench-json", "/nonexistent/dir/x.json"}, {kBenchJson}),
              testing::ExitedWithCode(1), "^fig: cannot write /nonexistent/dir/x\\.json\n$");
  EXPECT_EXIT(write_bench_json("/nonexistent/dir/x.json", {{"m", 1.0}}),
              testing::ExitedWithCode(1), "^bench-json: cannot write /nonexistent/dir/x\\.json\n$");
}

TEST(BenchFlags, JobsBecomeTheExperimentsDefault) {
  testing::internal::CaptureStdout();
  EXPECT_EQ(start_with({"--jobs", "3"}, {kJobs, kBenchJson}), "");
  const std::string stamp = testing::internal::GetCapturedStdout();
  EXPECT_EQ(experiments::default_jobs(), 3u);
  EXPECT_NE(stamp.find("# jobs: 3"), std::string::npos) << stamp;
  experiments::set_default_jobs(0);
}

}  // namespace
}  // namespace paradyn::bench
