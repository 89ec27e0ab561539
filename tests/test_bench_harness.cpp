// The experiment benches' shared flag parser (bench/harness.hpp): every
// malformed command line is a usage error, never a silent default or a
// wrapped value.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "harness.hpp"

namespace cg::bench {
namespace {

/// A bench registering one flag of every kind, as the mains do.
struct Cli {
  Cli() : b("bench_test") {
    b.flags.add("--messages", messages, 1);
    b.flags.add("--max-peers", max_peers, 1);
    b.flags.add("--threads", threads, "0,1,2,4");
    b.flags.add_switch("--only-wave", only_wave);
    b.json_flag();
    b.trace_flag();
    b.obs_flags();
  }

  bool parse(std::vector<const char*> args) {
    args.insert(args.begin(), "bench_test");
    return b.flags.parse(static_cast<int>(args.size()), args.data());
  }

  Bench b;
  int messages = 200;
  std::size_t max_peers = 4096;
  std::vector<unsigned> threads = {0, 1, 2, 4};
  bool only_wave = false;
};

TEST(BenchHarness, NoArgumentsKeepsDefaults) {
  Cli c;
  ASSERT_TRUE(c.parse({}));
  EXPECT_EQ(c.messages, 200);
  EXPECT_EQ(c.max_peers, 4096u);
  EXPECT_EQ(c.threads, (std::vector<unsigned>{0, 1, 2, 4}));
  EXPECT_FALSE(c.only_wave);
  EXPECT_TRUE(c.b.json_path.empty());
  EXPECT_FALSE(c.b.tracing());
  EXPECT_EQ(c.b.obs_port, -1);
  EXPECT_EQ(c.b.obs_linger, 0.0);
}

TEST(BenchHarness, ParsesEveryKind) {
  Cli c;
  ASSERT_TRUE(c.parse({"--messages", "40", "--max-peers", "256"}));
  ASSERT_TRUE(c.parse({"--threads", "0,2,8", "--only-wave"}));
  ASSERT_TRUE(c.parse({"--json", "out.json", "--trace", "t.jsonl"}));
  ASSERT_TRUE(c.parse({"--obs-port", "9464", "--obs-linger", "2.5"}));
  EXPECT_EQ(c.messages, 40);
  EXPECT_EQ(c.max_peers, 256u);
  EXPECT_EQ(c.threads, (std::vector<unsigned>{0, 2, 8}));
  EXPECT_TRUE(c.only_wave);
  EXPECT_EQ(c.b.json_path, "out.json");
  EXPECT_EQ(c.b.trace_path, "t.jsonl");
  EXPECT_EQ(c.b.obs_port, 9464);
  EXPECT_EQ(c.b.obs_linger, 2.5);
}

TEST(BenchHarness, UnknownFlagIsAnError) {
  Cli c;
  EXPECT_FALSE(c.parse({"--help"}));
  EXPECT_NE(c.b.flags.error().find("--help"), std::string::npos);
  EXPECT_FALSE(c.parse({"stray"}));
}

TEST(BenchHarness, MissingValueIsAnError) {
  Cli c;
  EXPECT_FALSE(c.parse({"--json"}));
  EXPECT_NE(c.b.flags.error().find("needs a value"), std::string::npos);
  EXPECT_FALSE(c.parse({"--messages", "40", "--max-peers"}));
}

TEST(BenchHarness, NonNumericValuesAreErrors) {
  for (const char* bad : {"abc", "", "12x", "1.5", " 7", "+3"}) {
    Cli c;
    EXPECT_FALSE(c.parse({"--messages", bad})) << bad;
    EXPECT_EQ(c.messages, 200) << bad;
  }
  Cli c;
  EXPECT_FALSE(c.parse({"--obs-linger", "soon"}));
  EXPECT_FALSE(c.parse({"--obs-linger", "inf"}));
}

TEST(BenchHarness, OutOfRangeValuesAreErrors) {
  Cli c;
  EXPECT_FALSE(c.parse({"--messages", "0"}));
  EXPECT_FALSE(c.parse({"--messages", "99999999999"}));
  EXPECT_FALSE(c.parse({"--max-peers", "0"}));
  EXPECT_FALSE(c.parse({"--obs-port", "-2"}));
  EXPECT_EQ(c.messages, 200);
  EXPECT_EQ(c.max_peers, 4096u);
  EXPECT_EQ(c.b.obs_port, -1);
}

// Values a C conversion would silently accept must be usage errors:
// atoi("abc") is 0 (an ephemeral port), 70000 cast to uint16_t is port
// 4464, and -1 read as a size is SIZE_MAX (the whole 10^6-peer sweep).
TEST(BenchHarness, SilentlyConvertibleValuesAreErrors) {
  Cli c;
  EXPECT_FALSE(c.parse({"--obs-port", "abc"}));
  EXPECT_FALSE(c.parse({"--obs-port", "70000"}));
  EXPECT_FALSE(c.parse({"--max-peers", "-1"}));
  EXPECT_EQ(c.b.obs_port, -1);
  EXPECT_EQ(c.max_peers, 4096u);
}

TEST(BenchHarness, CommaLists) {
  Cli c;
  ASSERT_TRUE(c.parse({"--threads", "3"}));
  EXPECT_EQ(c.threads, (std::vector<unsigned>{3}));
  for (const char* bad : {"", ",", "1,", ",1", "1,,2", "1,-2", "1,x"}) {
    Cli d;
    EXPECT_FALSE(d.parse({"--threads", bad})) << bad;
    EXPECT_EQ(d.threads, (std::vector<unsigned>{0, 1, 2, 4})) << bad;
  }
}

TEST(BenchHarness, UsageListsEveryFlagInOrder) {
  Cli c;
  const std::string expected =
      "usage: bench_test [--messages N] [--max-peers N] [--threads 0,1,2,4] "
      "[--only-wave] [--json PATH] [--trace PATH] [--obs-port PORT] "
      "[--obs-linger SECONDS]";
  EXPECT_EQ(c.b.flags.usage(), expected);
}

TEST(BenchHarness, JsonIsValidatedBeforeWriting) {
  Cli c;
  EXPECT_TRUE(c.b.write_json("{not json"));  // no --json: nothing to do
  const std::string path = ::testing::TempDir() + "bench_harness_test.json";
  ASSERT_TRUE(c.parse({"--json", path.c_str()}));
  EXPECT_FALSE(c.b.write_json("{not json"));
  EXPECT_TRUE(c.b.write_json("{\"bench\":\"test\"}"));
}

TEST(BenchHarness, WaveSweepAnchorsOnSerialRowAndCatchesDivergence) {
  std::vector<WaveRow> rows;
  auto steady = [](unsigned t) {
    WaveRow r;
    r.seconds = 1.0 / (t + 1);
    r.checksum = 42.0;
    return r;
  };
  ASSERT_TRUE(wave_sweep("bench_test", {2, 4}, "items/s", 10.0, steady, rows));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].threads, 0u);
  EXPECT_EQ(rows[2].threads, 4u);
  EXPECT_DOUBLE_EQ(rows[2].speedup, 5.0);
  EXPECT_DOUBLE_EQ(rows[2].throughput, 50.0);

  std::vector<WaveRow> bad;
  auto diverging = [](unsigned t) {
    WaveRow r;
    r.seconds = 1.0;
    r.checksum = t < 2 ? 1.0 : 2.0;
    return r;
  };
  const std::vector<unsigned> all = {0, 1, 2, 4};
  EXPECT_FALSE(wave_sweep("bench_test", all, "items/s", 1.0, diverging, bad));
  EXPECT_EQ(bad.size(), 3u);  // stops at the first divergent row
}

}  // namespace
}  // namespace cg::bench
