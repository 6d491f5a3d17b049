#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/flow.h"
#include "exp/table.h"
#include "scan/testset_io.h"

namespace tdc {
namespace {

using bits::TritVector;

// ---------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns) {
  exp::Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator present, rows newline-terminated.
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableTest, ShortRowsPadded) {
  exp::Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(FormatTest, PctAndNum) {
  EXPECT_EQ(exp::pct(12.345), "12.35%");
  EXPECT_EQ(exp::pct(12.345, 1), "12.3%");
  EXPECT_EQ(exp::pct(-3.0, 0), "-3%");
  EXPECT_EQ(exp::num(1234567), "1234567");
}

// ---------------------------------------------------------------- TestSet IO

scan::TestSet sample_set() {
  scan::TestSet ts;
  ts.circuit = "sample";
  ts.width = 6;
  ts.cubes.push_back(TritVector::from_string("01XX10"));
  ts.cubes.push_back(TritVector::from_string("XXXXXX"));
  ts.cubes.push_back(TritVector::from_string("110011"));
  return ts;
}

TEST(TestSetIoTest, RoundTripThroughText) {
  const auto ts = sample_set();
  std::stringstream ss;
  scan::write_tests(ss, ts);
  const auto back = scan::read_tests(ss);
  EXPECT_EQ(back.circuit, "sample");
  EXPECT_EQ(back.width, 6u);
  ASSERT_EQ(back.cubes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(back.cubes[i], ts.cubes[i]);
}

TEST(TestSetIoTest, RejectsWidthMismatch) {
  std::stringstream ss("circuit c\nwidth 4\npatterns 1\n01X\n");
  EXPECT_THROW(scan::read_tests(ss), std::runtime_error);
}

TEST(TestSetIoTest, RejectsCountMismatch) {
  std::stringstream ss("circuit c\nwidth 3\npatterns 2\n01X\n");
  EXPECT_THROW(scan::read_tests(ss), std::runtime_error);
}

TEST(TestSetIoTest, FileRoundTrip) {
  const auto ts = sample_set();
  const std::string path =
      (std::filesystem::temp_directory_path() / "tdc_testset_io.tests").string();
  scan::write_tests_file(path, ts);
  const auto back = scan::read_tests_file(path);
  EXPECT_EQ(back.cubes, ts.cubes);
  std::filesystem::remove(path);
  EXPECT_THROW(scan::read_tests_file(path), std::runtime_error);
}

// ---------------------------------------------------------------- vertical fill

TEST(VerticalFillTest, ZeroFractionIsIdentity) {
  const auto ts = sample_set();
  const auto f = ts.vertically_filled(0.0, 1);
  EXPECT_EQ(f.cubes, ts.cubes);
}

TEST(VerticalFillTest, FullFractionCopiesFromPreviousPattern) {
  scan::TestSet ts;
  ts.circuit = "v";
  ts.width = 4;
  ts.cubes.push_back(TritVector::from_string("1010"));
  ts.cubes.push_back(TritVector::from_string("XXXX"));
  ts.cubes.push_back(TritVector::from_string("X1XX"));
  const auto f = ts.vertically_filled(1.0, 7);
  EXPECT_EQ(f.cubes[1].to_string(), "1010");  // copied row 0
  EXPECT_EQ(f.cubes[2].to_string(), "1110");  // care bit kept, rest copied
}

TEST(VerticalFillTest, FirstPatternXBecomesZero) {
  scan::TestSet ts;
  ts.circuit = "v";
  ts.width = 3;
  ts.cubes.push_back(TritVector::from_string("X1X"));
  const auto f = ts.vertically_filled(1.0, 7);
  EXPECT_EQ(f.cubes[0].to_string(), "010");
}

TEST(VerticalFillTest, PreservesCareBitsAndLowersDensity) {
  scan::TestSet ts;
  ts.circuit = "v";
  ts.width = 64;
  bits::Rng rng(3);
  for (int p = 0; p < 20; ++p) {
    TritVector v(64);
    for (int i = 0; i < 64; ++i) {
      if (rng.chance(0.2)) v.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
    ts.cubes.push_back(v);
  }
  const auto f = ts.vertically_filled(0.5, 11);
  EXPECT_LT(f.x_density(), ts.x_density());
  for (std::size_t p = 0; p < ts.cubes.size(); ++p) {
    EXPECT_TRUE(ts.cubes[p].covered_by(f.cubes[p].filled(bits::Trit::Zero)) ||
                ts.cubes[p].compatible_with(f.cubes[p]));
  }
}

TEST(VerticalFillTest, DeterministicInSeed) {
  const auto ts = sample_set();
  EXPECT_EQ(ts.vertically_filled(0.5, 9).cubes, ts.vertically_filled(0.5, 9).cubes);
}

// ---------------------------------------------------------------- flow cache

TEST(FlowTest, CacheDirHonorsEnvironment) {
  ::setenv("TDC_CACHE_DIR", "/tmp/tdc_flow_test_cache", 1);
  EXPECT_EQ(exp::cache_dir(), "/tmp/tdc_flow_test_cache");
  ::unsetenv("TDC_CACHE_DIR");
  EXPECT_EQ(exp::cache_dir(), "tdc_cache");
}

/// A cache directory of this test process's own: ctest runs every case as
/// its own process, in parallel under -j.
std::string private_cache_dir(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "_" + std::to_string(::getpid())))
      .string();
}

TEST(FlowTest, PrepareCachesAndReloads) {
  const std::string dir = private_cache_dir("tdc_flow_prepare");
  std::filesystem::remove_all(dir);
  ::setenv("TDC_CACHE_DIR", dir.c_str(), 1);

  const auto& profile = gen::find_profile("itc_b09f");
  const auto first = exp::prepare(profile);
  EXPECT_GT(first.tests.pattern_count(), 0u);
  EXPECT_GT(first.fault_coverage, 50.0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/itc_b09f.tests"));

  const auto second = exp::prepare("itc_b09f");
  EXPECT_EQ(second.tests.cubes, first.tests.cubes);
  // The coverage side-file stores limited precision.
  EXPECT_NEAR(second.fault_coverage, first.fault_coverage, 1e-3);

  ::unsetenv("TDC_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

/// Concurrent fills of one cache entry: every writer renames a complete
/// file into place, so each thread — whether it ran ATPG or read another
/// thread's result — gets the same cubes, and no temp file survives.
TEST(FlowTest, ConcurrentPreparesAgreeAndLeaveNoTempFiles) {
  const std::string dir = private_cache_dir("tdc_flow_concurrent");
  std::filesystem::remove_all(dir);
  ::setenv("TDC_CACHE_DIR", dir.c_str(), 1);

  constexpr int kThreads = 4;
  std::vector<scan::TestSet> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] { results[t] = exp::prepare("itc_b09f").tests; });
  }
  for (auto& th : threads) th.join();

  ASSERT_GT(results[0].pattern_count(), 0u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t].cubes, results[0].cubes);
  EXPECT_EQ(exp::prepare("itc_b09f").tests.cubes, results[0].cubes);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"itc_b09f.coverage", "itc_b09f.tests"}));

  ::unsetenv("TDC_CACHE_DIR");
  std::filesystem::remove_all(dir);
}

TEST(FlowTest, PaperConfigUsesProfileDictSize) {
  const auto& profile = gen::find_profile("s13207f");
  const auto config = exp::paper_lzw_config(profile);
  EXPECT_EQ(config.dict_size, profile.dict_size);
  EXPECT_EQ(config.char_bits, 7u);
  EXPECT_EQ(config.entry_bits, 63u);
}

}  // namespace
}  // namespace tdc
