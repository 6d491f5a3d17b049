#include "exp/flow.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/file_io.h"
#include "exp/thread_pool.h"
#include "gen/circuit_gen.h"
#include "scan/testset_io.h"

namespace tdc::exp {

std::string cache_dir() {
  if (const char* env = std::getenv("TDC_CACHE_DIR"); env != nullptr && *env != '\0') {
    return env;
  }
  return "tdc_cache";
}

namespace {

std::string cache_path(const gen::CircuitProfile& profile) {
  return cache_dir() + "/" + profile.name + ".tests";
}

std::string coverage_path(const gen::CircuitProfile& profile) {
  return cache_dir() + "/" + profile.name + ".coverage";
}

}  // namespace

PreparedCircuit prepare(const gen::CircuitProfile& profile) {
  PreparedCircuit out;
  out.profile = profile;

  const std::string tests_file = cache_path(profile);
  if (std::filesystem::exists(tests_file)) {
    out.tests = scan::read_tests_file(tests_file);
    if (std::ifstream cov(coverage_path(profile)); cov) cov >> out.fault_coverage;
    return out;
  }

  const netlist::Netlist nl = gen::build_circuit(profile);
  atpg::AtpgOptions options;
  options.compaction_window = profile.compaction_window;
  const atpg::AtpgResult result = atpg::generate_tests(nl, options);
  out.tests = result.tests.vertically_filled(profile.fill_fraction,
                                             profile.generator.seed ^ 0xF11Du);
  out.fault_coverage = result.stats.fault_coverage();

  // Both files are written whole (core::write_whole). The tests file is
  // what readers test for, so it lands last: once it exists, its coverage
  // side-file is already complete.
  std::filesystem::create_directories(cache_dir());
  std::ostringstream cov;
  cov << out.fault_coverage << "\n";
  core::write_whole(coverage_path(profile), cov.str()).ok_or_throw();
  scan::write_tests_file(tests_file, out.tests);
  return out;
}

PreparedCircuit prepare(const std::string& circuit) {
  return prepare(gen::find_profile(circuit));
}

unsigned sweep_jobs(int& argc, char** argv) {
  long jobs = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--jobs" || arg == "-j") {
      if (i + 1 < argc) jobs = std::strtol(argv[++i], nullptr, 10);
    } else if (arg.starts_with("--jobs=")) {
      jobs = std::strtol(argv[i] + 7, nullptr, 10);
    } else if (arg.starts_with("-j") && arg.size() > 2) {
      jobs = std::strtol(argv[i] + 2, nullptr, 10);
    } else {
      argv[out++] = argv[i];  // keep: not a jobs argument
    }
  }
  argc = out;
  return jobs > 0 ? static_cast<unsigned>(jobs) : ThreadPool::default_jobs();
}

std::vector<PreparedCircuit> prepare_all(
    const std::vector<gen::CircuitProfile>& profiles, unsigned jobs) {
  ThreadPool pool(jobs);
  return parallel_map(pool, profiles, [](const gen::CircuitProfile& p) {
    return prepare(p);
  });
}

lzw::LzwConfig paper_lzw_config(const gen::CircuitProfile& profile) {
  return lzw::LzwConfig{.dict_size = profile.dict_size, .char_bits = 7,
                        .entry_bits = 63};
}

codec::Lz77Config paper_lz77_config() {
  return codec::Lz77Config{.window_bits = 9, .length_bits = 5};
}

codec::RleConfig paper_rle_config() {
  return codec::RleConfig{codec::RunCode::Golomb, 16};
}

std::vector<std::unique_ptr<codec::Codec>> paper_codec_registry(
    const gen::CircuitProfile& profile) {
  std::vector<std::unique_ptr<codec::Codec>> registry;
  registry.push_back(codec::make_lzw_codec(paper_lzw_config(profile)));
  registry.push_back(codec::make_lz77_codec(paper_lz77_config()));
  registry.push_back(codec::make_alternating_rle_codec(paper_rle_config()));
  return registry;
}

std::vector<std::unique_ptr<codec::Codec>> upgraded_codec_registry(
    const gen::CircuitProfile& profile, std::uint32_t pattern_width) {
  std::vector<std::unique_ptr<codec::Codec>> registry;
  registry.push_back(codec::make_lzw_codec(paper_lzw_config(profile)));
  registry.push_back(codec::make_lz77_codec(codec::Lz77Config{}, "LZ77 (unbounded)"));
  registry.push_back(codec::make_best_rle_codec());
  registry.push_back(codec::make_huffman_codec(codec::HuffmanConfig{8, 32}));
  if (pattern_width > 0) {
    registry.push_back(codec::make_lfsr_reseed_codec(pattern_width));
  }
  return registry;
}

}  // namespace tdc::exp
