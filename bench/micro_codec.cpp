// Google-benchmark micro suite: raw throughput of the codec and simulator
// building blocks. These are engineering (not paper-reproduction) numbers;
// the table*_ binaries reproduce the paper's results.
//
// After the registered benchmarks run, a dedicated harness times
// lzw::Encoder against the reference encoder of the test tree
// (tests/support/lzw_oracle: per-character word()/care_word() re-slice,
// child-list scan through one tie-break switch, per-bit emission) for every
// tie-break on two corpora that freeze the dictionary (35 % and 90 % X),
// checks that both produce the same codes, prints chars/sec and the
// speedup, and writes them to BENCH_micro_codec.json (override the path
// with $TDC_BENCH_JSON). The speedup is a ratio of two runs in one process
// on one host, so it can be compared across hosts; absolute chars/sec are
// informational.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "bits/rng.h"
#include "bits/simd.h"
#include "bits/tritvector.h"
#include "codec/huffman.h"
#include "codec/lfsr_reseed.h"
#include "codec/lz77.h"
#include "codec/rle.h"
#include "fault/fsim.h"
#include "gen/circuit_gen.h"
#include "hw/decompressor.h"
#include "hw/decompressor_rtl.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"
#include "sim/logicsim.h"
#include "support/lzw_oracle.h"

namespace {

using namespace tdc;

bits::TritVector random_cube(std::size_t n, double x_density, std::uint64_t seed) {
  bits::Rng rng(seed);
  bits::TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x_density)) {
      v.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
  }
  return v;
}

const lzw::LzwConfig kConfig{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};

void BM_LzwEncodeDynamic(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  const lzw::Encoder enc(kConfig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_LzwEncodeDynamic)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void BM_LzwEncodeOracle(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lzw::oracle::encode(kConfig, lzw::Tiebreak::First, input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_LzwEncodeOracle)->Arg(1 << 15);

void BM_LzwEncodeZeroFill(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  const lzw::Encoder enc(kConfig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(input, lzw::XAssignMode::ZeroFill));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_LzwEncodeZeroFill)->Arg(1 << 15);

void BM_LzwDecode(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  const auto encoded = lzw::Encoder(kConfig).encode(input);
  const lzw::Decoder dec(kConfig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decode(encoded.codes, encoded.original_bits));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_LzwDecode)->Arg(1 << 15);

void BM_Lz77Encode(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::lz77_encode(input));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_Lz77Encode)->Arg(1 << 12)->Arg(1 << 15);

void BM_AltRleEncode(benchmark::State& state) {
  const auto input = random_cube(static_cast<std::size_t>(state.range(0)), 0.9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::alternating_rle_encode(input, codec::RleConfig{codec::RunCode::Golomb, 16}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_AltRleEncode)->Arg(1 << 15);

void BM_HuffmanEncode(benchmark::State& state) {
  const auto input = random_cube(1 << 15, 0.9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::huffman_encode(input, codec::HuffmanConfig{8, 16}));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 15) / 8);
}
BENCHMARK(BM_HuffmanEncode);

void BM_LfsrReseedEncode(benchmark::State& state) {
  bits::Rng rng(3);
  std::vector<bits::TritVector> cubes;
  for (int p = 0; p < 64; ++p) {
    bits::TritVector v(256);
    for (int k = 0; k < 24; ++k) {
      v.set(rng.below(256), rng.bit() ? bits::Trit::One : bits::Trit::Zero);
    }
    cubes.push_back(std::move(v));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::lfsr_reseed_encode(cubes));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LfsrReseedEncode);

void BM_TdiffGolombEncode(benchmark::State& state) {
  const auto input = random_cube(1 << 15, 0.9, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::golomb_tdiff_encode(input, 128, codec::RleConfig{codec::RunCode::Golomb, 16}));
  }
  state.SetBytesProcessed(state.iterations() * (1 << 15) / 8);
}
BENCHMARK(BM_TdiffGolombEncode);

void BM_RtlDecompressorCycleSim(benchmark::State& state) {
  const auto input = random_cube(1 << 12, 0.9, 1);
  const auto encoded = lzw::Encoder(kConfig).encode(input);
  const hw::DecompressorRtl model(hw::HwConfig{.lzw = kConfig, .clock_ratio = 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.run(encoded));
  }
}
BENCHMARK(BM_RtlDecompressorCycleSim);

void BM_HwDecompressorModel(benchmark::State& state) {
  const auto input = random_cube(1 << 15, 0.9, 1);
  const auto encoded = lzw::Encoder(kConfig).encode(input);
  const hw::DecompressorModel model(hw::HwConfig{.lzw = kConfig, .clock_ratio = 10});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.run(encoded));
  }
}
BENCHMARK(BM_HwDecompressorModel);

void BM_LogicSim64(benchmark::State& state) {
  gen::GeneratorConfig cfg;
  cfg.pis = 32;
  cfg.pos = 16;
  cfg.ffs = 128;
  cfg.gates = static_cast<std::uint32_t>(state.range(0));
  cfg.seed = 3;
  const netlist::Netlist nl = gen::generate_circuit(cfg);
  sim::Sim64 sim(nl);
  bits::Rng rng(1);
  for (const auto g : nl.inputs()) sim.set(g, rng.next_u64());
  for (const auto g : nl.dffs()) sim.set(g, rng.next_u64());
  for (auto _ : state) {
    sim.run();
    benchmark::DoNotOptimize(sim.get(nl.outputs().front()));
  }
  // 64 patterns per run().
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LogicSim64)->Arg(2000)->Arg(8000);

void BM_FaultSimBatch(benchmark::State& state) {
  gen::GeneratorConfig cfg;
  cfg.pis = 32;
  cfg.pos = 16;
  cfg.ffs = 64;
  cfg.gates = 1000;
  cfg.seed = 4;
  const netlist::Netlist nl = gen::generate_circuit(cfg);
  sim::Sim64 sim(nl);
  bits::Rng rng(1);
  for (const auto g : nl.inputs()) sim.set(g, rng.next_u64());
  for (const auto g : nl.dffs()) sim.set(g, rng.next_u64());
  sim.run();
  const auto faults = fault::collapsed_fault_list(nl);
  fault::FaultSimulator fsim(nl);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (const auto& f : faults) acc ^= fsim.detect_mask(sim, f);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * faults.size());
}
BENCHMARK(BM_FaultSimBatch);

void BM_TritVectorCareCount(benchmark::State& state) {
  const auto v = random_cube(1 << 18, 0.7, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.care_count());
  }
}
BENCHMARK(BM_TritVectorCareCount);

// ------------------------------------------------- encoder-vs-oracle harness

/// Encode chars/sec of the oracle and of the encoder on one corpus. The two
/// are timed in alternating rounds of at least `kMinSeconds` of process CPU
/// time each, and each keeps its best round: a host that slows down for a
/// while slows both sides of the ratio, and CPU time leaves out the time
/// the process was not running.
template <class Oracle, class Encode>
std::pair<double, double> chars_per_sec(double chars, Oracle&& oracle,
                                        Encode&& encode) {
  constexpr double kMinSeconds = 0.1;
  constexpr int kRounds = 5;
  const auto rate = [&](auto&& encode_once) {
    std::uint64_t iters = 0;
    const std::clock_t start = std::clock();
    double elapsed = 0.0;
    do {
      benchmark::DoNotOptimize(encode_once());
      ++iters;
      elapsed = static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
    } while (elapsed < kMinSeconds);
    return chars * static_cast<double>(iters) / elapsed;
  };
  double best_oracle = 0.0;
  double best_encoder = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    best_oracle = std::max(best_oracle, rate(oracle));
    best_encoder = std::max(best_encoder, rate(encode));
  }
  return {best_oracle, best_encoder};
}

struct Corpus {
  const char* name;
  double x_density;
};

struct NamedTiebreak {
  const char* name;
  lzw::Tiebreak tiebreak;
};

/// Times lzw::Encoder and the oracle per (corpus, tie-break), prints the
/// comparison, writes the JSON file. Returns 0 on success, 1 when the two
/// encoders disagree or the file cannot be written.
int run_oracle_comparison() {
  // 2^19 trits fill the 1024-code dictionary at both densities, so most
  // characters are matched against a frozen dictionary, as on the suite.
  // $TDC_BENCH_BITS shrinks the corpus for smoke profiles; the JSON says
  // whether the dictionary still froze.
  std::size_t bits = std::size_t{1} << 19;
  if (const char* env = std::getenv("TDC_BENCH_BITS");
      env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) bits = static_cast<std::size_t>(v);
  }
  const Corpus corpora[] = {{"x0.35", 0.35}, {"x0.9", 0.9}};
  const NamedTiebreak tiebreaks[] = {{"First", lzw::Tiebreak::First},
                                     {"LowestChar", lzw::Tiebreak::LowestChar},
                                     {"MostRecent", lzw::Tiebreak::MostRecent},
                                     {"MostChildren", lzw::Tiebreak::MostChildren},
                                     {"Lookahead", lzw::Tiebreak::Lookahead}};

  std::string json = "{\n  \"bench\": \"micro_codec\",\n  \"host\": {\"cpus\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"simd_kernel\": \"" + bits::simd::active_kernel() +
                     "\"},\n  \"config\": {\"dict_size\": " +
                     std::to_string(kConfig.dict_size) +
                     ", \"char_bits\": " + std::to_string(kConfig.char_bits) +
                     ", \"entry_bits\": " + std::to_string(kConfig.entry_bits) +
                     ", \"input_bits\": " + std::to_string(bits) +
                     "},\n  \"comparisons\": [\n";
  std::printf("\nEncoder vs oracle (chars per CPU second, best of 5), %zu trits:\n",
              bits);
  std::printf("%-6s %-13s %6s %14s %14s %8s\n", "corpus", "tiebreak", "frozen",
              "oracle", "encoder", "speedup");
  bool first = true;
  int status = 0;
  for (const Corpus& c : corpora) {
    const auto input = random_cube(bits, c.x_density, 7);
    const double chars = static_cast<double>(
        (input.size() + kConfig.char_bits - 1) / kConfig.char_bits);
    for (const NamedTiebreak& t : tiebreaks) {
      const lzw::Encoder enc(kConfig, t.tiebreak);
      const lzw::EncodeResult got = enc.encode(input);
      if (got.codes != lzw::oracle::encode(kConfig, t.tiebreak, input).codes) {
        std::fprintf(stderr, "micro_codec: encoder and oracle disagree on %s %s\n",
                     c.name, t.name);
        status = 1;
      }
      const bool frozen = got.telemetry.dict_full_events > 0;
      const auto [oracle, encoder] = chars_per_sec(
          chars, [&] { return lzw::oracle::encode(kConfig, t.tiebreak, input); },
          [&] { return enc.encode(input); });
      const double speedup = oracle > 0 ? encoder / oracle : 0.0;
      std::printf("%-6s %-13s %6s %14.0f %14.0f %7.2fx\n", c.name, t.name,
                  frozen ? "yes" : "no", oracle, encoder, speedup);
      char entry[384];
      std::snprintf(entry, sizeof entry,
                    "%s    {\"corpus\": \"%s\", \"x_density\": %.2f, "
                    "\"tiebreak\": \"%s\", \"dict_frozen\": %s, "
                    "\"oracle_chars_per_sec\": %.0f, "
                    "\"encoder_chars_per_sec\": %.0f, \"speedup\": %.3f}",
                    first ? "" : ",\n", c.name, c.x_density, t.name,
                    frozen ? "true" : "false", oracle, encoder, speedup);
      json += entry;
      first = false;
    }
  }
  json += "\n  ]\n}\n";

  const char* path = std::getenv("TDC_BENCH_JSON");
  const std::string out_path =
      path != nullptr && *path != '\0' ? path : "BENCH_micro_codec.json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "micro_codec: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_oracle_comparison();
}
