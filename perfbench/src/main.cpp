// tdcbench — the repository's end-to-end benchmark.
//
//   tdcbench --workload <suite_closed|mixed_open|decode_closed|batch_suite>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>] [--source <id>]
//
// Untraced (--trace 0): set-up (timed kSetupReps times), one timed run of
// the workload with every response checked, end-to-end metrics. The gated
// timings are CPU time, which leaves out what the hypervisor steals,
// rescaled to a reference core speed by a probe loop timed beside them; the
// wall-clock latencies and throughput are printed too. Traced
// (--trace 1): the same run, then the per-layer passes of layers.cpp and a
// Chrome-trace span file. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 only when
// every output was correct.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "exp/flow.h"
#include "gen/suite.h"
#include "harness.h"
#include "obs/json.h"

namespace {

using namespace tdcbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics (BENCHMARK.json "end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"mbit_per_ref_cpu_s", "Mbit/ref-cpu-s"}, {"ratio_pct", "%"},
    {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

/// The per-layer metrics of the traced run (BENCHMARK.json "per_layer").
constexpr MetricDef kPerLayer[] = {
    {"service.client_send_us", "us"}, {"service.client_wait_us", "us"},
    {"service.client_recv_us", "us"}, {"service.transport_us", "us"},
    {"service.frame_encode_us", "us"}, {"service.frame_read_us", "us"},
    {"dispatch.compress_us", "us"}, {"dispatch.decompress_us", "us"},
    {"dispatch.verify_us", "us"}, {"dispatch.unaccounted_us", "us"},
    {"engine.load_us", "us"}, {"engine.encode_us", "us"},
    {"engine.container_us", "us"}, {"engine.verify_us", "us"},
    {"engine.busy_rejects", "count"}, {"engine.in_flight_peak", "count"},
    {"engine.worker_idle_us", "us"}, {"engine.batch_queue_blocked_us", "us"},
    {"engine.batch_notifies", "count"},
    {"scan.read_tests_us", "us"}, {"scan.parse_mbit_s", "Mbit/s"},
    {"scan.serialize_us", "us"}, {"scan.write_tests_us", "us"},
    {"lzw.encode_us", "us"}, {"lzw.encode_mbit_s", "Mbit/s"},
    {"lzw.probe_fast_ratio", "ratio"}, {"lzw.dict_full_events", "count"},
    {"lzw.container_write_us", "us"}, {"lzw.container_read_us", "us"},
    {"codec.select_us", "us"}, {"codec.decode_image_us", "us"},
    {"codec.decode_mbit_s", "Mbit/s"},
    {"bits.covered_by_us", "us"},
    {"obs.stats_us", "us"},
    {"exp.prepare_warm_s", "s"},
    {"loadgen.late_p99_ms", "ms"}, {"loadgen.backlog_end", "count"},
    {"trace.overhead_us", "us"}, {"trace.compress_unaccounted_us", "us"},
    {"trace.decompress_unaccounted_us", "us"},
};

/// Requests hashed per sequence for the printed plan identity.
constexpr std::uint64_t kPlanHashRequests = 4096;

struct Args {
  Workload workload = Workload::SuiteClosed;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/out";
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tdcbench: %s\nusage: tdcbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--source <id>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(value, a.workload)) usage(("unknown workload " + value).c_str());
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--source") {
      a.source = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

/// The op whose wall-clock latency the run log reports.
const char* primary_op(Workload w) {
  switch (w) {
    case Workload::DecodeClosed: return "decompress";
    case Workload::BatchSuite: return "batch";
    default: return "compress";
  }
}

/// Tail percentile of the wall-clock latency: p99 where a run holds
/// thousands of requests, p75 for batch passes (about a hundred per run).
double wall_tail(Workload w) { return w == Workload::BatchSuite ? 0.75 : 0.99; }

std::string pct_label(double q) {
  char label[16];
  std::snprintf(label, sizeof label, "p%d", static_cast<int>(q * 100.0 + 0.5));
  return label;
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const MetricDef* defs, std::size_t count) {
  std::string json = "{";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end()) throw std::runtime_error(std::string("metric not measured: ") + defs[i].name);
    json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name + "\": {\"value\": " +
            num(it->second) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return json + "}";
}

int run(const Args& args) {
  namespace fs = std::filesystem;
  fs::create_directories(args.out);
  const std::string tag = std::string(workload_name(args.workload)) + "-seed" +
                          std::to_string(args.seed) + (args.trace ? "-trace" : "");
  // Relative to the working directory, so it fits sockaddr_un anywhere.
  const std::string socket_path = args.out + "/tdcbench-" + std::to_string(::getpid()) + ".sock";
  const std::string work_dir = args.out + "/work-" + std::to_string(::getpid());
  std::printf("tdcbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(args.workload), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const std::string host = host_json(args.source);
  std::printf("host %s\n", host.c_str());

  // Cold ATPG fill (first invocation in a checkout only), then the gate's
  // expected outputs. Neither is part of the timed set-up.
  tdc::exp::prepare_all(tdc::gen::table3_suite(), kWorkers);
  std::vector<Profile> profiles;
  load_profiles(profiles);
  const World world = make_world(args.workload, std::move(profiles));
  const Plan plan(world, args.seed);
  const std::string sequence_hash = hex64(plan.sequence_hash(kPlanHashRequests));
  const std::string containers_hash = hex64(world.containers_hash());
  std::printf("plan sequence_hash=%s containers_hash=%s keys=%zu ratio_pct=%.17g\n",
              sequence_hash.c_str(), containers_hash.c_str(), world.keys.size(),
              world.ratio_pct());
  std::fflush(stdout);

  const double speed_before_ms = host_speed_ms();
  // Each set-up's CPU time is rescaled to the reference speed by probes
  // on the same thread just before and after it.
  std::vector<double> setup_s, setup_cpu_s, setup_ref_s, prepare_s;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    env.reset();
    SetupTimes t;
    const double probe_before_ms = probe_cpu_ms();
    env = setup(world, socket_path, work_dir, t);
    const double probe_ms = (probe_before_ms + probe_cpu_ms()) / 2;
    setup_s.push_back(t.total_s);
    setup_cpu_s.push_back(t.cpu_s);
    setup_ref_s.push_back(t.cpu_s * kProbeNominalMs / probe_ms);
    prepare_s.push_back(t.prepare_s);
  }

  // Warm-up: its responses are checked and counted like the timed run's.
  const RunResult warm = run_workload(world, plan, *env, kWarmupSeconds);
  reset_peak_rss();
  const CpuTicks ticks_before = cpu_ticks();
  const RunResult r = run_workload(world, plan, *env, args.seconds);
  const double host_steal_pct = steal_pct(ticks_before, cpu_ticks());
  const double speed_after_ms = host_speed_ms();
  const double rss_mb = peak_rss_mb();

  std::map<std::string, std::vector<double>> latency_ms;  // per op name
  double trits = 0;
  for (const Sample& s : r.samples) {
    latency_ms[s.op].push_back(s.ms);
    trits += s.trits;
  }
  std::map<std::string, double> e2e;
  const std::vector<double>& primary = latency_ms[primary_op(args.workload)];
  const double tail_q = wall_tail(args.workload);
  const SliceMedians slices = slice_medians(r, primary_op(args.workload), tail_q);
  e2e["mbit_per_ref_cpu_s"] = slices.mbit_per_ref_cpu_s;
  e2e["ratio_pct"] = world.ratio_pct(r.key_done);
  e2e["peak_rss_mb"] = rss_mb;
  e2e["setup_s"] = median(setup_ref_s);

  // Every op's latency under its own name (compress_p50_ms, verify_p50_ms, ...).
  for (const auto& [op, v] : latency_ms) {
    const double q = tail_quantile(v.size());
    std::printf("%s_p50_ms %.4f ms (n=%zu)\n", op.c_str(), median(v), v.size());
    if (op == "stats") std::printf("stats_p90_ms %.4f ms (n=%zu)\n", quantile(v, 0.9), v.size());
    if (q > 0.5) {
      std::printf("%s_%s_ms %.4f ms (n=%zu)\n", op.c_str(), pct_label(q).c_str(),
                  quantile(v, q), v.size());
    }
  }
  std::vector<double> probe_ms;
  for (const ProbeSample& p : r.probes) probe_ms.push_back(p.ms);
  std::printf("mbit_per_ref_cpu_s %.4f Mbit/ref-cpu-s (median of %zu %s; CPU time "
              "rescaled by %zu probes, median %.4f ms against %.1f ms nominal)\n",
              e2e["mbit_per_ref_cpu_s"], slices.cpu_slices,
              args.workload == Workload::BatchSuite ? "passes" : "slices", probe_ms.size(),
              median(probe_ms), kProbeNominalMs);
  std::printf("mbit_per_cpu_s %.4f Mbit/cpu-s (not rescaled; whole window %.4f: %.0f "
              "trits in %.3f CPU s of the system under test, %.2f cores busy)\n",
              slices.mbit_per_cpu_s, trits / 1e6 / r.serving_cpu_s, trits, r.serving_cpu_s,
              r.serving_cpu_s / r.window_s);
  std::printf("throughput_mbit_s %.4f Mbit/s (wall clock, median of %zu slices; "
              "whole window %.4f Mbit/s in %.3f s)\n",
              slices.mbit_s, slices.slices, trits / 1e6 / r.window_s, r.window_s);
  std::printf("ratio_pct %.6f %%\n", e2e["ratio_pct"]);
  const std::uint64_t run_attempted = warm.attempted + r.attempted;
  const std::uint64_t run_failed = warm.failed + r.failed;
  std::printf("fail_ratio %.6f (%llu of %llu attempted, warm-up included)\n",
              run_attempted == 0 ? 1.0 : double(run_failed) / double(run_attempted),
              static_cast<unsigned long long>(run_failed),
              static_cast<unsigned long long>(run_attempted));
  std::printf("peak_rss_mb %.3f MB\n", rss_mb);
  std::printf("setup_s %.6f s (reference CPU, median of %d; CPU %.6f s, wall clock "
              "%.6f s, warm prepare %.6f s)\n",
              e2e["setup_s"], kSetupReps, median(setup_cpu_s), median(setup_s),
              median(prepare_s));
  std::printf("latency_p50_ms %.4f ms (wall clock, median of per-slice %s p50); "
              "latency_tail_ms %.4f ms (median of %zu slices' %s; n=%zu, whole run "
              "%.4f ms)%s\n",
              slices.p50_ms, primary_op(args.workload), slices.tail_ms, slices.tail_slices,
              pct_label(tail_q).c_str(), primary.size(), quantile(primary, tail_q),
              tail_quantile(primary.size()) < tail_q
                  ? "  WARNING: fewer than ten samples beyond the tail percentile"
                  : "");
  const bool backlog_grew = r.backlog_end > kConnections;
  if (args.workload == Workload::MixedOpen) {
    std::printf("loadgen late_p99_ms %.4f backlog_end %llu%s\n", quantile(r.late_ms, 0.99),
                static_cast<unsigned long long>(r.backlog_end),
                backlog_grew ? "  WARNING: backlog grew; the fixed rate exceeds capacity "
                               "and latencies are not comparable"
                             : "");
  }
  std::printf("host_steal_pct %.2f %% (CPU time the hypervisor took during the run)\n",
              host_steal_pct);
  std::printf("host_speed_ms %.3f before, %.3f after (fixed reference loop; higher = "
              "slower host)\n",
              speed_before_ms, speed_after_ms);
  std::vector<std::string> errors = warm.errors;
  errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());

  std::uint64_t attempted = run_attempted, failed = run_failed;
  std::map<std::string, double> layer;
  std::string table;
  if (args.trace) {
    layer = loaded_layer_metrics(world, r, *env);
    env.reset();
    LayerReport report = run_layers(world, socket_path);
    layer.insert(report.metrics.begin(), report.metrics.end());
    layer["exp.prepare_warm_s"] = median(prepare_s);
    attempted += report.attempted;
    failed += report.failed;
    errors.insert(errors.end(), report.errors.begin(), report.errors.end());
    for (const std::string& e : report.errors) std::printf("error: %s\n", e.c_str());
    table = report.table;
    std::printf("%s", table.c_str());
    for (const MetricDef& d : kPerLayer) {
      std::printf("%-34s %.4f %s\n", d.name, layer.at(d.name), d.unit);
    }
    const std::string trace_path = args.out + "/" + tag + ".trace.json";
    std::ofstream(trace_path) << chrome_trace_json(report.spans);
    std::printf("span file %s (%zu spans)\n", trace_path.c_str(), report.spans.size());
  }
  env.reset();

  const bool correct = failed == 0 && attempted > 0;
  const std::string metrics = args.trace
                                  ? metrics_json(layer, kPerLayer, std::size(kPerLayer))
                                  : metrics_json(e2e, kEndToEnd, std::size(kEndToEnd));

  // The result file: everything above, stamped with host and build identity.
  std::string record = "{\"workload\": \"" + std::string(workload_name(args.workload)) +
                       "\", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + num(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") + ", \"host\": " + host +
                       ", \"sequence_hash\": \"" + sequence_hash +
                       "\", \"containers_hash\": \"" + containers_hash +
                       "\", \"primary_op\": \"" + primary_op(args.workload) +
                       "\", \"tail_quantile\": " + num(tail_q) +
                       ", \"samples\": " + std::to_string(primary.size()) +
                       ", \"backlog_grew\": " + (backlog_grew ? "true" : "false") +
                       ", \"host_steal_pct\": " + num(host_steal_pct) +
                       ", \"host_speed_ms\": [" + num(speed_before_ms) + ", " +
                       num(speed_after_ms) + "]" +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    record += (i ? ", \"" : "\"") + tdc::obs::json_escape(errors[i]) + "\"";
  }
  record += "], \"setup_ref_cpu_s\": [";
  for (std::size_t i = 0; i < setup_ref_s.size(); ++i) {
    record += (i ? ", " : "") + num(setup_ref_s[i]);
  }
  record += "], \"setup_cpu_s\": [";
  for (std::size_t i = 0; i < setup_cpu_s.size(); ++i) {
    record += (i ? ", " : "") + num(setup_cpu_s[i]);
  }
  record += "], \"setup_wall_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) record += (i ? ", " : "") + num(setup_s[i]);
  record += "], \"wall\": {\"latency_p50_ms\": " + num(slices.p50_ms) +
            ", \"latency_tail_ms\": " + num(slices.tail_ms) +
            ", \"throughput_mbit_s\": " + num(slices.mbit_s) +
            "}, \"serving_cpu_s\": " + num(r.serving_cpu_s) +
            ", \"mbit_per_cpu_s\": " + num(slices.mbit_per_cpu_s) +
            ", \"probe_ms\": " + num(median(probe_ms)) +
            ", \"metrics\": " + metrics + ", \"self_time_table\": \"" +
            tdc::obs::json_escape(table) + "\"}\n";
  const std::string record_path = args.out + "/" + tag + ".json";
  std::ofstream(record_path) << record;
  std::printf("result file %s\n", record_path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "tdcbench: %s\n", e.what());
    return 1;
  }
}
