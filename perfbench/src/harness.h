#ifndef TDCBENCH_HARNESS_H
#define TDCBENCH_HARNESS_H

// Shared declarations of the end-to-end benchmark (tdcbench). The benchmark
// drives the repository only through its public library calls: a real
// service::Server on a unix socket, engine::Engine::run, and — in the traced
// run — the per-layer functions a compress request passes through.

#include <time.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "lzw/config.h"
#include "lzw/encoder.h"
#include "service/framing.h"
#include "service/server.h"
#include "service/socket.h"

namespace tdcbench {

namespace engine = tdc::engine;
namespace lzw = tdc::lzw;
namespace service = tdc::service;

using Clock = std::chrono::steady_clock;

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// CPU seconds used so far by the whole process (every thread) and by the
/// calling thread. The kernel leaves out time the hypervisor stole from a
/// vCPU, so CPU time of a fixed piece of work holds still on a shared host
/// where its wall time swings with other tenants' load.
double process_cpu_s();
double thread_cpu_s();
/// CPU seconds of any CPU-time clock (pthread_getcpuclockid); -1 when the
/// clock cannot be read.
double cpu_clock_s(clockid_t clock);

/// Load-generator threads and connections, and the daemon's worker count.
inline constexpr unsigned kConnections = 4;
inline constexpr unsigned kWorkers = 4;

/// Timed set-ups per invocation; setup_s is their median.
inline constexpr int kSetupReps = 41;

/// Untimed run of the workload before the timed one, so that caches,
/// allocator arenas and first-touch pages have settled.
inline constexpr double kWarmupSeconds = 1.0;

enum class Workload { SuiteClosed, MixedOpen, DecodeClosed, BatchSuite };

const char* workload_name(Workload w);
bool parse_workload(const std::string& name, Workload& out);

// ---------------------------------------------------------------- util.cpp

std::uint64_t fnv1a(std::string_view data,
                    std::uint64_t hash = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t v);

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// beyond it; 0.5 when even the median does not.
double tail_quantile(std::size_t samples);

/// Peak resident memory since the last reset (VmHWM); the reset goes
/// through /proc/self/clear_refs and is skipped where that is refused.
void reset_peak_rss();
double peak_rss_mb();

/// Host CPU time counters from /proc/stat: all time and time stolen by the
/// hypervisor. A run whose steal share is high saw less CPU than usual.
struct CpuTicks {
  std::uint64_t total = 0, steal = 0;
};
CpuTicks cpu_ticks();
double steal_pct(const CpuTicks& from, const CpuTicks& to);

/// Milliseconds one thread needs for a fixed compute-bound reference loop
/// (FNV-1a over 16 MiB, median of five) that shares no code with the
/// repository: a rough gauge of how fast this host's CPUs run right now.
/// Shared hosts swing by 2x over minutes with little steal showing.
double host_speed_ms();

/// CPU milliseconds the calling thread needs for a fixed compute-bound
/// reference loop (FNV-1a over 1 MiB) that shares no code with the
/// repository. Thread CPU time leaves out steal, so what it tracks is the
/// speed of the core the thread ran on: on a shared host that moves by a
/// third as other tenants load the machine's cores and caches, and the
/// system under test moves with it.
double probe_cpu_ms();

/// The probe time that defines a reference CPU second: CPU time is rescaled
/// by kProbeNominalMs / probe_cpu_ms() measured beside it.
inline constexpr double kProbeNominalMs = 2.0;

struct ProbeSample {
  double at_s = 0;  ///< seconds into the timed window
  double ms = 0;    ///< probe_cpu_ms()
};

/// Median probe time of the samples taken between `from_s` and `to_s`, or
/// of the nearest sample when none was.
double probe_ms_between(const std::vector<ProbeSample>& probes, double from_s, double to_s);

/// Runs probe_cpu_ms() on a thread of its own right away and then every
/// 200 ms until finish(): the speed of the cores beside a timed run.
class SpeedProbe {
 public:
  explicit SpeedProbe(Clock::time_point t0);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;
  /// CPU seconds the probe thread has used so far (call before finish()).
  double cpu_s() const;
  /// Stops and joins the thread; returns its samples.
  std::vector<ProbeSample> finish();

 private:
  Clock::time_point t0_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<ProbeSample> samples_;  ///< written by the thread until joined
  std::thread thread_;
  clockid_t clock_{};
};

/// cpus, CPU model, compiler and flags, build type, SIMD kernel in use and
/// the caller-supplied source identity, as one JSON object.
std::string host_json(const std::string& source_id);

/// A JSON number with twelve significant digits.
std::string num(double v);

/// Minimal readers over the daemon's `stats` JSON (obs registry layout).
struct HistSum {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
};
std::uint64_t stats_counter(const std::string& json, const std::string& name);
HistSum stats_hist(const std::string& json, const std::string& name);
std::int64_t stats_gauge_peak(const std::string& json, const std::string& name);

// -------------------------------------------------------------- inputs.cpp

/// One suite circuit as the benchmark serves it.
struct Profile {
  std::string name;
  lzw::LzwConfig config;     ///< paper config: Table-3 dict, C_C=7, C_MDATA=63
  std::string text;          ///< .tests payload
  std::uint64_t trits = 0;   ///< serialized scan-stream length
  bool itc99 = false;        ///< small ITC99 profile (<= 40 KB)
};

/// One distinct compress request. Every request a workload sends refers
/// to one of these; the correctness gate holds the expected response.
struct Key {
  std::size_t profile = 0;
  bool auto_codec = false;  ///< `codec=auto` (v3 container) instead of LZW
  lzw::Tiebreak tiebreak = lzw::Tiebreak::First;  ///< batch jobs only
};

/// What the daemon (or the batch engine) must return for one Key,
/// computed at set-up through the same public library calls.
struct Expected {
  std::string container;          ///< compress response payload, bytewise
  std::uint64_t original_bits = 0;
  std::uint64_t compressed_bits = 0;
  std::uint64_t codes = 0;        ///< container code/record count (verify)
  std::string tests_text;         ///< decompress response payload, bytewise
};

enum class Op : std::uint8_t { Compress, Decompress, Verify, Stats, Ping };
const char* op_name(Op op);

struct Request {
  Op op = Op::Ping;
  std::uint32_t key = 0;  ///< index into World::keys (compress/decode ops)
};

/// The fixed inputs of one workload: profiles, distinct keys and their
/// expected outputs.
struct World {
  Workload workload = Workload::SuiteClosed;
  std::vector<Profile> profiles;
  std::vector<Key> keys;
  std::vector<Expected> expected;  ///< parallel to keys
  /// Keys a daemon can serve (tiebreak First); for batch_suite the
  /// daemon-side passes of the traced run use these.
  std::vector<std::uint32_t> daemon_keys;

  service::Frame request_frame(const Request& r) const;
  /// Hash of every expected container, in key order.
  std::uint64_t containers_hash() const;
  /// Aggregate 1 - compressed/original over the keys marked in `done`
  /// (all keys when empty), in percent.
  double ratio_pct(const std::vector<bool>& done = {}) const;
};

/// Loads the 12 suite profiles through exp::prepare (cache dir from
/// $TDC_CACHE_DIR) and renders their payloads. Returns the time the
/// warm-cache prepare calls took.
double load_profiles(std::vector<Profile>& out);

/// Builds the keys of `w` over loaded profiles and computes every expected
/// output. Throws on an expected output that fails its own round trip.
World make_world(Workload w, std::vector<Profile> profiles);

/// Seeded request order. Closed loops: one sequence per connection, made of
/// seed-shuffled cycles over the workload's request mix. mixed_open: the
/// open-loop slot schedule. batch_suite: per-pass job orders.
class Plan {
 public:
  Plan(const World& world, std::uint64_t seed);
  /// Request `index` of connection `conn` (closed loops).
  Request closed(unsigned conn, std::uint64_t index) const;
  /// Open-loop slot `index` (mixed_open).
  Request slot(std::uint64_t index) const;
  /// Job order (indices into World::keys) of batch pass `pass`.
  std::vector<std::uint32_t> pass_order(std::uint64_t pass) const;
  /// Hash of the first `n` planned requests of every sequence the
  /// workload uses — identical for identical seeds.
  std::uint64_t sequence_hash(std::uint64_t n) const;

 private:
  std::vector<Request> cycle(std::uint64_t stream, std::uint64_t index) const;
  const World& world_;
  std::uint64_t seed_;
  std::vector<Request> base_;  ///< closed-loop cycle before shuffling
  std::size_t round_len_ = 0;  ///< mixed_open round length
};

/// Open-loop send rate of mixed_open, requests per second: about 14 % of
/// the ~1450 req/s (105 Mbit/s of input trits) at which this request mix
/// saturates the 4-worker daemon on a quiet 4-CPU Xeon host. The host is
/// shared and loses up to two thirds of that capacity for minutes at a
/// time; at 62 % and at 31 % the median latency then moved by 65 % and
/// 60 % between seeds as queues built, so the rate keeps a 2-3x margin.
inline constexpr double kMixedRate = 200.0;

// ---------------------------------------------------------------- load.cpp

/// One persistent client connection, built from the service layer's own
/// socket and framing calls so that send, wait and receive can be timed
/// apart.
struct Conn {
  service::Fd fd;
  std::unique_ptr<service::FrameReader> reader;

  static Conn open(const std::string& socket_path);
  struct Timing {
    Clock::time_point sent, written, first_byte, done;
  };
  /// Writes the encoded frame, waits for the first response byte, reads
  /// the response. Throws on a transport failure.
  service::Frame call(const std::string& encoded, Timing& t);
};

/// Every request frame of a world, encoded once: one per (op, key); stats
/// and ping use key 0.
class Frames {
 public:
  Frames() = default;
  explicit Frames(const World& world);
  const std::string& operator()(const Request& r) const {
    return encoded_[static_cast<std::size_t>(r.op) * keys_ + r.key];
  }

 private:
  std::size_t keys_ = 0;
  std::vector<std::string> encoded_;
};

/// The live system under test, as set-up leaves it.
struct Env {
  std::unique_ptr<service::Server> server;
  std::vector<Conn> conns;
  Frames frames;
  // batch_suite
  std::string work_dir;
  engine::Manifest manifest;
  std::unique_ptr<engine::MetricsRegistry> engine_metrics;
  std::unique_ptr<engine::Engine> engine;

  ~Env();
};


struct SetupTimes {
  double total_s = 0, prepare_s = 0;
  double cpu_s = 0;  ///< process CPU time over the same span as total_s
};

/// One timed set-up: warm prepare loads, server start and connections
/// (daemon workloads) or input files and manifest (batch_suite), and for
/// decode_closed the compresses that make its inputs (checked against the
/// gate). `world` supplies the keys and expected outputs.
std::unique_ptr<Env> setup(const World& world, const std::string& socket_path,
                           const std::string& work_dir, SetupTimes& times);

/// One correct operation of a timed run.
struct Sample {
  double at_s = 0;       ///< completion time, seconds into the window
  double ms = 0;         ///< latency
  double trits = 0;      ///< scan trits it moved (compress in, decode out)
  const char* op = "";   ///< op name, or "batch" for one Engine::run pass
  double cpu_s = 0;      ///< batch: serving CPU time of the pass
};

/// Serving CPU time (see RunResult::serving_cpu_s) used from the start of
/// the window to `at_s` seconds into it.
struct CpuMark {
  double at_s = 0, cpu_s = 0;
};

/// Outcome of one timed run.
struct RunResult {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Sample> samples;
  std::vector<double> late_ms;    ///< send time minus eligible time
  double window_s = 0;
  /// CPU seconds the system under test used in the window: the process's
  /// CPU time less the load generator's own threads (daemon workloads), or
  /// the process's CPU time inside the Engine::run calls (batch_suite);
  /// less the SpeedProbe thread's in both.
  double serving_cpu_s = 0;
  /// Daemon workloads: serving CPU sampled about once a second, from the
  /// window's start (0, 0) to its end (window_s, serving_cpu_s).
  std::vector<CpuMark> cpu_marks;
  std::vector<ProbeSample> probes;  ///< SpeedProbe samples of the window
  std::uint64_t backlog_end = 0;  ///< open loop: due but unsent at the end
  std::vector<bool> key_done;     ///< keys with at least one correct op
  std::string stats_before, stats_after;  ///< daemon stats JSON
  std::vector<std::string> errors;  ///< first few failure descriptions
};

/// The correctness gate for one response: empty when the response is
/// exactly what the gate computed at set-up, else what differs.
std::string check_response(const World& world, const Request& q,
                           const service::Frame& resp);

RunResult run_workload(const World& world, const Plan& plan, Env& env,
                       double run_seconds);

/// Medians over the whole one-second slices of a run (for "batch": over
/// the Engine::run passes): of each slice's throughput, and of each slice's
/// median `op` latency. A burst of outside load that covers less than half
/// the slices does not move them.
/// The tail is the median of the `tail_q` percentiles of as many equal
/// slices as leave at least ten samples beyond the percentile in each.
/// mbit_per_cpu_s is the median over the spans between CPU marks (batch:
/// over passes) of trits moved per serving CPU second; mbit_per_ref_cpu_s
/// the same with each span's CPU time rescaled to the reference speed by
/// the probe samples taken in it.
struct SliceMedians {
  double mbit_s = 0, p50_ms = 0, tail_ms = 0, mbit_per_cpu_s = 0, mbit_per_ref_cpu_s = 0;
  std::size_t slices = 0, tail_slices = 0, cpu_slices = 0;
};
SliceMedians slice_medians(const RunResult& run, const std::string& op, double tail_q);

// -------------------------------------------------------------- layers.cpp

/// In-memory span recorder: Chrome trace "X" events written at the end.
struct Span {
  std::string name;
  std::uint64_t trits = 0;   ///< scan trits the call processed
  std::uint64_t id = 0;      ///< request id the span belongs to
  std::int64_t parent = -1;  ///< index of the enclosing span
  int pid = 1;               ///< 1 = replay, 2 = daemon pass (trace rows)
  Clock::time_point start, end;
};

struct LayerReport {
  std::map<std::string, double> metrics;  ///< per-layer metric values
  std::string table;                      ///< human-readable self-time table
  std::vector<Span> spans;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

/// The traced run: a one-connection daemon pass (untraced, then traced),
/// a single-threaded replay through the public layer functions, and an
/// Engine::run pass over the workload's payloads.
LayerReport run_layers(const World& world, const std::string& socket_path);

/// Per-layer numbers of the timed (untraced) run itself: engine stage
/// means, admission and queue counters, load-generator health.
std::map<std::string, double> loaded_layer_metrics(const World& world,
                                                   const RunResult& run,
                                                   const Env& env);

std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace tdcbench

#endif  // TDCBENCH_HARNESS_H
