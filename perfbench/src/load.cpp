#include <poll.h>
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "engine/manifest.h"
#include "harness.h"

namespace tdcbench {

namespace fs = std::filesystem;
using tdc::service::Frame;

namespace {

constexpr int kIoTimeoutMs = 60000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

std::string check_response(const World& world, const Request& q, const Frame& resp) {
  if (resp.op != "ok") return resp.op + " " + resp.param("kind") + ": " + resp.payload;
  const Expected* e = q.op == Op::Stats || q.op == Op::Ping ? nullptr : &world.expected[q.key];
  switch (q.op) {
    case Op::Compress:
      if (resp.payload != e->container) return "compress container differs";
      if (resp.param("compressed_bits") != std::to_string(e->compressed_bits)) {
        return "compress compressed_bits differs";
      }
      return {};
    case Op::Decompress:
      return resp.payload == e->tests_text ? "" : "decompress text differs";
    case Op::Verify:
      return resp.param("codes") == std::to_string(e->codes) &&
                     resp.param("bits") == std::to_string(e->original_bits)
                 ? ""
                 : "verify summary differs";
    case Op::Stats:
      return resp.payload.find("\"counters\"") != std::string::npos ? "" : "stats payload";
    case Op::Ping:
      return resp.payload == "ping" ? "" : "ping echo differs";
  }
  return "unknown op";
}

namespace {

/// Per-thread tallies, merged after the threads join.
struct Tally {
  Clock::time_point t0;
  std::vector<Sample> samples;
  std::vector<double> late_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<bool> key_done;
  Clock::time_point last_done;
  double cpu_s = 0;  ///< CPU time of the load-generator thread, at its exit
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 4) errors.push_back(std::move(why));
  }
  void record(Clock::time_point done, double ms, double moved, const char* op) {
    samples.push_back({seconds(done - t0), ms, moved, op});
  }
  void merge_into(RunResult& r) const {
    r.samples.insert(r.samples.end(), samples.begin(), samples.end());
    r.late_ms.insert(r.late_ms.end(), late_ms.begin(), late_ms.end());
    r.attempted += attempted;
    r.failed += failed;
    r.key_done.resize(key_done.size());
    for (std::size_t k = 0; k < key_done.size(); ++k) {
      if (key_done[k]) r.key_done[k] = true;
    }
    for (const std::string& e : errors) {
      if (r.errors.size() < 8) r.errors.push_back(e);
    }
  }
};

/// Sends one request and books its outcome; latency counts from `origin`
/// (send time for closed loops, due time for the open loop).
void exchange(const World& world, const Env& env, Conn& conn, const Request& q,
              Clock::time_point origin, Tally& tally) {
  ++tally.attempted;
  Conn::Timing t;
  Frame resp;
  try {
    resp = conn.call(env.frames(q), t);
  } catch (const std::exception& e) {
    tally.fail(e.what());
    tally.last_done = Clock::now();
    return;
  }
  tally.last_done = t.done;
  if (std::string why = check_response(world, q, resp); !why.empty()) {
    tally.fail(std::string(op_name(q.op)) + " key " + std::to_string(q.key) + ": " + why);
    return;
  }
  const bool moves_trits = q.op == Op::Compress || q.op == Op::Decompress || q.op == Op::Verify;
  tally.record(t.done, ms_between(origin, t.done),
               moves_trits ? static_cast<double>(world.expected[q.key].original_bits) : 0.0,
               op_name(q.op));
  if (moves_trits) tally.key_done[q.key] = true;
}

std::string stats_json(const World& world, Env& env) {
  Conn::Timing t;
  return env.conns[0].call(env.frames({Op::Stats, 0}), t).payload;
}

RunResult run_daemon(const World& world, const Plan& plan, Env& env, double run_seconds) {
  RunResult r;
  r.stats_before = stats_json(world, env);
  std::vector<Tally> tallies(kConnections);
  std::atomic<std::uint64_t> next_slot{0};
  std::atomic<std::uint64_t> backlog{0};
  const auto t0 = Clock::now();
  for (Tally& t : tallies) {
    t.key_done.assign(world.keys.size(), false);
    t.t0 = t0;
  }
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(run_seconds));
  const bool open_loop = world.workload == Workload::MixedOpen;
  const auto interval = std::chrono::duration<double>(1.0 / kMixedRate);

  SpeedProbe probe(t0);
  const double cpu_start = process_cpu_s() - probe.cpu_s();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      Conn& conn = env.conns[c];
      if (open_loop) {
        // Constant-interval schedule shared by all connections: a request
        // goes out on the first free connection once it is due, and its
        // latency runs from the due time, so a stall charges every request
        // queued behind it.
        for (;;) {
          const std::uint64_t i = next_slot.fetch_add(1);
          const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                    interval * static_cast<double>(i));
          if (due >= deadline) break;
          std::this_thread::sleep_until(due);
          const auto now = Clock::now();
          tally.late_ms.push_back(ms_between(due, now));
          if (now > deadline) backlog.fetch_add(1);
          exchange(world, env, conn, plan.slot(i), due, tally);
        }
      } else {
        auto eligible = t0;
        for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
          const auto sent = Clock::now();
          tally.late_ms.push_back(ms_between(eligible, sent));
          exchange(world, env, conn, plan.closed(c, i), sent, tally);
          eligible = Clock::now();
        }
      }
      tally.cpu_s = thread_cpu_s();
    });
  }
  // Once a second, while the load generators still run: serving CPU so far
  // is the process's CPU time less theirs and the probe's. A mark whose
  // thread clock cannot be read (its thread already left) is skipped.
  std::vector<clockid_t> clocks(kConnections);
  bool clocks_ok = true;
  for (unsigned c = 0; c < kConnections; ++c) {
    clocks_ok = clocks_ok && pthread_getcpuclockid(threads[c].native_handle(), &clocks[c]) == 0;
  }
  r.cpu_marks.push_back({0.0, 0.0});
  for (int k = 1; clocks_ok && k < static_cast<int>(run_seconds); ++k) {
    std::this_thread::sleep_until(t0 + std::chrono::seconds(k));
    const double process = process_cpu_s() - probe.cpu_s();
    double generators = 0;
    bool ok = true;
    for (const clockid_t clock : clocks) {
      const double v = cpu_clock_s(clock);
      ok = ok && v >= 0;
      generators += v;
    }
    if (ok) r.cpu_marks.push_back({seconds(Clock::now() - t0), process - cpu_start - generators});
  }
  for (std::thread& t : threads) t.join();
  r.serving_cpu_s = process_cpu_s() - probe.cpu_s() - cpu_start;
  r.probes = probe.finish();

  Clock::time_point end = t0;
  for (const Tally& t : tallies) {
    t.merge_into(r);
    r.serving_cpu_s -= t.cpu_s;
    end = std::max(end, t.last_done);
  }
  r.window_s = seconds(end - t0);
  r.cpu_marks.push_back({r.window_s, r.serving_cpu_s});
  r.backlog_end = backlog.load();
  r.stats_after = stats_json(world, env);
  return r;
}

RunResult run_batch(const World& world, const Plan& plan, Env& env, double run_seconds) {
  RunResult r;
  Tally tally;
  tally.key_done.assign(world.keys.size(), false);
  const auto t0 = Clock::now();
  tally.t0 = t0;
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(run_seconds));
  auto eligible = t0;
  SpeedProbe probe(t0);
  for (std::uint64_t pass = 0; Clock::now() < deadline; ++pass) {
    const std::vector<std::uint32_t> order = plan.pass_order(pass);
    tdc::engine::Manifest manifest;
    for (const std::uint32_t k : order) manifest.jobs.push_back(env.manifest.jobs[k]);

    const auto start = Clock::now();
    tally.late_ms.push_back(ms_between(eligible, start));
    const double cpu_start = process_cpu_s() - probe.cpu_s();
    const tdc::engine::BatchResult result = env.engine->run(manifest);
    const double pass_cpu_s = process_cpu_s() - probe.cpu_s() - cpu_start;
    r.serving_cpu_s += pass_cpu_s;
    const auto done = Clock::now();
    tally.last_done = done;

    // Gate: every committed output file equals the expected container.
    bool pass_ok = result.jobs.size() == order.size();
    const std::uint64_t failed_before = tally.failed;
    double moved = 0;
    for (std::size_t j = 0; pass_ok && j < order.size(); ++j) {
      const tdc::engine::JobOutcome& o = result.jobs[j];
      const Expected& e = world.expected[order[j]];
      ++tally.attempted;
      if (!o.ok()) {
        tally.fail(o.name + ": " + o.status.error().describe());
      } else if (read_file(o.output_path) != e.container) {
        tally.fail(o.name + ": output container differs");
      } else {
        moved += static_cast<double>(e.original_bits);
        tally.key_done[order[j]] = true;
      }
    }
    if (!pass_ok) tally.fail("batch returned the wrong number of jobs");
    if (tally.failed == failed_before) {
      tally.record(done, ms_between(start, done), moved, "batch");
      tally.samples.back().cpu_s = pass_cpu_s;
    }
    eligible = Clock::now();
  }
  r.probes = probe.finish();
  tally.merge_into(r);
  r.window_s = seconds(tally.last_done - t0);
  return r;
}

}  // namespace

Conn Conn::open(const std::string& socket_path) {
  tdc::Result<tdc::service::Fd> fd = tdc::service::connect_unix(socket_path);
  if (!fd.ok()) throw std::runtime_error(fd.error().describe());
  Conn conn;
  conn.fd = std::move(fd).take();
  conn.reader = std::make_unique<tdc::service::FrameReader>(
      conn.fd.get(), tdc::service::FrameLimits{}, kIoTimeoutMs);
  return conn;
}

Frame Conn::call(const std::string& encoded, Timing& t) {
  t.sent = Clock::now();
  if (const tdc::Status s =
          tdc::service::write_all(fd.get(), encoded.data(), encoded.size(), kIoTimeoutMs);
      !s.ok()) {
    throw std::runtime_error(s.error().describe());
  }
  t.written = Clock::now();
  pollfd p{fd.get(), POLLIN, 0};
  if (::poll(&p, 1, kIoTimeoutMs) != 1) throw std::runtime_error("no response");
  t.first_byte = Clock::now();
  Frame resp;
  const tdc::Result<bool> got = reader->read(resp);
  if (!got.ok()) throw std::runtime_error(got.error().describe());
  if (!got.value()) throw std::runtime_error("daemon closed the connection");
  t.done = Clock::now();
  return resp;
}

Env::~Env() {
  conns.clear();   // peers see EOF before the server drains
  engine.reset();
  server.reset();  // request_stop + wait
  if (!work_dir.empty()) {
    std::error_code ec;
    fs::remove_all(work_dir, ec);
  }
}

Frames::Frames(const World& world)
    : keys_(world.keys.size()), encoded_(5 * world.keys.size()) {
  for (const Op op : {Op::Compress, Op::Decompress, Op::Verify, Op::Stats, Op::Ping}) {
    const bool keyed = op != Op::Stats && op != Op::Ping;
    for (std::uint32_t k = 0; k < (keyed ? keys_ : 1); ++k) {
      encoded_[static_cast<std::size_t>(op) * keys_ + k] =
          tdc::service::encode_frame(world.request_frame({op, k})).value_or_throw();
    }
  }
}

std::unique_ptr<Env> setup(const World& world, const std::string& socket_path,
                           const std::string& work_dir, SetupTimes& times) {
  auto env = std::make_unique<Env>();
  const auto start = Clock::now();
  const double cpu_start = process_cpu_s();
  std::vector<Profile> profiles;
  times.prepare_s = load_profiles(profiles);

  if (world.workload == Workload::BatchSuite) {
    env->work_dir = work_dir;
    fs::create_directories(work_dir + "/in");
    fs::create_directories(work_dir + "/out");
    for (const Profile& p : profiles) {
      std::ofstream(work_dir + "/in/" + p.name + ".tests", std::ios::binary) << p.text;
    }
    for (const Key& k : world.keys) {
      tdc::engine::JobSpec job;
      const Profile& p = profiles[k.profile];
      job.name = p.name + "-" + tdc::engine::tiebreak_name(k.tiebreak);
      job.input_path = work_dir + "/in/" + p.name + ".tests";
      job.config = p.config;
      job.tiebreak = k.tiebreak;
      job.output_path = job.name + ".tdclzw";
      env->manifest.jobs.push_back(std::move(job));
    }
    env->engine_metrics = std::make_unique<tdc::engine::MetricsRegistry>();
    tdc::engine::EngineOptions options;
    options.workers = kWorkers;
    options.verify = true;
    options.output_dir = work_dir + "/out";
    env->engine = std::make_unique<tdc::engine::Engine>(options, env->engine_metrics.get());
  } else {
    tdc::service::ServerOptions options;
    options.socket_path = socket_path;
    options.workers = kWorkers;
    options.verify = true;
    env->server = std::make_unique<tdc::service::Server>(options);
    if (const tdc::Status s = env->server->start(); !s.ok()) {
      throw std::runtime_error("server start: " + s.error().describe());
    }
    for (unsigned c = 0; c < kConnections; ++c) env->conns.push_back(Conn::open(socket_path));

    if (world.workload == Workload::DecodeClosed) {
      // The inputs of decode_closed are the daemon's own compress outputs.
      for (std::uint32_t k = 0; k < world.keys.size(); ++k) {
        const Request q{Op::Compress, k};
        Conn::Timing t;
        const Frame resp = env->conns[0].call(
            tdc::service::encode_frame(world.request_frame(q)).value_or_throw(), t);
        if (std::string why = check_response(world, q, resp); !why.empty()) {
          throw std::runtime_error("set-up compress of key " + std::to_string(k) + ": " + why);
        }
      }
    }
  }
  times.total_s = seconds(Clock::now() - start);
  times.cpu_s = process_cpu_s() - cpu_start;
  if (world.workload != Workload::BatchSuite) env->frames = Frames(world);
  return env;
}

SliceMedians slice_medians(const RunResult& run, const std::string& op, double tail_q) {
  SliceMedians out;
  // Tail: as many equal slices as leave ten samples beyond the percentile
  // in each, and the median of their percentiles.
  std::vector<const Sample*> of_op;
  for (const Sample& s : run.samples) {
    if (op == s.op) of_op.push_back(&s);
  }
  const auto tail_slices = std::clamp<std::size_t>(
      static_cast<std::size_t>(double(of_op.size()) * (1.0 - tail_q) / 10.0), 1,
      std::max<std::size_t>(1, static_cast<std::size_t>(run.window_s)));
  std::vector<std::vector<double>> tail_ms(tail_slices);
  for (const Sample* s : of_op) {
    const auto slice = static_cast<std::size_t>(s->at_s / run.window_s * double(tail_slices));
    tail_ms[std::min(slice, tail_slices - 1)].push_back(s->ms);
  }
  std::vector<double> tails;
  for (const std::vector<double>& v : tail_ms) {
    if (!v.empty()) tails.push_back(quantile(v, tail_q));
  }
  out.tail_ms = median(tails);
  out.tail_slices = tail_slices;

  if (op == "batch") {
    // A pass is its own slice: a one-second slice holds a whole number of
    // equal-sized passes, which would quantize the throughput.
    std::vector<double> mbit_s, ms;
    for (const Sample* s : of_op) {
      mbit_s.push_back(s->trits / (s->ms * 1e3));
      ms.push_back(s->ms);
    }
    std::vector<double> per_cpu, per_ref_cpu;
    for (const Sample* s : of_op) {
      per_cpu.push_back(s->trits / 1e6 / s->cpu_s);
      per_ref_cpu.push_back(per_cpu.back() *
                            probe_ms_between(run.probes, s->at_s - s->ms / 1e3, s->at_s) /
                            kProbeNominalMs);
    }
    out.mbit_s = median(mbit_s);
    out.p50_ms = median(ms);
    out.mbit_per_cpu_s = median(per_cpu);
    out.mbit_per_ref_cpu_s = median(per_ref_cpu);
    out.slices = out.cpu_slices = of_op.size();
    return out;
  }
  // Trits of the operations that completed between two CPU marks, per
  // serving CPU second between them.
  const std::vector<CpuMark>& marks = run.cpu_marks;
  std::vector<double> span_trits(marks.size() < 2 ? 0 : marks.size() - 1, 0.0);
  for (const Sample& s : run.samples) {
    const auto next = std::upper_bound(marks.begin(), marks.end(), s.at_s,
                                       [](double t, const CpuMark& m) { return t < m.at_s; });
    // Past the last mark only when it completed at the window's very end.
    const std::size_t span =
        std::min(static_cast<std::size_t>(next - marks.begin()), span_trits.size());
    if (span >= 1) span_trits[span - 1] += s.trits;
  }
  std::vector<double> per_cpu, per_ref_cpu;
  for (std::size_t i = 0; i < span_trits.size(); ++i) {
    const double cpu = marks[i + 1].cpu_s - marks[i].cpu_s;
    if (cpu <= 0) continue;
    per_cpu.push_back(span_trits[i] / 1e6 / cpu);
    per_ref_cpu.push_back(per_cpu.back() *
                          probe_ms_between(run.probes, marks[i].at_s, marks[i + 1].at_s) /
                          kProbeNominalMs);
  }
  out.mbit_per_cpu_s = median(per_cpu);
  out.mbit_per_ref_cpu_s = median(per_ref_cpu);
  out.cpu_slices = per_cpu.size();
  out.slices = static_cast<std::size_t>(run.window_s);
  std::vector<double> trits(out.slices, 0.0);
  std::vector<std::vector<double>> ms(out.slices);
  for (const Sample& s : run.samples) {
    const auto slice = static_cast<std::size_t>(s.at_s);
    if (slice >= out.slices) continue;
    trits[slice] += s.trits;
    if (op == s.op) ms[slice].push_back(s.ms);
  }
  std::vector<double> p50;
  for (const std::vector<double>& v : ms) {
    if (!v.empty()) p50.push_back(median(v));
  }
  out.mbit_s = median(trits) / 1e6;
  out.p50_ms = median(p50);
  return out;
}

RunResult run_workload(const World& world, const Plan& plan, Env& env,
                       double run_seconds) {
  return world.workload == Workload::BatchSuite
             ? run_batch(world, plan, env, run_seconds)
             : run_daemon(world, plan, env, run_seconds);
}

}  // namespace tdcbench
