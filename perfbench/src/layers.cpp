#include <sys/socket.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "codec/select.h"
#include "harness.h"
#include "lzw/stream_io.h"
#include "obs/json.h"
#include "scan/testset_io.h"

namespace tdcbench {

using tdc::service::Frame;

namespace {

constexpr int kIoTimeoutMs = 60000;
constexpr int kReplayPid = 1;  ///< single-threaded layer replay
constexpr int kClientPid = 2;  ///< one-connection daemon pass
constexpr int kDaemonRounds = 3;  ///< untraced + traced daemon pass pairs

/// Appends spans to a vector; one recorder per pass, single-threaded.
class Recorder {
 public:
  Recorder(std::vector<Span>& out, int pid) : out_(out), pid_(pid) {}

  std::size_t begin(const char* name, std::uint64_t id, std::int64_t parent,
                    std::uint64_t trits = 0) {
    const auto now = Clock::now();
    out_.push_back(Span{name, trits, id, parent, pid_, now, now});
    return out_.size() - 1;
  }
  void end(std::size_t span) { out_[span].end = Clock::now(); }
  std::size_t add(const char* name, std::uint64_t id, std::int64_t parent,
                  Clock::time_point start, Clock::time_point end) {
    out_.push_back(Span{name, 0, id, parent, pid_, start, end});
    return out_.size() - 1;
  }

 private:
  std::vector<Span>& out_;
  int pid_;
};

/// Runs `fn` inside a span named after the layer function it calls.
template <class Fn>
auto timed(Recorder& rec, const char* name, std::uint64_t id, std::size_t parent,
           std::uint64_t trits, Fn&& fn) {
  const std::size_t span = rec.begin(name, id, static_cast<std::int64_t>(parent), trits);
  auto result = fn();
  rec.end(span);
  return result;
}

/// FrameReader over a socketpair, timed around read() only. The first
/// 64 KiB are in the socket before the span opens; a helper thread feeds
/// the rest of a larger frame, as a peer would.
Frame read_frame_over_socketpair(const std::string& encoded, Recorder& rec,
                                 std::uint64_t id, std::size_t parent) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  tdc::service::Fd reader_fd(sv[0]), writer_fd(sv[1]);
  const std::size_t head = std::min<std::size_t>(encoded.size(), 64 << 10);
  tdc::service::write_all(writer_fd.get(), encoded.data(), head, kIoTimeoutMs)
      .ok_or_throw();
  std::thread feeder([&] {
    // A failed feed surfaces as the reader's IoError below.
    (void)tdc::service::write_all(writer_fd.get(), encoded.data() + head,
                                  encoded.size() - head, kIoTimeoutMs);
  });
  tdc::service::FrameReader reader(reader_fd.get(), tdc::service::FrameLimits{},
                                   kIoTimeoutMs);
  Frame frame;
  const tdc::Result<bool> got = timed(rec, "service.frame_read", id, parent,
                                      0, [&] { return reader.read(frame); });
  feeder.join();
  if (!got.ok() || !got.value()) throw std::runtime_error("frame read failed");
  return frame;
}

void expect_true(bool ok, const std::string& what, LayerReport& report) {
  ++report.attempted;
  if (!ok) {
    ++report.failed;
    if (report.errors.size() < 8) report.errors.push_back(what);
  }
}

/// Single-threaded replay of the daemon-side work of every distinct request
/// through the public layer functions: the compress path, then the
/// decompress path of its container. Workloads without `codec=auto`
/// requests also get one `encode_chunks(auto)` probe per payload, so that
/// every layer is timed on every workload's data.
void replay(const World& world, LayerReport& report, std::map<std::string, double>& m) {
  using namespace tdc;
  Recorder rec(report.spans, kReplayPid);
  std::vector<bool> has_auto(world.profiles.size(), false);
  for (const std::uint32_t k : world.daemon_keys) {
    if (world.keys[k].auto_codec) has_auto[world.keys[k].profile] = true;
  }
  std::uint64_t probes_fast = 0, probes_all = 0, dict_full = 0;

  for (const std::uint32_t k : world.daemon_keys) {
    const Key& key = world.keys[k];
    const Profile& p = world.profiles[key.profile];
    const Expected& e = world.expected[k];

    const std::size_t frame_root = rec.begin("frame", k, -1);
    const std::string encoded =
        timed(rec, "service.frame_encode", k, frame_root, 0, [&] {
          return service::encode_frame(world.request_frame({Op::Compress, k}));
        }).value_or_throw();
    const Frame frame = read_frame_over_socketpair(encoded, rec, k, frame_root);
    rec.end(frame_root);
    expect_true(frame.payload == p.text, p.name + ": frame payload differs", report);

    const std::size_t root = rec.begin("compress", k, -1);
    const scan::TestSet tests = timed(rec, "scan.read_tests", k, root, p.trits, [&] {
      std::istringstream in(p.text);
      return scan::read_tests(in);
    });
    const bits::TritVector stream =
        timed(rec, "scan.serialize", k, root, p.trits, [&] { return tests.serialize(); });
    std::string container;
    codec::SelectOptions auto_options = codec::parse_codec_mode("auto").value_or_throw();
    auto_options.lzw = p.config;
    if (key.auto_codec) {
      const codec::EncodedChunks chunks = timed(rec, "codec.select", k, root, p.trits, [&] {
        return codec::encode_chunks(stream, auto_options);
      }).value_or_throw();
      container = timed(rec, "lzw.container_write", k, root, 0, [&] {
        std::ostringstream out;
        lzw::write_image_v3(out, p.config, chunks.original_bits,
                            codec::kDefaultChunkTrits, chunks.records);
        return std::move(out).str();
      });
    } else {
      const lzw::EncodeResult enc = timed(rec, "lzw.encode", k, root, p.trits, [&] {
        return lzw::Encoder(p.config).encode(stream);
      });
      probes_fast += enc.telemetry.probes_fast;
      probes_all += enc.telemetry.probes_fast + enc.telemetry.probes_scan;
      dict_full += enc.telemetry.dict_full_events;
      container = timed(rec, "lzw.container_write", k, root, 0, [&] {
        std::ostringstream out;
        lzw::write_image(out, enc, lzw::ContainerOptions{});
        return std::move(out).str();
      });
    }
    const lzw::CompressedImage image = timed(rec, "lzw.container_read", k, root, 0, [&] {
      std::istringstream in(container);
      return lzw::try_read_image(in);
    }).value_or_throw();
    const bits::TritVector decoded = timed(rec, "codec.decode_image", k, root, p.trits, [&] {
      return codec::decode_image(image);
    }).value_or_throw();
    const bool covered = timed(rec, "bits.covered_by", k, root, p.trits,
                               [&] { return stream.covered_by(decoded); });
    rec.end(root);
    expect_true(container == e.container && covered, p.name + ": replayed compress differs",
                report);

    const std::size_t droot = rec.begin("decompress", k, -1);
    const lzw::CompressedImage dimage = timed(rec, "lzw.container_read", k, droot, 0, [&] {
      std::istringstream in(container);
      return lzw::try_read_image(in);
    }).value_or_throw();
    const bits::TritVector ddecoded = timed(rec, "codec.decode_image", k, droot, p.trits, [&] {
      return codec::decode_image(dimage);
    }).value_or_throw();
    const std::string text = timed(rec, "scan.write_tests", k, droot, p.trits, [&] {
      scan::TestSet single;
      single.circuit = "decompressed";
      single.width = static_cast<std::uint32_t>(ddecoded.size());
      single.cubes.push_back(ddecoded);
      std::ostringstream out;
      scan::write_tests(out, single);
      return std::move(out).str();
    });
    rec.end(droot);
    expect_true(text == e.tests_text, p.name + ": replayed decompress differs", report);

    if (!has_auto[key.profile]) {
      const std::size_t proot = rec.begin("probe", k, -1);
      timed(rec, "codec.select", k, proot, p.trits, [&] {
        return codec::encode_chunks(stream, auto_options);
      }).value_or_throw();
      rec.end(proot);
    }
  }
  m["lzw.probe_fast_ratio"] = probes_all == 0 ? 0.0 : double(probes_fast) / double(probes_all);
  m["lzw.dict_full_events"] = double(dict_full);
}

struct LayerTotal {
  double us = 0, trits = 0;
  std::uint64_t calls = 0;
};

/// Sum of each named span under the replay roots.
std::map<std::string, LayerTotal> layer_totals(const std::vector<Span>& spans, int pid) {
  std::map<std::string, LayerTotal> totals;
  for (const Span& s : spans) {
    if (s.pid != pid || s.parent < 0) continue;
    LayerTotal& t = totals[s.name];
    t.us += micros(s.end - s.start);
    t.trits += static_cast<double>(s.trits);
    ++t.calls;
  }
  return totals;
}

/// Mean self time per root span named `root` of each child layer, plus the
/// roots' own self time. Self time = duration minus what child spans cover.
std::map<std::string, double> self_times(const std::vector<Span>& spans, int pid,
                                         const std::string& root, double& root_self,
                                         std::size_t& roots) {
  std::vector<double> child_cover(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.pid == pid && s.parent >= 0) {
      child_cover[static_cast<std::size_t>(s.parent)] += micros(s.end - s.start);
    }
  }
  std::map<std::string, double> self;
  root_self = 0;
  roots = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.pid != pid) continue;
    if (s.parent < 0 && s.name == root) {
      ++roots;
      root_self += micros(s.end - s.start) - child_cover[i];
    } else if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].name == root) {
      self[s.name] += micros(s.end - s.start) - child_cover[i];
    }
  }
  if (roots > 0) {
    for (auto& [name, us] : self) us /= double(roots);
    root_self /= double(roots);
  }
  return self;
}

/// Self-time table of one path, closed by the remainder against the
/// daemon's own mean for the same op, so the rows sum to that mean.
std::string path_table(const std::vector<Span>& spans, const std::string& root,
                       double daemon_us, std::map<std::string, double>& m) {
  double root_self = 0;
  std::size_t roots = 0;
  const std::map<std::string, double> self = self_times(spans, kReplayPid, root, root_self, roots);
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line,
                "%s path: mean self time per request over %zu replayed requests\n",
                root.c_str(), roots);
  out += line;
  double sum = 0;
  for (const auto& [name, us] : self) {
    std::snprintf(line, sizeof line, "  %-28s %12.1f us %6.1f%%\n", name.c_str(), us,
                  100.0 * us / daemon_us);
    out += line;
    sum += us;
  }
  const double unaccounted = daemon_us - sum;
  m["trace." + root + "_unaccounted_us"] = unaccounted;
  std::snprintf(line, sizeof line, "  %-28s %12.1f us %6.1f%%\n", "unaccounted", unaccounted,
                100.0 * unaccounted / daemon_us);
  out += line;
  std::snprintf(line, sizeof line, "  %-28s %12.1f us (= dispatch.%s_us)\n", "total",
                daemon_us, root.c_str());
  out += line;
  std::snprintf(line, sizeof line, "  (replay glue outside the layer calls: %.1f us)\n",
                root_self);
  out += line;
  return out;
}

HistSum delta(const std::string& before, const std::string& after, const std::string& name) {
  const HistSum a = stats_hist(after, name), b = stats_hist(before, name);
  return HistSum{a.count - b.count, a.sum - b.sum};
}

/// One connection, requests strictly in sequence: compress, decompress and
/// verify of every daemon key, then a stats scrape. Returns the client-side
/// compress latencies; the traced pass also records send/wait/recv spans.
std::vector<double> daemon_pass(const World& world, Conn& conn, const Frames& frames,
                                Recorder* rec, LayerReport& report,
                                std::map<std::string, double>& client_us,
                                std::string& stats) {
  std::vector<double> compress_us;
  for (const std::uint32_t k : world.daemon_keys) {
    for (const Op op : {Op::Compress, Op::Decompress, Op::Verify}) {
      Conn::Timing t;
      const Frame resp = conn.call(frames({op, k}), t);
      expect_true(check_response(world, {op, k}, resp).empty(),
                  std::string(op_name(op)) + " key " + std::to_string(k) + " differs", report);
      if (op != Op::Compress) continue;
      compress_us.push_back(micros(t.done - t.sent));
      if (rec != nullptr) {
        const std::size_t root = rec->add("client.compress", k, -1, t.sent, t.done);
        const auto parent = static_cast<std::int64_t>(root);
        rec->add("service.client_send", k, parent, t.sent, t.written);
        rec->add("service.client_wait", k, parent, t.written, t.first_byte);
        rec->add("service.client_recv", k, parent, t.first_byte, t.done);
        client_us["service.client_send_us"] += micros(t.written - t.sent);
        client_us["service.client_wait_us"] += micros(t.first_byte - t.written);
        client_us["service.client_recv_us"] += micros(t.done - t.first_byte);
      }
    }
    Conn::Timing t;
    stats = conn.call(frames({Op::Stats, 0}), t).payload;
  }
  return compress_us;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

/// Queue contention of one Engine::run registry, summed over its queues.
void batch_queue_metrics(const std::string& json, double passes,
                         std::map<std::string, double>& m) {
  double blocked = 0, notifies = 0;
  for (const char* q : {"load", "encode", "container", "verify", "done"}) {
    const std::string prefix = std::string("queue.") + q + ".";
    blocked += double(stats_counter(json, prefix + "push_blocked_micros") +
                      stats_counter(json, prefix + "pop_blocked_micros"));
    notifies += double(stats_counter(json, prefix + "notifies_sent"));
  }
  m["engine.batch_queue_blocked_us"] = blocked / passes;
  m["engine.batch_notifies"] = notifies / passes;
}

/// One Engine::run over the workload's daemon keys (in-memory inputs and
/// outputs), for the batch-pipeline counters of the daemon workloads.
void engine_probe(const World& world, LayerReport& report, std::map<std::string, double>& m) {
  tdc::engine::Manifest manifest;
  for (const std::uint32_t k : world.daemon_keys) {
    const Key& key = world.keys[k];
    const Profile& p = world.profiles[key.profile];
    tdc::engine::JobSpec job;
    job.name = "probe-" + std::to_string(k);
    std::istringstream in(p.text);
    job.inline_tests = std::make_shared<const tdc::scan::TestSet>(tdc::scan::read_tests(in));
    job.config = p.config;
    if (key.auto_codec) job.codec = "auto";
    manifest.jobs.push_back(std::move(job));
  }
  tdc::engine::MetricsRegistry registry;
  tdc::engine::EngineOptions options;
  options.workers = kWorkers;
  options.verify = true;
  tdc::engine::Engine engine(options, &registry);
  const tdc::engine::BatchResult result = engine.run(manifest);
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    expect_true(result.jobs[j].ok() &&
                    result.jobs[j].container == world.expected[world.daemon_keys[j]].container,
                "engine probe job " + result.jobs[j].name + " differs", report);
  }
  batch_queue_metrics(registry.to_json(), 1.0, m);
}

}  // namespace

LayerReport run_layers(const World& world, const std::string& socket_path) {
  LayerReport report;
  std::map<std::string, double>& m = report.metrics;

  // Daemon passes on a fresh server: one warm-up, then untraced and traced
  // passes alternating, so that drift does not read as tracing overhead.
  {
    tdc::service::ServerOptions options;
    options.socket_path = socket_path;
    options.workers = kWorkers;
    options.verify = true;
    tdc::service::Server server(options);
    if (const tdc::Status s = server.start(); !s.ok()) {
      throw std::runtime_error("server start: " + s.error().describe());
    }
    const Frames frames(world);
    Conn conn = Conn::open(socket_path);
    std::map<std::string, double> client_us;
    std::string before, untraced, traced;
    daemon_pass(world, conn, frames, nullptr, report, client_us, before);
    Recorder rec(report.spans, kClientPid);
    std::vector<double> u, t;
    std::map<std::string, HistSum> served;  // daemon histograms, untraced passes
    const char* kServed[] = {"serve.compress.micros", "serve.decompress.micros",
                             "serve.verify.micros", "serve.stats.micros", "load.micros",
                             "encode.micros", "container.micros", "verify.micros"};
    for (int round = 0; round < kDaemonRounds; ++round) {
      const std::vector<double> ur =
          daemon_pass(world, conn, frames, nullptr, report, client_us, untraced);
      for (const char* name : kServed) {
        const HistSum d = delta(before, untraced, name);
        served[name].count += d.count;
        served[name].sum += d.sum;
      }
      const std::vector<double> tr =
          daemon_pass(world, conn, frames, &rec, report, client_us, traced);
      before = traced;
      u.insert(u.end(), ur.begin(), ur.end());
      t.insert(t.end(), tr.begin(), tr.end());
    }
    for (const auto& [name, total] : client_us) m[name] = total / double(t.size());

    const HistSum compress = served["serve.compress.micros"];
    double stages = 0;
    for (const char* stage : {"load", "encode", "container", "verify"}) {
      stages += double(served[std::string(stage) + ".micros"].sum);
    }
    m["dispatch.compress_us"] = compress.mean();
    m["dispatch.decompress_us"] = served["serve.decompress.micros"].mean();
    m["dispatch.verify_us"] = served["serve.verify.micros"].mean();
    m["dispatch.unaccounted_us"] = (double(compress.sum) - stages) / double(compress.count);
    m["obs.stats_us"] = served["serve.stats.micros"].mean();
    m["service.transport_us"] = mean(u) - compress.mean();
    m["trace.overhead_us"] = mean(t) - mean(u);
  }

  // The replay runs twice; the first pass warms caches and allocators and
  // only its correctness checks are kept.
  {
    LayerReport warm;
    replay(world, warm, m);
    report.attempted += warm.attempted;
    report.failed += warm.failed;
    report.errors.insert(report.errors.end(), warm.errors.begin(), warm.errors.end());
  }
  replay(world, report, m);
  for (const auto& [name, t] : layer_totals(report.spans, kReplayPid)) {
    m[name + "_us"] = t.us / double(t.calls);
  }
  const auto totals = layer_totals(report.spans, kReplayPid);
  const auto rate = [&totals](const char* name) {
    const LayerTotal& t = totals.at(name);
    return t.trits / t.us;  // trits per microsecond = Mbit/s
  };
  m["scan.parse_mbit_s"] = rate("scan.read_tests");
  m["lzw.encode_mbit_s"] = rate("lzw.encode");
  m["codec.decode_mbit_s"] = rate("codec.decode_image");
  report.table = path_table(report.spans, "compress", m["dispatch.compress_us"], m) +
                 path_table(report.spans, "decompress", m["dispatch.decompress_us"], m);

  if (world.workload != Workload::BatchSuite) engine_probe(world, report, m);
  return report;
}

std::map<std::string, double> loaded_layer_metrics(const World& world, const RunResult& run,
                                                   const Env& env) {
  std::map<std::string, double> m;
  const bool batch = world.workload == Workload::BatchSuite;
  const std::string after = batch ? env.engine_metrics->to_json() : run.stats_after;
  for (const char* stage : {"load", "encode", "container", "verify"}) {
    m[std::string("engine.") + stage + "_us"] =
        stats_hist(after, std::string(stage) + ".micros").mean();
  }
  if (batch) {
    const double passes = double(stats_counter(after, "engine.runs"));
    double idle = 0;
    std::int64_t peak = 0;
    for (const char* q : {"load", "encode", "container", "verify"}) {
      idle += double(stats_counter(after, std::string("queue.") + q + ".pop_blocked_micros"));
      peak = std::max(peak, stats_gauge_peak(after, std::string("queue.") + q + ".depth"));
    }
    m["engine.busy_rejects"] = 0;  // Engine::run admits the whole manifest
    m["engine.in_flight_peak"] = double(peak);
    m["engine.worker_idle_us"] = idle;
    batch_queue_metrics(after, passes, m);
  } else {
    const std::string& before = run.stats_before;
    m["engine.busy_rejects"] = double(stats_counter(after, "runner.busy_rejects") -
                                      stats_counter(before, "runner.busy_rejects"));
    m["engine.in_flight_peak"] = double(stats_gauge_peak(after, "runner.in_flight"));
    m["engine.worker_idle_us"] =
        double(stats_counter(after, "queue.service.pop_blocked_micros") -
               stats_counter(before, "queue.service.pop_blocked_micros"));
  }
  m["loadgen.late_p99_ms"] = quantile(run.late_ms, 0.99);
  m["loadgen.backlog_end"] = double(run.backlog_end);
  return m;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  if (spans.empty()) return "{\"traceEvents\": []}\n";
  const Clock::time_point origin = spans.front().start;
  std::string json = "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": %d, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, ",
                  s.pid, micros(s.start - origin), micros(s.end - s.start));
    json += "  {\"name\": \"" + tdc::obs::json_escape(s.name) + "\", " + buf +
            "\"args\": {\"request\": " + std::to_string(s.id) +
            ", \"trits\": " + std::to_string(s.trits) + "}}";
    json += i + 1 < spans.size() ? ",\n" : "\n";
  }
  json += "]}\n";
  return json;
}

}  // namespace tdcbench
