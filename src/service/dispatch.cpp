#include "service/dispatch.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "codec/select.h"
#include "core/thread_safety.h"
#include "engine/manifest.h"
#include "lzw/stream_io.h"
#include "obs/json.h"
#include "obs/openmetrics.h"
#include "obs/trace.h"
#include "scan/testset_io.h"

namespace tdc::service {

namespace {

Error typed_error(ErrorKind kind, std::string message) {
  Error e;
  e.kind = kind;
  e.message = std::move(message);
  return e;
}

Error busy_error() {
  return typed_error(ErrorKind::Busy,
                     "daemon at its in-flight cap; retry after a response drains");
}

/// Exception → typed-Error mapping for pool-side work, mirroring the engine
/// stage discipline: TdcErrorBase keeps its typed error, invalid_argument is
/// a configuration/semantic problem, anything else an I/O-level failure.
Result<Frame> guarded_frame(const std::function<Result<Frame>()>& fn) {
  try {
    return fn();
  } catch (const TdcErrorBase& e) {
    return e.error();
  } catch (const std::invalid_argument& e) {
    return typed_error(ErrorKind::ConfigMismatch, e.what());
  } catch (const std::exception& e) {
    return typed_error(ErrorKind::IoError, e.what());
  }
}

/// Connection thread ↔ pool worker rendezvous for one request.
struct Waiter {
  core::Mutex mutex;
  core::CondVar cv;
  bool done TDC_GUARDED_BY(mutex) = false;

  void signal() {
    {
      core::MutexLock lock(mutex);
      done = true;
    }
    cv.notify_one();
  }
  void wait() {
    core::MutexLock lock(mutex);
    while (!done) cv.wait(lock);
  }
};

Result<std::uint32_t> u32_param(const Frame& frame, const std::string& key,
                                std::uint32_t fallback) {
  if (!frame.has_param(key)) return fallback;
  const std::string text = frame.param(key);
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9' || value > 0xffffffffull) {
      return typed_error(ErrorKind::ProtocolError,
                         "param " + key + " is not a u32: " + text);
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (text.empty() || value > 0xffffffffull) {
    return typed_error(ErrorKind::ProtocolError,
                       "param " + key + " is not a u32: " + text);
  }
  return static_cast<std::uint32_t>(value);
}

std::string u64_str(std::uint64_t v) { return std::to_string(v); }

/// Known ops get their own serve.<op>.* scope; everything else shares
/// serve.unknown.* so a hostile client cannot grow the registry unboundedly.
const char* metric_op(const std::string& op) {
  for (const char* known : {"ping", "compress", "decompress", "verify",
                            "inspect", "stats", "metrics"}) {
    if (op == known) return known;
  }
  return "unknown";
}

std::string container_summary(const lzw::ContainerInfo& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "TDCLZW%u (%llu B header + %llu B payload, %u %s)", c.version,
                static_cast<unsigned long long>(c.header_bytes),
                static_cast<unsigned long long>(c.payload_bytes), c.chunk_count,
                c.version >= 3 ? "records" : "chunks");
  return buf;
}

}  // namespace

void SlowLog::observe(SlowLogEntry entry) {
  core::MutexLock lock(mutex_);
  const auto at = std::upper_bound(
      entries_.begin(), entries_.end(), entry,
      [](const SlowLogEntry& a, const SlowLogEntry& b) { return a.micros > b.micros; });
  entries_.insert(at, std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
}

std::vector<SlowLogEntry> SlowLog::snapshot() const {
  core::MutexLock lock(mutex_);
  return entries_;
}

std::string SlowLog::to_json() const {
  std::string json = "[";
  bool first = true;
  for (const SlowLogEntry& e : snapshot()) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "\"micros\": %llu, \"bytes_in\": %llu, \"bytes_out\": %llu, "
                  "\"error\": %s}",
                  static_cast<unsigned long long>(e.micros),
                  static_cast<unsigned long long>(e.bytes_in),
                  static_cast<unsigned long long>(e.bytes_out),
                  e.error ? "true" : "false");
    json += first ? "\n" : ",\n";
    json += "    {\"id\": \"" + obs::json_escape(e.id) + "\", \"op\": \"" +
            obs::json_escape(e.op) + "\", \"trace\": \"" +
            obs::json_escape(e.trace) + "\", ";
    json += buf;
    first = false;
  }
  json += first ? "]" : "\n  ]";
  return json;
}

Frame Dispatcher::handle(const Frame& request) {
  const auto start = std::chrono::steady_clock::now();
  obs::MetricScope scope(registry_, std::string("serve.") + metric_op(request.op));
  scope.counter("requests").add();
  scope.counter("bytes_in").add(request.payload.size());

  Frame response;
  std::uint64_t micros = 0;
  {
    // The request span closes before the latency is recorded so its
    // duration nests strictly inside what serve.<op>.micros reports.
    obs::TraceSpan span("serve.request");
    span.arg("op", request.op);
    span.arg("id", request.id);
    if (const std::string trace = request.param("trace"); !trace.empty()) {
      span.arg("trace", trace);
    }
    response = dispatch(request);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  }
  response.id = request.id;  // the one invariant every client relies on

  if (response.op == "error") scope.counter("errors").add();
  scope.counter("bytes_out").add(response.payload.size());
  scope.histogram("micros").record(micros);
  slowlog_.observe(SlowLogEntry{request.id, request.op, request.param("trace"),
                                micros, request.payload.size(),
                                response.payload.size(),
                                response.op == "error"});
  return response;
}

void Dispatcher::refresh_sampled_instruments() {
  runner_.publish_queue_stats();
  registry_.gauge("process.rss_bytes")
      .set(static_cast<std::int64_t>(obs::process_rss_bytes()));
}

Frame Dispatcher::dispatch(const Frame& request) {
  if (request.op == "ping") {
    Frame resp;
    resp.op = "ok";
    resp.payload = request.payload;  // echo — liveness plus framing check
    return resp;
  }

  if (request.op == "stats") {
    // Served inline on the connection thread, deliberately NOT through the
    // pool: stats must answer even when every worker is busy — that is
    // exactly when an operator asks for them.
    refresh_sampled_instruments();
    Frame resp;
    resp.op = "ok";
    resp.add_param("in_flight", u64_str(runner_.in_flight()));
    // Splice the slowlog array in as a sibling of counters/gauges/
    // histograms: the registry renders "...\n}\n", so the final brace is
    // reopened rather than teaching the obs layer about request logs.
    std::string json = registry_.to_json();
    json.resize(json.rfind('}'));
    json += "  ,\"slowlog\": " + slowlog_.to_json() + "\n}\n";
    resp.payload = std::move(json);
    return resp;
  }

  if (request.op == "metrics") {
    // Inline for the same reason as stats: the scrape endpoint must answer
    // while the pool is saturated.
    refresh_sampled_instruments();
    Frame resp;
    resp.op = "ok";
    resp.add_param("format", "openmetrics");
    resp.payload = obs::openmetrics_render(registry_);
    return resp;
  }

  if (request.op == "compress") return do_compress(request);

  if (request.op == "decompress") {
    return run_on_pool(request, [payload = request.payload]() -> Result<Frame> {
      std::istringstream in(payload, std::ios::binary);
      Result<lzw::CompressedImage> image = lzw::try_read_image(in);
      if (!image.ok()) return image.error();
      const Result<bits::TritVector> decoded = codec::decode_image(image.value());
      if (!decoded.ok()) return decoded.error();
      // The same single-cube expansion tdc_cli decompress writes: without
      // side information the stream is one long vector.
      scan::TestSet out;
      out.circuit = "decompressed";
      out.width = static_cast<std::uint32_t>(decoded.value().size());
      out.cubes.push_back(decoded.value());
      std::ostringstream text;
      scan::write_tests(text, out);
      Frame resp;
      resp.op = "ok";
      resp.add_param("codes", u64_str(image.value().code_count));
      resp.add_param("bits", u64_str(decoded.value().size()));
      resp.payload = std::move(text).str();
      return resp;
    });
  }

  if (request.op == "verify") {
    return run_on_pool(request, [payload = request.payload]() -> Result<Frame> {
      std::istringstream in(payload, std::ios::binary);
      Result<lzw::CompressedImage> image = lzw::try_read_image(in);
      if (!image.ok()) return image.error();
      const Result<bits::TritVector> decoded = codec::decode_image(image.value());
      if (!decoded.ok()) return decoded.error();
      const lzw::CompressedImage& img = image.value();
      Frame resp;
      resp.op = "ok";
      resp.add_param("version", u64_str(img.container.version));
      resp.add_param("codes", u64_str(img.code_count));
      resp.add_param("bits", u64_str(decoded.value().size()));
      resp.payload = "OK — " + container_summary(img.container) + "; " +
                     u64_str(img.code_count) +
                     (img.multi_codec() ? " records" : " codes") +
                     " decode to " + u64_str(decoded.value().size()) +
                     " scan bits";
      return resp;
    });
  }

  if (request.op == "inspect") {
    return run_on_pool(request, [payload = request.payload]() -> Result<Frame> {
      std::istringstream in(payload, std::ios::binary);
      if (Result<lzw::CompressedImage> image = lzw::try_read_image(in);
          image.ok()) {
        const lzw::CompressedImage& img = image.value();
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "TDCLZW%u image, %s%s, %llu %s, %llu original bits, "
                      "%llu payload bits",
                      img.container.version, img.config.describe().c_str(),
                      img.config.variable_width ? " variable-width" : "",
                      static_cast<unsigned long long>(img.code_count),
                      img.multi_codec() ? "records" : "codes",
                      static_cast<unsigned long long>(img.original_bits),
                      static_cast<unsigned long long>(img.stream.bit_count()));
        Frame resp;
        resp.op = "ok";
        resp.add_param("kind", "image");
        resp.add_param("version", u64_str(img.container.version));
        resp.payload = std::string(buf) + "\n" +
                       container_summary(img.container) + "\n";
        return resp;
      }
      // Not a readable container: try the .tests text format.
      const scan::TestSet tests = scan::read_tests(payload);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "test set '%s', %llu patterns x %u bits, %.1f%% don't-cares",
                    tests.circuit.c_str(),
                    static_cast<unsigned long long>(tests.pattern_count()),
                    tests.width, 100.0 * tests.x_density());
      Frame resp;
      resp.op = "ok";
      resp.add_param("kind", "tests");
      resp.payload = std::string(buf) + "\n";
      return resp;
    });
  }

  return make_error_frame(request.id,
                          typed_error(ErrorKind::ProtocolError,
                                      "unknown op: " + request.op));
}

Frame Dispatcher::do_compress(const Frame& request) {
  // Build the JobSpec on the connection thread (parse errors answer
  // immediately, without costing a pool slot), run it on the pool.
  engine::JobSpec spec;
  spec.name = request.param("name", "req-" + request.id);
  spec.trace = request.param("trace");

  Result<std::uint32_t> dict = u32_param(request, "dict", spec.config.dict_size);
  Result<std::uint32_t> chr = u32_param(request, "char", spec.config.char_bits);
  Result<std::uint32_t> entry =
      u32_param(request, "entry", spec.config.entry_bits);
  Result<std::uint32_t> container =
      u32_param(request, "container", spec.container.version);
  Result<std::uint32_t> chunk =
      u32_param(request, "chunk", spec.container.chunk_bytes);
  Result<std::uint32_t> chunk_trits = u32_param(request, "chunk_trits", 0);
  for (const auto* r : {&dict, &chr, &entry, &container, &chunk, &chunk_trits}) {
    if (!r->ok()) return make_error_frame(request.id, r->error());
  }
  spec.config.dict_size = dict.value();
  spec.config.char_bits = chr.value();
  spec.config.entry_bits = entry.value();
  spec.config.variable_width = request.param("variable") == "1";
  spec.container.version = container.value();
  spec.container.chunk_bytes = chunk.value();
  spec.codec = request.param("codec");
  spec.chunk_trits = chunk_trits.value();

  if (!spec.codec.empty()) {
    if (const auto mode = codec::parse_codec_mode(spec.codec); !mode.ok()) {
      return make_error_frame(request.id, mode.error());
    }
  }

  // Parse the .tests payload up front, with the engine's exception mapping.
  {
    Result<Frame> parsed =
        guarded_frame([&spec, &request]() -> Result<Frame> {
          spec.config.validate();
          spec.inline_tests = std::make_shared<const scan::TestSet>(
              scan::read_tests(request.payload));
          return Frame{};
        });
    if (!parsed.ok()) return make_error_frame(request.id, parsed.error());
  }

  auto waiter = std::make_shared<Waiter>();
  auto outcome = std::make_shared<engine::JobOutcome>();
  const bool accepted =
      runner_.submit(std::move(spec), [waiter, outcome](engine::JobOutcome o) {
        *outcome = std::move(o);
        waiter->signal();
      });
  if (!accepted) return make_error_frame(request.id, busy_error());
  waiter->wait();

  if (!outcome->status.ok()) {
    return make_error_frame(request.id, outcome->status.error());
  }
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.2f", outcome->ratio_percent);
  Frame resp;
  resp.op = "ok";
  resp.add_param("original_bits", u64_str(outcome->original_bits));
  resp.add_param("compressed_bits", u64_str(outcome->compressed_bits));
  resp.add_param("container_bytes", u64_str(outcome->container_bytes));
  resp.add_param("version", u64_str(outcome->container_version));
  resp.add_param("ratio", ratio);
  resp.payload = std::move(outcome->container);
  return resp;
}

Frame Dispatcher::run_on_pool(const Frame& request,
                              std::function<Result<Frame>()> work) {
  auto waiter = std::make_shared<Waiter>();
  auto result = std::make_shared<std::optional<Result<Frame>>>();
  const bool accepted = runner_.submit_task(
      [waiter, result, work = std::move(work), op = request.op,
       trace = request.param("trace")]() {
        // The worker-side half of the request's trace: same id as the
        // connection thread's serve.request span, so the hand-off is one
        // query in Perfetto.
        obs::TraceSpan span("serve.task");
        span.arg("op", op);
        if (!trace.empty()) span.arg("trace", trace);
        result->emplace(guarded_frame(work));
        waiter->signal();
      });
  if (!accepted) return make_error_frame(request.id, busy_error());
  waiter->wait();

  if (!result->value().ok()) {
    return make_error_frame(request.id, result->value().error());
  }
  return std::move(*result).value().take();
}

}  // namespace tdc::service
