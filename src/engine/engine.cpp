#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>

#include "core/file_io.h"
#include "exp/flow.h"
#include "exp/table.h"
#include "lzw/stream_io.h"
#include "obs/trace.h"
#include "scan/testset_io.h"

namespace tdc::engine {

namespace {

/// One running job: the spec plus whatever earlier stages produced. Lives
/// only for the job body; the outcome and container leave it at the end.
struct Job {
  const JobSpec* spec = nullptr;
  bits::TritVector stream;        // load
  lzw::EncodeResult encoded;      // encode, legacy whole-buffer LZW
  codec::EncodedChunks chunks;    // encode, codec= per-chunk selection
  std::string container;          // containerize
  JobOutcome outcome;
  bool failed = false;

  bool multi_codec() const { return !spec->codec.empty(); }
};

/// Pre-resolved per-stage instruments, so workers never touch the
/// registry's name map on the hot path. bits_in/bits_out are only wired for
/// the encode stage.
struct StageMetrics {
  Counter* in;
  Counter* ok;
  Counter* fail;
  Counter* skip;
  Histogram* micros;
  Counter* bits_in = nullptr;
  Counter* bits_out = nullptr;
};

StageMetrics make_stage_metrics(MetricsRegistry& m, const std::string& stage) {
  return StageMetrics{&m.counter(stage + ".in"), &m.counter(stage + ".ok"),
                      &m.counter(stage + ".fail"), &m.counter(stage + ".skip"),
                      &m.histogram(stage + ".micros")};
}

std::uint64_t micros_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

Error typed_error(ErrorKind kind, std::string message) {
  Error e;
  e.kind = kind;
  e.message = std::move(message);
  return e;
}

/// Runs a stage body with exception → typed-Error mapping: TdcErrorBase
/// keeps its typed error, std::invalid_argument means a configuration /
/// semantic problem, anything else an I/O-level failure.
template <typename Fn>
Status guarded(Fn&& fn) {
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

/// Seeds the outcome's identity fields from the spec, so reports describe
/// jobs identically whichever front end ran them.
void init_outcome(Job& job) {
  const JobSpec& spec = *job.spec;
  job.outcome.name = spec.name;
  job.outcome.config_summary =
      spec.config.describe() + (spec.config.variable_width ? " var" : "") +
      " " + tiebreak_name(spec.tiebreak) + "/" + xassign_name(spec.xassign);
  if (!spec.codec.empty()) {
    job.outcome.config_summary += " codec=" + spec.codec;
  }
  job.outcome.container_version = spec.codec.empty() ? spec.container.version : 3;
}

/// gen= inputs shared by several jobs are prepared exactly once; later
/// jobs block on the shared future (a failed prepare fails each of them).
struct GenMemo {
  core::Mutex mutex;
  std::map<std::string, std::shared_future<std::shared_ptr<const bits::TritVector>>>
      memo TDC_GUARDED_BY(mutex);
};

Status stage_load(GenMemo& gen, Job& job) {
  const JobSpec& spec = *job.spec;
  if (spec.inline_tests) {
    job.stream = spec.inline_tests->serialize();
    return {};
  }
  if (!spec.input_path.empty()) {
    job.stream = scan::read_tests_file(spec.input_path).serialize();
    return {};
  }
  // gen= source: memoized exp::prepare so concurrent jobs over the same
  // circuit never race on the ATPG disk cache.
  using StreamPtr = std::shared_ptr<const bits::TritVector>;
  std::shared_future<StreamPtr> future;
  std::promise<StreamPtr> promise;
  bool creator = false;
  {
    core::MutexLock lock(gen.mutex);
    auto it = gen.memo.find(spec.gen_circuit);
    if (it == gen.memo.end()) {
      future = promise.get_future().share();
      gen.memo.emplace(spec.gen_circuit, future);
      creator = true;
    } else {
      future = it->second;
    }
  }
  if (creator) {
    try {
      promise.set_value(std::make_shared<const bits::TritVector>(
          exp::prepare(spec.gen_circuit).tests.serialize()));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  job.stream = *future.get();
  return {};
}

Status stage_encode(Job& job, MetricsRegistry& metrics) {
  const JobSpec& spec = *job.spec;
  if (job.multi_codec()) {
    // Per-chunk codec selection. The reported compressed_bits stay in the
    // paper's accounting (tester stream only), the same metric the legacy
    // path reports, so mixed-codec and pure-LZW rows compare directly.
    Result<codec::SelectOptions> mode = codec::parse_codec_mode(spec.codec);
    if (!mode.ok()) return mode.error();
    codec::SelectOptions options = std::move(mode).take();
    options.lzw = spec.config;
    options.tiebreak = spec.tiebreak;
    if (spec.chunk_trits != 0) options.chunk_trits = spec.chunk_trits;
    Result<codec::EncodedChunks> chunks =
        codec::encode_chunks(job.stream, options, &metrics);
    if (!chunks.ok()) return chunks.error();
    job.chunks = std::move(chunks).take();
    job.outcome.original_bits = job.chunks.original_bits;
    job.outcome.compressed_bits = job.chunks.stats_bits;
    job.outcome.ratio_percent = codec::ratio_percent(job.chunks.original_bits,
                                                     job.chunks.stats_bits);
    job.outcome.choices = std::move(job.chunks.choices);
    return {};
  }
  const lzw::Encoder encoder(spec.config, spec.tiebreak);
  job.encoded = encoder.encode(job.stream, spec.xassign, spec.rng_seed);
  job.outcome.original_bits = job.encoded.original_bits;
  job.outcome.compressed_bits = job.encoded.compressed_bits();
  job.outcome.ratio_percent = job.encoded.ratio_percent();
  job.outcome.telemetry = std::move(job.encoded.telemetry);
  return {};
}

Status stage_container(Job& job) {
  const JobSpec& spec = *job.spec;
  if (job.multi_codec()) {
    const std::uint32_t chunk_trits =
        spec.chunk_trits != 0 ? spec.chunk_trits : codec::kDefaultChunkTrits;
    job.container = lzw::image_v3_bytes(spec.config, job.chunks.original_bits,
                                        chunk_trits, job.chunks.records);
  } else {
    job.container = lzw::image_bytes(job.encoded, spec.container);
  }
  job.outcome.container_bytes = job.container.size();
  return {};
}

Status stage_verify(Job& job) {
  // End-to-end check of what was actually containerized: read the bytes
  // back, decode, and prove the expansion is fully specified and covers
  // every care bit of the input — the invariant the whole repository is
  // built around.
  Result<lzw::CompressedImage> image = lzw::try_read_image(job.container);
  if (!image.ok()) return image.error();
  // codec::decode_image routes v1/v2 through the LZW image decoder and v3
  // through the codec registry, so one verify covers both container paths.
  Result<bits::TritVector> decoded = codec::decode_image(image.value());
  if (!decoded.ok()) return decoded.error();
  if (decoded.value().size() != job.stream.size()) {
    return typed_error(ErrorKind::StreamTooShort,
                       "decoded stream length mismatch");
  }
  if (!decoded.value().fully_specified()) {
    return typed_error(ErrorKind::ConfigMismatch,
                       "decoded stream still holds don't-care bits");
  }
  if (!job.stream.covered_by(decoded.value())) {
    return typed_error(ErrorKind::ConfigMismatch,
                       "decoded stream does not cover the input care bits");
  }
  return {};
}

/// The one job body both front ends run on a pool worker: load → encode →
/// containerize → verify, each stage counted and timed straight into the
/// shared instruments. Owns the gen= memo, so a batch run (or a JobRunner,
/// for its lifetime) prepares each circuit once.
class JobBody {
 public:
  explicit JobBody(MetricsRegistry& m)
      : metrics_(m), load_(make_stage_metrics(m, "load")),
        encode_(make_stage_metrics(m, "encode")),
        container_(make_stage_metrics(m, "container")),
        verify_(make_stage_metrics(m, "verify")) {
    encode_.bits_in = &m.counter("encode.bits_in");
    encode_.bits_out = &m.counter("encode.bits_out");
  }

  /// Runs `spec` to completion and returns its outcome, container bytes
  /// included. A `cancelled` job still passes every stage, counted as a
  /// skip, so stage counters account for the whole batch.
  JobOutcome run(const JobSpec& spec, bool verify, bool cancelled) {
    Job job;
    job.spec = &spec;
    init_outcome(job);
    job.outcome.cancelled = cancelled;
    stage(load_, "engine.load", job, [this](Job& j) { return stage_load(gen_, j); });
    stage(encode_, "engine.encode", job, [this](Job& j) {
      const Status status = stage_encode(j, metrics_);
      if (status.ok()) {
        encode_.bits_in->add(j.outcome.original_bits);
        encode_.bits_out->add(j.outcome.compressed_bits);
      }
      return status;
    });
    stage(container_, "engine.container", job,
          [](Job& j) { return stage_container(j); });
    if (verify) {
      stage(verify_, "engine.verify", job, [](Job& j) { return stage_verify(j); });
    }
    job.outcome.container = std::move(job.container);
    return std::move(job.outcome);
  }

 private:
  template <typename Body>
  static void stage(const StageMetrics& sm, const char* span_name, Job& job,
                    Body&& body) {
    sm.in->add();
    if (job.failed || job.outcome.cancelled) {
      sm.skip->add();
      return;
    }
    Status status;
    {
      obs::TraceSpan span(span_name);
      span.arg("job", job.outcome.name);
      if (!job.spec->trace.empty()) span.arg("trace", job.spec->trace);
      const auto start = std::chrono::steady_clock::now();
      status = guarded([&] { return body(job); });
      sm.micros->record(micros_since(start));
    }
    if (status.ok()) {
      sm.ok->add();
      return;
    }
    job.failed = true;
    job.outcome.status = status;
    sm.fail->add();
  }

  MetricsRegistry& metrics_;
  StageMetrics load_, encode_, container_, verify_;
  GenMemo gen_;
};

/// What the committing thread and the pool workers share during one
/// Engine::run.
struct BatchState {
  explicit BatchState(std::size_t jobs) : finished(jobs, 0) {}

  core::Mutex mutex;
  core::CondVar job_done;  ///< a worker finished a job; only the committer waits
  std::size_t running TDC_GUARDED_BY(mutex) = 0;  ///< admitted, not finished
  std::vector<char> finished TDC_GUARDED_BY(mutex);  ///< per job: slot filled
  bool cancelled TDC_GUARDED_BY(mutex) = false;      ///< fail-fast tripped
};

}  // namespace

// ---------------------------------------------------------------- BatchResult

std::size_t BatchResult::ok_count() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.ok() ? 1 : 0;
  return n;
}

std::size_t BatchResult::failed_count() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += (!j.status.ok() && !j.cancelled) ? 1 : 0;
  return n;
}

std::size_t BatchResult::cancelled_count() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.cancelled ? 1 : 0;
  return n;
}

std::string BatchResult::report() const {
  exp::Table table({"Job", "Config", "Cont", "Orig", "Comp", "Ratio", "Status"});
  for (const JobOutcome& j : jobs) {
    std::string status = "ok";
    if (j.cancelled) {
      status = "cancelled";
    } else if (!j.status.ok()) {
      status = std::string("FAILED ") + to_string(j.status.error().kind);
    }
    // Appending, not `"v" + std::to_string(...)`: gcc 12 reports a bogus
    // -Wrestrict overlap in the inlined string insert that form expands to.
    std::string version = "v";
    version += std::to_string(j.container_version);
    table.add_row({j.name, j.config_summary, version,
                   j.ok() ? exp::num(j.original_bits) : "-",
                   j.ok() ? exp::num(j.compressed_bits) : "-",
                   j.ok() ? exp::pct(j.ratio_percent) : "-", status});
  }
  return table.render();
}

// --------------------------------------------------------------------- Engine

Engine::Engine(EngineOptions options, MetricsRegistry* metrics)
    : options_(std::move(options)) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = metrics;
  }
}

Engine::~Engine() = default;

BatchResult Engine::run(const Manifest& manifest, const CommitCallback& on_commit) {
  const unsigned workers =
      options_.workers != 0 ? options_.workers : exp::ThreadPool::default_jobs();
  // Admission bound: one job running on every worker plus one queued behind
  // each, so a worker never idles between jobs while memory stays bounded.
  // It counts running jobs, not uncommitted ones: a finished job waiting in
  // its slot for an earlier, slower job holds only its container.
  const std::size_t limit = 2 * static_cast<std::size_t>(workers);
  const std::size_t total = manifest.jobs.size();

  obs::TraceSpan run_span("engine.run");
  run_span.arg("jobs", static_cast<std::uint64_t>(total));
  run_span.arg("workers", static_cast<std::uint64_t>(workers));

  MetricsRegistry& m = *metrics_;
  JobBody body(m);
  const StageMetrics commit_m = make_stage_metrics(m, "commit");
  Counter& bytes_written = m.counter("commit.bytes_written");
  obs::Gauge& in_flight = m.gauge("engine.in_flight");
  m.counter("engine.jobs").add(total);
  m.counter("engine.runs").add();

  const bool fail_fast = options_.fail_fast;
  const bool verify = options_.verify;

  BatchResult result;
  result.jobs.resize(total);
  BatchState batch(total);

  // Commits one finished job on this thread: output-file write, callback.
  const auto commit = [&](std::size_t index) {
    JobOutcome& job = result.jobs[index];
    job.output_path =
        resolve_path(options_.output_dir, manifest.jobs[index].output_path);
    commit_m.in->add();
    if (!job.status.ok() || job.cancelled) {
      commit_m.skip->add();
    } else if (!job.output_path.empty()) {
      Status status;
      {
        obs::TraceSpan span("engine.commit");
        span.arg("job", job.name);
        const auto start = std::chrono::steady_clock::now();
        status = guarded([&]() -> Status {
          const std::filesystem::path target(job.output_path);
          if (target.has_parent_path()) {
            std::filesystem::create_directories(target.parent_path());
          }
          return core::write_whole(job.output_path, job.container);
        });
        commit_m.micros->record(micros_since(start));
      }
      if (status.ok()) {
        bytes_written.add(job.container.size());
        job.container.clear();  // on disk now; don't hold the bytes twice
        commit_m.ok->add();
      } else {
        job.status = status;
        commit_m.fail->add();
        if (fail_fast) {
          core::MutexLock lock(batch.mutex);
          batch.cancelled = true;
        }
      }
    } else {
      commit_m.ok->add();
    }
    if (on_commit) on_commit(job);
  };

  // Runs one job on a pool worker and parks its outcome in its slot.
  const auto run_job = [&](std::size_t index) {
    bool cancelled = false;
    {
      core::MutexLock lock(batch.mutex);
      cancelled = batch.cancelled;
    }
    JobOutcome outcome = body.run(manifest.jobs[index], verify, cancelled);
    const bool failed = !outcome.status.ok();
    {
      core::MutexLock lock(batch.mutex);
      result.jobs[index] = std::move(outcome);
      batch.finished[index] = 1;
      --batch.running;
      in_flight.add(-1);
      if (failed && fail_fast) batch.cancelled = true;
    }
    batch.job_done.notify_one();
  };

  const auto started = std::chrono::steady_clock::now();
  {
    // Scoped inside the lifetime of `batch` and `result`: the destructor
    // joins the workers before anything they touch goes away.
    exp::ThreadPool pool(workers);
    std::size_t next_submit = 0;
    std::size_t next_commit = 0;
    while (next_commit < total) {
      std::size_t admit = 0;
      std::size_t ready = 0;
      {
        core::MutexLock lock(batch.mutex);
        for (;;) {
          while (next_commit + ready < total && batch.finished[next_commit + ready]) {
            ++ready;
          }
          admit = std::min(limit - batch.running, total - next_submit);
          if (ready != 0 || admit != 0) break;
          batch.job_done.wait(lock);
        }
        batch.running += admit;
        in_flight.add(static_cast<std::int64_t>(admit));
      }
      // Submit and commit outside the lock: workers finishing meanwhile
      // only fill later slots.
      for (; admit != 0; --admit, ++next_submit) {
        pool.submit([&run_job, index = next_submit] { run_job(index); });
      }
      for (; ready != 0; --ready, ++next_commit) commit(next_commit);
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  m.counter("engine.ok").add(result.ok_count());
  m.counter("engine.failed").add(result.failed_count());
  m.counter("engine.cancelled").add(result.cancelled_count());
  return result;
}

// ------------------------------------------------------------------ JobRunner

/// Pre-resolved runner instruments plus the shared job body.
struct JobRunner::RunnerState {
  explicit RunnerState(MetricsRegistry& m)
      : body(m), jobs(&m.counter("runner.jobs")), tasks(&m.counter("runner.tasks")),
        ok(&m.counter("runner.ok")), failed(&m.counter("runner.failed")),
        busy_rejects(&m.counter("runner.busy_rejects")),
        in_flight(&m.gauge("runner.in_flight")) {}

  JobBody body;
  Counter* jobs;
  Counter* tasks;
  Counter* ok;
  Counter* failed;
  Counter* busy_rejects;
  obs::Gauge* in_flight;  ///< live queued+running level; peak = worst burst
};

JobRunner::JobRunner(Options options, MetricsRegistry* metrics)
    : options_(options), pool_(options.workers) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = metrics;
  }
  options_.workers = pool_.thread_count();
  if (options_.max_in_flight == 0) {
    options_.max_in_flight = 2 * static_cast<std::size_t>(options_.workers);
  }
  state_ = std::make_unique<RunnerState>(*metrics_);
}

JobRunner::~JobRunner() { stop(); }

bool JobRunner::admit() {
  {
    core::MutexLock lock(mutex_);
    if (stopping_ || in_flight_ >= options_.max_in_flight) {
      state_->busy_rejects->add();
      return false;
    }
    ++in_flight_;
  }
  state_->in_flight->add(1);
  return true;
}

void JobRunner::finish() {
  {
    core::MutexLock lock(mutex_);
    --in_flight_;
  }
  state_->in_flight->add(-1);
  idle_.notify_all();
}

bool JobRunner::submit(JobSpec spec, DoneCallback done) {
  if (!admit()) return false;
  pool_.submit([this, spec = std::move(spec), done = std::move(done)] {
    state_->jobs->add();
    JobOutcome outcome = state_->body.run(spec, options_.verify, false);
    (outcome.status.ok() ? state_->ok : state_->failed)->add();
    if (done) done(std::move(outcome));
    finish();
  });
  return true;
}

bool JobRunner::submit_task(std::function<void()> task) {
  if (!admit()) return false;
  pool_.submit([this, task = std::move(task)] {
    state_->tasks->add();
    {
      obs::TraceSpan span("runner.task");
      task();
    }
    finish();
  });
  return true;
}

std::size_t JobRunner::in_flight() const {
  core::MutexLock lock(mutex_);
  return in_flight_;
}

void JobRunner::drain() {
  core::MutexLock lock(mutex_);
  while (in_flight_ != 0) idle_.wait(lock);
}

void JobRunner::publish_queue_stats() {
  core::MutexLock lock(publish_mutex_);
  const exp::PoolStats now = pool_.stats();
  const std::string prefix = "queue.service.";
  MetricsRegistry& m = *metrics_;
  m.counter(prefix + "pushes").add(now.pushes - published_.pushes);
  m.counter(prefix + "pops").add(now.pops - published_.pops);
  m.counter(prefix + "pop_blocked").add(now.pop_blocked - published_.pop_blocked);
  m.counter(prefix + "pop_blocked_micros")
      .add(now.pop_blocked_micros - published_.pop_blocked_micros);
  // Occupancy is a level, not an event stream: the gauge is set to the
  // depth this snapshot saw (0 once drained) while the queue's lifetime max
  // folds into the gauge's high-watermark.
  obs::Gauge& depth = m.gauge(prefix + "depth");
  depth.set(static_cast<std::int64_t>(now.depth));
  depth.record_peak(static_cast<std::int64_t>(now.max_depth));
  published_ = now;
}

void JobRunner::stop() {
  {
    core::MutexLock lock(mutex_);
    stopping_ = true;
  }
  // Every admitted job has reached the pool once in_flight_ drains, so the
  // shutdown below can never race a submit.
  drain();
  pool_.shutdown();
}

}  // namespace tdc::engine
