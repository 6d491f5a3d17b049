#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bits/simd.h"
#include "harness.h"
#include "obs/json.h"

namespace tdcbench {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::SuiteClosed: return "suite_closed";
    case Workload::MixedOpen: return "mixed_open";
    case Workload::DecodeClosed: return "decode_closed";
    case Workload::BatchSuite: return "batch_suite";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::SuiteClosed, Workload::MixedOpen,
                     Workload::DecodeClosed, Workload::BatchSuite}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::Compress: return "compress";
    case Op::Decompress: return "decompress";
    case Op::Verify: return "verify";
    case Op::Stats: return "stats";
    case Op::Ping: return "ping";
  }
  return "?";
}

std::uint64_t fnv1a(std::string_view data, std::uint64_t hash) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double tail_quantile(std::size_t samples) {
  for (const double q : {0.99, 0.95, 0.90, 0.75}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate line: user nice system idle iowait irq softirq steal
  CpuTicks t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0 : 100.0 * double(to.steal - from.steal) / double(total);
}

double host_speed_ms() {
  // 64 KiB hashed 256 times: a block this small comes from the heap, where
  // a 16 MiB one would be mmapped, and freeing that raises glibc's mmap
  // threshold, which changes the daemon's peak RSS for the whole run.
  const std::string block(64u << 10, 'x');
  std::vector<double> ms;
  volatile std::uint64_t sink = 0;  // keeps the loop from being elided
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    for (int pass = 0; pass < 256; ++pass) sink = fnv1a(block, sink);
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }
  return median(ms);
}

double probe_cpu_ms() {
  static const std::string block(64u << 10, 'x');
  volatile std::uint64_t sink = 0;  // keeps the loop from being elided
  const double start = thread_cpu_s();
  for (int pass = 0; pass < 16; ++pass) sink = fnv1a(block, sink);
  return (thread_cpu_s() - start) * 1e3;
}

double probe_ms_between(const std::vector<ProbeSample>& probes, double from_s, double to_s) {
  std::vector<double> inside;
  const ProbeSample* nearest = nullptr;
  double nearest_gap = 0;
  for (const ProbeSample& p : probes) {
    if (p.at_s >= from_s && p.at_s <= to_s) inside.push_back(p.ms);
    const double gap = std::max(from_s - p.at_s, p.at_s - to_s);
    if (nearest == nullptr || gap < nearest_gap) {
      nearest = &p;
      nearest_gap = gap;
    }
  }
  if (!inside.empty()) return median(inside);
  return nearest == nullptr ? kProbeNominalMs : nearest->ms;
}

SpeedProbe::SpeedProbe(Clock::time_point t0) : t0_(t0) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      const double ms = probe_cpu_ms();
      samples_.push_back({seconds(Clock::now() - t0_), ms});
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(200), [this] { return stop_; });
    }
  });
  if (pthread_getcpuclockid(thread_.native_handle(), &clock_) != 0) {
    finish();
    throw std::runtime_error("no CPU clock for the speed probe thread");
  }
}

SpeedProbe::~SpeedProbe() { finish(); }

double SpeedProbe::cpu_s() const { return cpu_clock_s(clock_); }

std::vector<ProbeSample> SpeedProbe::finish() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  return samples_;
}

std::string host_json(const std::string& source_id) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  using tdc::obs::json_escape;
  return std::string("{\"cpus\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + json_escape(model) + "\", \"compiler\": \"" +
         json_escape(TDCBENCH_CXX_ID) + "\", \"cxx_flags\": \"" +
         json_escape(TDCBENCH_CXX_FLAGS) + "\", \"build_type\": \"" +
         TDCBENCH_BUILD_TYPE + "\", \"simd_built\": " +
         (TDCBENCH_SIMD_BUILT ? "true" : "false") + ", \"simd_kernel\": \"" +
         tdc::bits::simd::active_kernel() + "\", \"source\": \"" +
         json_escape(source_id) + "\"}";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

namespace {

/// Position just past `"name": ` in the stats JSON, or npos.
std::size_t field(const std::string& json, const std::string& name,
                  std::size_t from = 0) {
  const std::string needle = "\"" + name + "\": ";
  const std::size_t at = json.find(needle, from);
  return at == std::string::npos ? at : at + needle.size();
}

std::uint64_t number_at(const std::string& json, std::size_t at) {
  return at == std::string::npos ? 0 : std::strtoull(json.c_str() + at, nullptr, 10);
}

}  // namespace

std::uint64_t stats_counter(const std::string& json, const std::string& name) {
  return number_at(json, field(json, name));
}

HistSum stats_hist(const std::string& json, const std::string& name) {
  const std::size_t at = field(json, name);
  if (at == std::string::npos) return {};
  return HistSum{number_at(json, field(json, "count", at)),
                 number_at(json, field(json, "sum", at))};
}

std::int64_t stats_gauge_peak(const std::string& json, const std::string& name) {
  const std::size_t at = field(json, name);
  if (at == std::string::npos) return 0;
  return static_cast<std::int64_t>(number_at(json, field(json, "peak", at)));
}

}  // namespace tdcbench
