#include "exp/thread_pool.h"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace tdc::exp {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_jobs();
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    core::MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    core::MutexLock lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    queue_.push_back(std::move(job));
    ++stats_.pushes;
    if (queue_.size() > stats_.max_depth) stats_.max_depth = queue_.size();
  }
  work_ready_.notify_one();
}

PoolStats ThreadPool::stats() const {
  core::MutexLock lock(mutex_);
  PoolStats copy = stats_;
  copy.depth = queue_.size();
  return copy;
}

void ThreadPool::wait() {
  core::MutexLock lock(mutex_);
  while (!queue_.empty() || in_flight_ != 0) all_done_.wait(lock);
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

unsigned ThreadPool::default_jobs() {
  if (const char* env = std::getenv("TDC_JOBS"); env != nullptr && *env != '\0') {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      core::MutexLock lock(mutex_);
      if (!stopping_ && queue_.empty()) {
        ++stats_.pop_blocked;
        const auto start = std::chrono::steady_clock::now();
        while (!stopping_ && queue_.empty()) work_ready_.wait(lock);
        stats_.pop_blocked_micros += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
      }
      if (queue_.empty()) return;  // stopping_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      ++stats_.pops;
      ++in_flight_;
    }
    try {
      // One span per work item: sweeps and the parallel CLI paths show up in
      // the trace as pool.task rows on their worker thread's track.
      obs::TraceSpan span("pool.task");
      job();
    } catch (...) {
      core::MutexLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      core::MutexLock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace tdc::exp
