#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace causaltad {
namespace util {
namespace {

thread_local bool in_parallel_worker = false;

std::atomic<int> thread_override{0};

int HardwareDefault() {
  if (const char* env = std::getenv("CAUSALTAD_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Lazily-started persistent pool. Workers live for the process; the
/// static destructor joins them so exit is clean. The worker set grows on
/// demand toward the current ParallelThreads() knob (it never shrinks —
/// parked workers are cheap; a lowered knob just leaves them idle because
/// ParallelFor caps the shard count at the knob).
class Pool {
 public:
  static Pool& Instance() {
    static Pool pool;
    return pool;
  }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Spawns workers until at least `target` exist. ParallelFor calls this
  /// with the knob in force at call time, so SetParallelThreads /
  /// CAUSALTAD_THREADS changes after the pool's first use still take
  /// effect (the count is not frozen at first ParallelFor).
  void EnsureWorkers(int target) {
    if (target <= size()) return;
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < target) {
      workers_.emplace_back([this] {
        in_parallel_worker = true;
        for (;;) {
          std::function<void()> task;
          {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty()) return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
          }
          task();
        }
      });
    }
    size_.store(static_cast<int>(workers_.size()),
                std::memory_order_release);
  }

  int size() const { return size_.load(std::memory_order_acquire); }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

 private:
  Pool() = default;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::atomic<int> size_{0};
};

}  // namespace

namespace {

bool BucketingDefault() {
  const char* env = std::getenv("CAUSALTAD_NO_LENGTH_BUCKET");
  return env == nullptr || std::string_view(env) != "1";
}

std::atomic<bool> length_bucketing{BucketingDefault()};

}  // namespace

bool LengthBucketingEnabled() {
  return length_bucketing.load(std::memory_order_relaxed);
}

void SetLengthBucketing(bool enabled) {
  length_bucketing.store(enabled, std::memory_order_relaxed);
}

std::vector<std::vector<int64_t>> RowShards(std::span<const int64_t> costs,
                                            int64_t min_rows_per_shard) {
  const int64_t n = static_cast<int64_t>(costs.size());
  std::vector<std::vector<int64_t>> shards;
  if (n == 0) return shards;
  const int64_t max_shards = std::min<int64_t>(
      ParallelThreads(),
      min_rows_per_shard > 0 ? n / min_rows_per_shard : n);
  if (max_shards <= 1 || !LengthBucketingEnabled()) {
    const int64_t count = std::max<int64_t>(1, max_shards);
    shards.reserve(count);
    const int64_t base = n / count, extra = n % count;
    int64_t begin = 0;
    for (int64_t s = 0; s < count; ++s) {
      const int64_t end = begin + base + (s < extra ? 1 : 0);
      std::vector<int64_t> rows(end - begin);
      for (int64_t i = begin; i < end; ++i) rows[i - begin] = i;
      shards.push_back(std::move(rows));
      begin = end;
    }
    return shards;
  }

  std::vector<int64_t> order(n);
  for (int64_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&costs](int64_t a, int64_t b) {
    return costs[a] > costs[b];
  });
  int64_t total = 0;
  for (const int64_t c : costs) total += std::max<int64_t>(c, 1);
  const int64_t target = (total + max_shards - 1) / max_shards;
  std::vector<int64_t> current;
  int64_t current_cost = 0;
  for (const int64_t row : order) {
    current.push_back(row);
    current_cost += std::max<int64_t>(costs[row], 1);
    if (current_cost >= target &&
        static_cast<int64_t>(shards.size()) + 1 < max_shards) {
      shards.push_back(std::move(current));
      current.clear();
      current_cost = 0;
    }
  }
  if (!current.empty()) shards.push_back(std::move(current));
  return shards;
}

int ParallelThreads() {
  const int forced = thread_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const int hardware = HardwareDefault();
  return hardware;
}

void SetParallelThreads(int threads) {
  thread_override.store(threads > 0 ? threads : 0,
                        std::memory_order_relaxed);
}

void ParallelFor(int64_t n, int threads,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  if (threads <= 0) threads = ParallelThreads();
  const int64_t shards = std::min<int64_t>(threads, n);
  if (shards <= 1 || in_parallel_worker) {
    fn(0, n);
    return;
  }

  Pool& pool = Pool::Instance();
  pool.EnsureWorkers(static_cast<int>(shards) - 1);
  // One shard runs inline, so a pool of size P serves P+1 shards.
  const int64_t usable = std::min<int64_t>(shards, pool.size() + 1);
  if (usable <= 1) {
    fn(0, n);
    return;
  }

  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    int64_t remaining = 0;
  } join;
  join.remaining = usable - 1;

  const int64_t base = n / usable, extra = n % usable;
  int64_t begin = 0;
  // Shard 0 is saved for the calling thread.
  const int64_t first_end = base + (extra > 0 ? 1 : 0);
  int64_t prev_end = first_end;
  for (int64_t s = 1; s < usable; ++s) {
    begin = prev_end;
    const int64_t end = begin + base + (s < extra ? 1 : 0);
    prev_end = end;
    pool.Submit([&fn, &join, begin, end] {
      fn(begin, end);
      // Notify while holding the mutex: after the last decrement the
      // caller destroys the stack-allocated join as soon as it re-acquires
      // mu, so an unlocked notify could land on a dead condition_variable.
      std::lock_guard<std::mutex> lock(join.mu);
      --join.remaining;
      join.cv.notify_one();
    });
  }
  // The calling thread is a worker for the length of its shard: a nested
  // ParallelFor from it must run inline, not queue behind the pool it just
  // filled with this call's other shards.
  in_parallel_worker = true;
  fn(0, first_end);
  in_parallel_worker = false;
  std::unique_lock<std::mutex> lock(join.mu);
  join.cv.wait(lock, [&join] { return join.remaining == 0; });
}

}  // namespace util
}  // namespace causaltad
