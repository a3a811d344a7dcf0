// Test-only gate that parks the RequestBatcher's worker inside one of its
// *_for_test hooks, so requests submitted meanwhile queue behind a busy
// worker and form the next batch together.

#ifndef WIDEN_TESTS_WORKER_GATE_H_
#define WIDEN_TESTS_WORKER_GATE_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace widen::testing {

class WorkerGate {
 public:
  /// The first call blocks until Open(); later calls return at once. Call it
  /// from a batcher hook.
  void HoldOnce() {
    std::unique_lock<std::mutex> lock(mu_);
    if (held_) return;
    held_ = true;
    cv_.notify_all();
    // Bounded so that a test that fails before Open() cannot leave the
    // worker parked and hang the batcher's Shutdown().
    cv_.wait_for(lock, std::chrono::seconds(60), [this] { return open_; });
  }

  /// Returns once a thread has entered HoldOnce().
  void AwaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_; });
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool open_ = false;
};

}  // namespace widen::testing

#endif  // WIDEN_TESTS_WORKER_GATE_H_
