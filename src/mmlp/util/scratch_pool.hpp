// Checkout pool of per-worker scratch objects.
//
// The per-agent solve loops amortise expensive workspaces (ViewScratch,
// RestrictArena, simplex tableaus) by creating one per parallel chunk.
// A ScratchPool lifts that reuse across *calls*: workers lease an object
// for the duration of a chunk and return it on scope exit, so a
// long-lived engine::Session keeps the warmed buffers alive between
// solves instead of reallocating them per request. Scratch objects only
// donate capacity (never state), so which lease a worker happens to get
// cannot affect results.
//
// Concurrency: the fast path is a fixed array of atomic slots — acquire
// exchanges a slot pointer out, release exchanges it back in — so under
// 8-way chunk churn workers never serialize on a mutex (the old design
// took a global lock per lease, which showed up as contention in the
// ROADMAP item 3 scaling push). A mutex-guarded overflow vector catches
// the rare case of more concurrent leases than slots.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "mmlp/util/obs.hpp"

namespace mmlp {

template <typename T>
class ScratchPool {
 public:
  /// RAII lease: returns the object to the pool on destruction.
  class Lease {
   public:
    Lease(ScratchPool* pool, std::unique_ptr<T> object)
        : pool_(pool), object_(std::move(object)) {}
    ~Lease() {
      if (object_ != nullptr) {
        pool_->release(std::move(object_));
      }
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), object_(std::move(other.object_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    T& operator*() { return *object_; }
    T* operator->() { return object_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<T> object_;
  };

  ScratchPool() {
    for (auto& slot : slots_) {
      slot.store(nullptr, std::memory_order_relaxed);
    }
  }

  ~ScratchPool() {
    for (auto& slot : slots_) {
      delete slot.exchange(nullptr, std::memory_order_acquire);
    }
  }

  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// Check out a scratch object (an idle one when available, otherwise a
  /// freshly constructed one). Safe to call from any worker thread;
  /// lock-free whenever an idle slot is populated.
  Lease acquire() {
    static obs::Counter& lease_counter =
        obs::Registry::global().counter("scratch.leases");
    lease_counter.increment();
    for (auto& slot : slots_) {
      if (slot.load(std::memory_order_relaxed) != nullptr) {
        T* object = slot.exchange(nullptr, std::memory_order_acquire);
        if (object != nullptr) {
          reuses_.fetch_add(1, std::memory_order_relaxed);
          return Lease(this, std::unique_ptr<T>(object));
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      if (!overflow_.empty()) {
        std::unique_ptr<T> object = std::move(overflow_.back());
        overflow_.pop_back();
        reuses_.fetch_add(1, std::memory_order_relaxed);
        return Lease(this, std::move(object));
      }
    }
    creations_.fetch_add(1, std::memory_order_relaxed);
    // Construction happens outside any lock; T may allocate heavily.
    return Lease(this, std::make_unique<T>());
  }

  /// Diagnostics: how many leases were served by construction vs reuse.
  std::size_t creations() const {
    return creations_.load(std::memory_order_relaxed);
  }
  std::size_t reuses() const {
    return reuses_.load(std::memory_order_relaxed);
  }

 private:
  // Enough slots that every worker of an 8–16-way pool parks its object
  // without touching the overflow lock; scratch objects are heavy, so
  // the array stays small rather than per-thread unbounded.
  static constexpr std::size_t kSlots = 32;

  void release(std::unique_ptr<T> object) {
    T* raw = object.release();
    for (auto& slot : slots_) {
      if (slot.load(std::memory_order_relaxed) == nullptr) {
        T* expected = nullptr;
        if (slot.compare_exchange_strong(expected, raw,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
          return;
        }
      }
    }
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    overflow_.emplace_back(raw);
  }

  std::atomic<T*> slots_[kSlots];
  std::mutex overflow_mutex_;
  std::vector<std::unique_ptr<T>> overflow_;
  std::atomic<std::size_t> creations_{0};
  std::atomic<std::size_t> reuses_{0};
};

}  // namespace mmlp
