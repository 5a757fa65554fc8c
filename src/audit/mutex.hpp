#pragma once

#include <mutex>

#include "audit/annotations.hpp"
#include "audit/lockdep.hpp"

namespace rtsm::audit {

/// Global acquisition order of every mutex in the tree: a thread may only
/// block on a lock whose rank is *strictly above* every lock it already
/// holds. The table linearises the nesting observed in the managers and
/// the fleet (outermost first); see docs/architecture.md "Correctness
/// tooling" for the per-edge justification.
enum class LockRank : int {
  // Fleet layer — outermost: fleet locks are held across manager calls.
  kFleetMaintenance = 10,  ///< FleetManager::maintenance_mutex_ (cv sleep).
  kFleetDefrag = 15,       ///< FleetManager::defrag_mutex_.
  kFleetRoute = 20,        ///< FleetManager::route_mutex_.
  kFleetStats = 25,        ///< FleetManager::stats_mutex_.

  // Manager layer. The lease lock ranks below the shape library: a lease
  // held by a mapper that does not book lasts through validate_and_commit,
  // whose learn-on-admit tail takes the library lock.
  kManagerPump = 30,     ///< ConcurrentRuntimeManager::pump_mutex_.
  kManagerLease = 35,    ///< ConcurrentRuntimeManager::Stripe::mutex.
  kShapeLibrary = 40,    ///< shapes::ShapeLibrary::mutex_.
  kManagerObserver = 45, ///< ConcurrentRuntimeManager::observer_mutex_.
  kManagerState = 50,    ///< ConcurrentRuntimeManager::state_mutex_.
  kPortfolioRace = 55,   ///< runtime::PortfolioRace::mutex_.

  // Mapper-shared caches — taken under state_mutex_ by the defrag /
  // preemption / mode-switch paths that run the mapper while holding the
  // live state.
  kVerifyEngine = 60,    ///< verify::Engine::mutex_.
  kExpansionCache = 65,  ///< verify::ExpansionCache::mutex_.
  kRouteCache = 70,      ///< noc::RouteCache::mutex_.

  // Manager leaf locks — only ever innermost.
  kManagerStats = 75,    ///< both managers' stats_mutex_.
  kManagerWaiting = 80,  ///< ConcurrentRuntimeManager::waiting_mutex_.
  kQueue = 85,           ///< runtime::BoundedQueue::mutex_.
  kManagerIdle = 90,     ///< ConcurrentRuntimeManager::idle_mutex_.
  kFleetIdle = 95,       ///< FleetManager::idle_mutex_.
};

/// std::mutex wrapper carrying a clang thread-safety capability, a static
/// lockdep rank and a class name. In release builds (RTSM_AUDIT off) every
/// audit hook compiles away and the wrapper is layout-identical to the
/// std::mutex it replaces (static_assert below).
class RTSM_CAPABILITY("mutex") Mutex {
 public:
#if RTSM_AUDIT
  explicit Mutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}
#else
  explicit Mutex(LockRank, const char*) {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RTSM_ACQUIRE() {
#if RTSM_AUDIT
    lockdep::before_lock(this);
#endif
    impl_.lock();
#if RTSM_AUDIT
    lockdep::after_lock(this, /*trylock=*/false);
#endif
  }

  void unlock() RTSM_RELEASE() {
#if RTSM_AUDIT
    lockdep::after_unlock(this);
#endif
    impl_.unlock();
  }

  [[nodiscard]] bool try_lock() RTSM_TRY_ACQUIRE(true) {
    const bool acquired = impl_.try_lock();
#if RTSM_AUDIT
    if (acquired) lockdep::after_lock(this, /*trylock=*/true);
#endif
    return acquired;
  }

#if RTSM_AUDIT
  [[nodiscard]] LockRank rank() const { return rank_; }
  [[nodiscard]] const char* name() const { return name_; }
#endif

 private:
  std::mutex impl_;
#if RTSM_AUDIT
  LockRank rank_;
  const char* name_;
#endif
};

#if !RTSM_AUDIT
// The zero-overhead contract: without RTSM_AUDIT the wrapper must be
// layout-identical to the std::mutex it replaces — no rank, no name, no
// vtable, nothing.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "audit::Mutex must add no state in release builds");
#endif

/// std::lock_guard equivalent over audit::Mutex, annotated as a scoped
/// capability so clang tracks the critical section.
class RTSM_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) RTSM_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

  ~LockGuard() RTSM_RELEASE() { mutex_.unlock(); }

 private:
  Mutex& mutex_;
};

/// std::unique_lock over audit::Mutex: movable critical section that
/// condition_variable_any can unlock/relock, with the audit hooks firing
/// on every transition (a parked waiter really does not hold the lock).
/// clang's analysis cannot model a lock whose ownership is a run-time
/// property, so functions using UniqueLock with waits are annotated
/// RTSM_NO_THREAD_SAFETY_ANALYSIS; the lockdep layer still audits them.
using UniqueLock = std::unique_lock<Mutex>;

}  // namespace rtsm::audit
