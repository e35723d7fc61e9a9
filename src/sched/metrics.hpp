// Unified metrics registry + latency profiling hooks.
//
// Three layers, all cheap-by-default:
//
//  * sched::StatsSnapshot — the one shared-scheduler counter block every
//    backend used to hand-copy field by field. abt/qth/mth/glt Stats now
//    inherit it, so a snapshot is a single slice assignment. The counters
//    behind it stay cache-line-sharded per worker (WsCore::Counters); this
//    header only names the aggregated view.
//
//  * Latency histograms — per-task submit→start (queue delay) and
//    start→complete (service time), log2 octaves with 8 linear sub-buckets
//    (≤12.5% value error) and exact count/max. Armed by $GLTO_METRICS=1 or
//    implicitly whenever tracing is on; off, each hook is one relaxed load
//    and a predictable branch (the same contract as trace_emit).
//
//  * MetricsSnapshot / providers — named counters and gauges pulled from
//    every live subsystem (backend stats, dep engines, chaos, trace rings,
//    histograms) through registered provider callbacks, with delta-since-
//    baseline for bench rows and the watchdog dump.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace glto::sched {

/// Scheduler-behaviour counters common to every backend (steal counters
/// stay zero on one thread). Backend Stats structs inherit this so
/// glt::stats() copies the block once instead of field by field.
struct StatsSnapshot {
  std::uint64_t steals = 0;           ///< units taken from another worker
  std::uint64_t failed_steals = 0;    ///< empty / lost-race steal attempts
  std::uint64_t stack_cache_hits = 0; ///< ULT stacks served lock-free
  std::uint64_t parks = 0;            ///< idle parks (adaptive 200µs–2ms)
  std::uint64_t parked_us = 0;        ///< total requested park time, µs
  std::uint64_t wakes_issued = 0;     ///< targeted unparks sent to workers
  std::uint64_t wakes_spurious = 0;   ///< parks woken but found no work
  std::uint64_t bulk_deposits = 0;    ///< submit_bulk batches published

  /// Copy the core-owned fields from a WsCoreStats (template so this
  /// header stays independent of ws_core.hpp). stack_cache_hits is owned
  /// by the stack pool, not the core — callers fill it separately.
  template <typename CoreStats>
  void assign_core(const CoreStats& cs) {
    steals = cs.steals;
    failed_steals = cs.failed_steals;
    parks = cs.parks;
    parked_us = cs.parked_us;
    wakes_issued = cs.wakes_issued;
    wakes_spurious = cs.wakes_spurious;
    bulk_deposits = cs.bulk_deposits;
  }
};

/// Log2-octave histogram with 8 linear sub-buckets per octave.
/// record() is wait-free (two relaxed fetch_adds + a CAS-free max update
/// loop); percentile_ns() reports each bucket's upper bound, so estimates
/// are conservative within 12.5%. count()/max_ns() are exact.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 3;
  static constexpr unsigned kSub = 1u << kSubBits;          // 8
  static constexpr unsigned kMaxOctave = 47;                // ns < 2^48
  static constexpr unsigned kSlots = (kMaxOctave - 2) * kSub + kSub;  // 368

  void record(std::uint64_t ns) {
    slots_[slot_of(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (ns > cur &&
           !max_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_ns() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Value at percentile @p p in (0, 100]. p=100 returns the exact max.
  [[nodiscard]] std::uint64_t percentile_ns(double p) const;

  void reset();

 private:
  static unsigned slot_of(std::uint64_t ns) {
    if (ns < kSub) return static_cast<unsigned>(ns);
    unsigned o = 63u - static_cast<unsigned>(__builtin_clzll(ns));
    if (o > kMaxOctave) {
      o = kMaxOctave;
      ns = (std::uint64_t{1} << (kMaxOctave + 1)) - 1;
    }
    const unsigned sub =
        static_cast<unsigned>((ns >> (o - kSubBits)) & (kSub - 1));
    return (o - 2) * kSub + sub;
  }
  /// Upper bound of values mapping to @p slot (the reported estimate).
  static std::uint64_t slot_upper(unsigned slot);

  std::atomic<std::uint64_t> slots_[kSlots]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Global per-task latency instruments (all deferred tasks across every
/// runtime feed the same pair; recording is sharded only by bucket).
[[nodiscard]] LatencyHistogram& queue_delay_hist();
[[nodiscard]] LatencyHistogram& service_time_hist();

namespace lat_detail {
extern std::atomic<bool> g_lat_on;
std::uint64_t task_submit_slow(std::uint64_t id, bool deferred);
std::uint64_t task_start_slow(std::uint64_t submit_ns, std::uint64_t id);
void task_complete_slow(std::uint64_t start_ns, std::uint64_t id);
}  // namespace lat_detail

[[nodiscard]] inline bool profiling_enabled() {
  return lat_detail::g_lat_on.load(std::memory_order_relaxed);
}

/// Stamp a task at submission. Returns the submit timestamp to stash on the
/// task record, or 0 when profiling is off (the other hooks then no-op).
/// Also emits the task_submit trace event when tracing is armed.
inline std::uint64_t profile_task_submit(std::uint64_t id,
                                         bool deferred = true) {
  if (!profiling_enabled()) return 0;
  return lat_detail::task_submit_slow(id, deferred);
}

/// Record queue delay (submit→start) and return the start timestamp to
/// carry to profile_task_complete. Pass the value profile_task_submit
/// returned; 0 propagates as a no-op.
inline std::uint64_t profile_task_start(std::uint64_t submit_ns,
                                        std::uint64_t id) {
  if (submit_ns == 0) return 0;
  return lat_detail::task_start_slow(submit_ns, id);
}

/// Record service time (start→complete); emits the task slice trace event.
inline void profile_task_complete(std::uint64_t start_ns, std::uint64_t id) {
  if (start_ns == 0) return;
  lat_detail::task_complete_slow(start_ns, id);
}

/// A point-in-time view of every registered metric. Entries are either
/// counters (monotonic; deltas subtract) or gauges (reported as-is).
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    std::uint64_t value = 0;
    bool counter = true;
  };
  std::vector<Entry> entries;

  /// Merge-add: same-named counter entries accumulate (multiple dep
  /// engines report under one name).
  void add(std::string_view name, std::uint64_t v, bool counter = true);
  [[nodiscard]] std::uint64_t value(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;
};

/// Provider callback: append entries describing the subsystem's current
/// counters. Must not block; called with the registry lock held.
using MetricsProviderFn = void (*)(void* arg, MetricsSnapshot& out);

/// Register / unregister a provider (mirrors watchdog_register_dumper).
std::uint64_t metrics_register_provider(MetricsProviderFn fn, void* arg);
void metrics_unregister_provider(std::uint64_t token);

/// Snapshot all providers plus the built-in entries (latency percentiles,
/// trace ring totals, chaos fault count).
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Delta against the registry's internal baseline (updated on every call;
/// first call baselines at process start). Counter entries subtract —
/// clamped at 0 across runtime re-init — and gauges pass through.
[[nodiscard]] MetricsSnapshot metrics_delta();

/// Delta against a caller-owned baseline, which is updated to the current
/// snapshot. Lets benches keep private epochs without disturbing
/// metrics_delta() users.
[[nodiscard]] MetricsSnapshot metrics_delta_since(MetricsSnapshot& baseline);

/// Print "name value" lines for every entry; used by the watchdog stall
/// dump. Never blocks (try-lock; prints a notice if the registry is busy).
void metrics_dump(std::FILE* out);

/// Resolve $GLTO_METRICS (latency histograms on/off). Tracing being armed
/// also arms the histograms — the exporter wants the same timestamps.
/// Idempotent; called from glt::init and omp::select after trace init.
void metrics_init_from_env();

/// Test hook: force the latency gate (does not touch env resolution).
void metrics_set_for_testing(bool latency_on);

}  // namespace glto::sched
