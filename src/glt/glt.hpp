// glt — Generic Lightweight Threads: one programming model over the three
// LWT backends (abt, qth, mth), mirroring the GLT API of Castelló et al.
//
// The PM (paper §III-B, Fig. 1):
//  * GLT_thread  — an OS thread bound to a core; fixed set created at init.
//  * GLT_ult     — user-level thread; create/join/yield; may carry any work.
//  * GLT_tasklet — stackless work unit; native on abt, emulated over ULTs
//                  on qth and mth (exactly as in the original GLT).
//  * GLT_scheduler — backend-specific; selecting a backend changes
//                  performance, never results.
//
// A program written against this header runs unmodified over Argobots-,
// Qthreads-, or MassiveThreads-style scheduling; the backend is chosen at
// init() (programmatically or via $GLT_IMPL). All three backends dispatch
// through the shared work-stealing core (src/sched), so $GLT_SHARED_QUEUES
// (collapse the per-thread pools into one shared queue, neutralizing load
// imbalance per §IV-F) is honoured uniformly.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "sched/metrics.hpp"
#include "sched/sync.hpp"

namespace glto::glt {

enum class Impl : std::uint8_t { abt, qth, mth };

[[nodiscard]] const char* impl_name(Impl impl);
[[nodiscard]] std::optional<Impl> impl_from_string(std::string_view name);

struct Config {
  Impl impl = Impl::abt;
  int num_threads = 0;        ///< GLT_threads; 0 → $GLT_NUM_THREADS or cores
  bool shared_queues = false; ///< $GLT_SHARED_QUEUES (all backends)
  bool bind_threads = true;
  bool pin_main = false;      ///< mth: never migrate main (GLTO §IV-G fix)
};

/// Reads Config from $GLT_IMPL, $GLT_NUM_THREADS, $GLT_SHARED_QUEUES.
[[nodiscard]] Config config_from_env();

void init(const Config& cfg = config_from_env());
void finalize();
[[nodiscard]] bool initialized();
[[nodiscard]] Impl current_impl();

[[nodiscard]] int num_threads();

/// Rank of the GLT_thread executing the caller. Under the mth and abt
/// backends this can change across suspension points (stealing).
[[nodiscard]] int thread_num();

struct Ult;
struct Tasklet;

using WorkFn = void (*)(void*);

/// Creates a ULT scheduled by the caller's GLT_thread (backend-dependent
/// placement; mth runs it immediately, work-first).
Ult* ult_create(WorkFn fn, void* arg);

/// Creates a ULT destined for GLT_thread @p tid. Placement is exact on
/// abt (the unit is pinned, never stolen) and qth; advisory on mth (the
/// thief decides).
Ult* ult_create_to(int tid, WorkFn fn, void* arg);

/// Creates @p n ULTs running fn(args[i]) through the backend's bulk-spawn
/// path: the whole batch is deposited into the scheduling core in one
/// call (one queue publication per victim GLT_thread, one targeted wake
/// per victim) instead of n create+wake round-trips. @p spread fans the
/// batch across GLT_threads — the single-producer fan-out pattern the
/// round-robin ult_create_to loop used to pay per-unit wakes for;
/// otherwise the batch stays with the caller and idle GLT_threads steal
/// it. On mth the units are *queued* (help-first) rather than run
/// work-first, and spread is advisory as always. Handles are written to
/// @p out[0..n).
void ult_create_bulk(WorkFn fn, void* const* args, int n, Ult** out,
                     bool spread);

/// Waits for the ULT and destroys it.
void ult_join(Ult* u);

/// Non-destructive completion poll: true once the ULT has finished
/// executing (ult_join must still be called to reclaim it). Maps to
/// abt::is_done / the qth return-word FEB / mth::is_done — the
/// per-handle probe for completion-order joins (conformance tests in
/// tests/test_glt.cpp; abl_glt_dispatch's burst-co cell uses the
/// aggregate counter form of the same idea).
[[nodiscard]] bool ult_is_done(Ult* u);

Tasklet* tasklet_create(WorkFn fn, void* arg);
Tasklet* tasklet_create_to(int tid, WorkFn fn, void* arg);
void tasklet_join(Tasklet* t);

/// Cooperative yield to the underlying scheduler.
void yield();

/// Racy probe: could the calling GLT_thread's scheduler run anything else
/// right now (own pool, main slot, steal victim)? Busy-wait loops pair it
/// with yield(): yield while work exists, release the core when it does
/// not — a spinning waiter on an oversubscribed host otherwise starves
/// the very producer it waits for.
[[nodiscard]] bool maybe_work();

/// Backend capability: is *placement advisory* — i.e. can a unit created
/// with ult_create_to still migrate? True only for mth — this is what
/// decides the paper's Table I omp_task_untied / omp_taskyield outcomes.
/// (abt and qth steal unpinned ult_create units internally for load
/// balance, but honour ult_create_to exactly, so they report false.)
[[nodiscard]] bool supports_stealing();

/// Backend capability: stackless tasklets without ULT emulation (abt).
[[nodiscard]] bool supports_native_tasklets();

/// Per-work-unit user pointer ("ULT-local storage"): follows the current
/// ULT across yields, blocking joins, and (mth) steals. GLTO hangs its
/// per-task OpenMP execution context here.
[[nodiscard]] void* self_local();
void set_self_local(void* p);

/// Scheduler behaviour (Table III-style runs) lives in the shared
/// sched::StatsSnapshot base: every backend runs the same sched::WsCore,
/// so all base counters are populated for abt, qth, and mth alike (steals
/// stay zero on one thread), and glt::stats() copies the
/// whole block with one slice assignment instead of field by field.
struct Stats : sched::StatsSnapshot {
  std::uint64_t ults_created = 0;     ///< Table II "Created GLT_ults"
  std::uint64_t tasklets_created = 0;
};

[[nodiscard]] Stats stats();

// ---- GLT synchronization conformance layer -------------------------------
//
// The GLT spec's blocking objects (glt_mutex_*, glt_cond_*, glt_barrier_*)
// map onto the shared sched:: primitives — one implementation under every
// backend, waiters truly suspended. Exposed here under GLT-style names so
// raw-backend code (no omp:: facade) writes to the spec's vocabulary;
// glt::init registers the active backend's SuspendOps, which is what makes
// these block natively instead of micro-sleeping.
using mutex = sched::Mutex;         ///< glt_mutex: FIFO-handoff ULT mutex
using cond = sched::Condvar;        ///< glt_cond: condition variable
using barrier = sched::Barrier;     ///< glt_barrier: sense-reversing, blocking
using event = sched::Event;         ///< one-shot wait-queue event
using latch = sched::CompletionLatch;  ///< counts work down to zero
template <class T>
using channel = sched::Channel<T>;  ///< bounded MPMC descriptor channel

}  // namespace glto::glt
