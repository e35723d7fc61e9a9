// qth — a Qthreads-like lightweight-threading library.
//
// Model (mirrors Qthreads 1.10 as used in the paper):
//  * A fixed set of *shepherds*: OS threads, each owning a work queue.
//    Since the dispatch-parity PR the shepherds run on the shared
//    work-stealing core (sched::WsCore): a plain fork() from a shepherd
//    lands on the caller's Chase–Lev deque where idle shepherds steal it,
//    while fork_to() stays exact (owner-only fair queue, never stolen).
//    A fork from a thread outside the runtime goes to the core's inject
//    queue, which every shepherd drains.
//  * The signature synchronization primitive is the **FEB** (full/empty
//    bit): every aligned 64-bit word can be read/written with blocking
//    full/empty semantics (readFF, readFE, writeEF, writeF). FEB state
//    lives in a central hash table whose buckets are protected by striped
//    locks — Qthreads "protects all memory words with mutex regions",
//    which is the contention source the paper measures in Figs. 4/5 and
//    the rising QTH curves of Figs. 10–13.
//  * Every qthread's completion is itself signalled through a FEB on its
//    return word, so *all* join traffic funnels through the word-lock
//    table, faithfully reproducing that cost model.
//
// Thread handles: fork() returns immediately; completion is observed via
// the caller-owned return word (readFF). The runtime frees thread records
// automatically after completion.
#pragma once

#include <cstdint>

#include "sched/metrics.hpp"

namespace glto::qth {

/// The only word size FEB operations apply to (Qthreads' aligned_t).
using aligned_t = std::uint64_t;

using QthFn = aligned_t (*)(void*);

struct Config {
  int num_shepherds = 0;  ///< 0 → $QTH_NUM_SHEPHERDS or hardware threads
  bool bind_threads = true;
  bool shared_pool = false;  ///< one pool for all shepherds (§IV-F ablation)
};

void init(const Config& cfg = {});
void finalize();
[[nodiscard]] bool initialized();
[[nodiscard]] int num_shepherds();

/// Shepherd executing the caller (-1 on foreign threads).
[[nodiscard]] int shep_rank();

/// True when the caller runs inside a qthread (including the main thread,
/// which becomes a schedulable context on first blocking op).
[[nodiscard]] bool in_qthread();

/// Racy probe: could the calling shepherd's scheduler run anything else
/// right now? See abt::maybe_work for the busy-wait rationale.
[[nodiscard]] bool maybe_work();

/// Spawns a qthread. A fork from a shepherd lands on the caller's own
/// deque (run-local, stealable by idle shepherds); a fork from a foreign
/// thread goes to the inject queue. If @p ret is non-null it is emptied now
/// and filled with fn's return value on completion, so readFF(ret) is the
/// join operation.
void fork(QthFn fn, void* arg, aligned_t* ret);

/// Spawns @p n qthreads running fn(args[i]) (return word rets[i], may be
/// null) and deposits the whole batch through the scheduling core's bulk
/// path: one queue publication per victim shepherd and one targeted wake
/// per victim, instead of n fork+wake round-trips. @p spread fans
/// contiguous chunks across shepherds (producer fan-out); otherwise the
/// batch rides the caller's deque and woken shepherds steal it.
void fork_bulk(QthFn fn, void* const* args, aligned_t* const* rets, int n,
               bool spread);

/// Spawns a qthread on shepherd @p shep (exact placement: the qthread is
/// pinned and never stolen; advisory under a shared pool).
void fork_to(int shep, QthFn fn, void* arg, aligned_t* ret);

/// Cooperative yield to the shepherd's scheduler.
void yield();

// --- FEB operations (all block cooperatively) ---------------------------

/// Marks @p addr empty. Words are full by default.
void feb_empty(aligned_t* addr);

/// Marks @p addr full and wakes waiters (does not change the value).
void feb_fill(aligned_t* addr);

/// True when @p addr is currently full.
[[nodiscard]] bool feb_is_full(aligned_t* addr);

/// Waits until @p src is full, then copies *src into *dst (src stays full).
void readFF(aligned_t* dst, aligned_t* src);

/// Waits until @p src is full, copies it out, then marks it empty.
void readFE(aligned_t* dst, aligned_t* src);

/// Waits until @p dst is empty, stores @p val, then marks it full.
void writeEF(aligned_t* dst, aligned_t val);

/// Stores @p val and marks @p dst full regardless of prior state.
void writeF(aligned_t* dst, aligned_t val);

/// Per-qthread user pointer ("ULT-local storage"); travels with the
/// qthread across suspensions. Thread-local fallback on foreign threads.
[[nodiscard]] void* self_local();
void set_self_local(void* p);

// --- sinc: scalable incomplete counter (qthreads' qt_sinc_t) -------------
//
// Fan-in synchronization: created with an expected submission count;
// submitters call sinc_submit once each; waiters block (through the FEB
// machinery, like everything in qth) until all submissions arrived.

struct Sinc;

/// Creates a sinc expecting @p expect submissions.
[[nodiscard]] Sinc* sinc_create(std::uint64_t expect);

/// Records one completion (signals waiters on the last one).
void sinc_submit(Sinc* s);

/// Blocks until all expected submissions arrived.
void sinc_wait(Sinc* s);

/// Destroys the sinc (must be complete or unused).
void sinc_destroy(Sinc* s);

/// Shared-core scheduler behaviour lives in the sched::StatsSnapshot base
/// (zero on a single shep); qthreads-specific counters here.
struct Stats : sched::StatsSnapshot {
  std::uint64_t threads_created = 0;
  std::uint64_t feb_ops = 0;        ///< lock-table acquisitions
  std::uint64_t feb_blocks = 0;     ///< times a qthread suspended on a FEB
};

[[nodiscard]] Stats stats();

}  // namespace glto::qth
