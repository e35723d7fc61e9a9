// The unit-cost ladder of the traced mode: one timed loop per public call
// a request crosses, lowest layer first, on every backend where it applies.
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/bqp.hpp"
#include "apps/cg.hpp"
#include "common.hpp"
#include "common/time.hpp"
#include "fctx/fcontext.hpp"
#include "fctx/stack_pool.hpp"
#include "sched/chase_lev.hpp"
#include "sched/metrics.hpp"
#include "sched/sync.hpp"
#include "sched/trace.hpp"
#include "taskdep/dep.hpp"

namespace perfbench {

namespace gl = glto::glt;
namespace om = glto::omp;
namespace fc = glto::fctx;
namespace sc = glto::sched;
using glto::common::now_ns;

namespace {

/// ns per iteration of @p body over @p iters iterations, best of @p reps
/// (the floor is the unit cost; repetitions only shed interference).
template <class F>
double ns_per(int iters, int reps, F&& body) {
  double best = 1e300;
  for (int k = 0; k < reps; ++k) {
    const std::int64_t t0 = now_ns();
    body(iters);
    const double per = static_cast<double>(now_ns() - t0) / iters;
    best = per < best ? per : best;
  }
  return best;
}

// ------------------------------------------------------------------- fctx

void ping_entry(fc::transfer_t t) {
  for (;;) t = fc::jump_fcontext(t.from, nullptr);
}

void ladder_fctx(Sink& sink) {
  fc::Stack st = fc::StackPool::global().acquire();
  fc::fcontext_t ctx = fc::make_fcontext(st.top, st.size, ping_entry);
  sink.put("fctx.switch_ns", ns_per(200000, 5, [&](int n) {
             for (int i = 0; i < n; ++i) ctx = fc::jump_fcontext(ctx, nullptr).from;
           }), "ns");
  // The ping context never returns; its stack goes back unused by anyone.
  fc::StackPool::global().release(st);
  sink.put("fctx.stack_ns", ns_per(100000, 5, [](int n) {
             for (int i = 0; i < n; ++i) {
               fc::StackPool::global().release(fc::StackPool::global().acquire());
             }
           }), "ns");
}

// ------------------------------------------------------------------ deque

void ladder_deque(Sink& sink) {
  sink.put("sched.deque_push_pop_ns", ns_per(1000000, 5, [](int n) {
             sc::ChaseLevDeque<void*> dq;
             void* out = nullptr;
             for (int i = 0; i < n; ++i) {
               dq.push(reinterpret_cast<void*>(static_cast<std::uintptr_t>(i + 1)));
               dq.pop(&out);
             }
           }), "ns");
  // A second thread steals a pre-filled deque empty.
  double best = 1e300;
  for (int k = 0; k < 5; ++k) {
    constexpr int kItems = 200000;
    sc::ChaseLevDeque<void*> dq(kItems * 2);
    for (int i = 0; i < kItems; ++i) {
      dq.push(reinterpret_cast<void*>(static_cast<std::uintptr_t>(i + 1)));
    }
    std::int64_t elapsed = 0;
    std::thread thief([&] {
      void* out = nullptr;
      int got = 0;
      const std::int64_t t0 = now_ns();
      while (got < kItems) got += dq.steal(&out) ? 1 : 0;
      elapsed = now_ns() - t0;
    });
    thief.join();
    const double per = static_cast<double>(elapsed) / kItems;
    best = per < best ? per : best;
  }
  sink.put("sched.deque_steal_ns", best, "ns");
}

// ------------------------------------------------------------- trace/hist

void ladder_trace(Sink& sink) {
  sink.put("sched.hist_record_ns", ns_per(1000000, 5, [](int n) {
             auto h = std::make_unique<sc::LatencyHistogram>();
             for (int i = 0; i < n; ++i) h->record(static_cast<std::uint64_t>(i) * 37);
           }), "ns");
  sc::trace_set_for_testing(true, nullptr, 1 << 12);
  sink.put("sched.trace_emit_ns", ns_per(1000000, 5, [](int n) {
             for (int i = 0; i < n; ++i) {
               sc::trace_emit(sc::TraceKind::wake, static_cast<std::uint64_t>(i), 0);
             }
           }), "ns");
  sc::trace_set_for_testing(false, nullptr, 0);
  sc::trace_reset_for_testing();
}

// ---------------------------------------------------------------- glt/sync

void empty_fn(void*) {}

struct WakeCtx {
  sc::Event ev;
  std::atomic<bool> armed{false};
  std::int64_t set_ns = 0;
  std::int64_t run_ns = 0;
  bool timed = false;
};

void waiter_main(void* p) {
  auto* w = static_cast<WakeCtx*>(p);
  w->armed.store(true, std::memory_order_release);
  if (w->timed) {
    (void)w->ev.wait_until(now_ns() + 10'000'000'000LL);
  } else {
    w->ev.wait();
  }
  w->run_ns = now_ns();
}

/// Sets the event once the waiter had time to park.
void setter_main(void* p) {
  auto* w = static_cast<WakeCtx*>(p);
  while (!w->armed.load(std::memory_order_acquire)) gl::yield();
  sc::backoff_for_us(200);
  w->set_ns = now_ns();
  w->ev.set();
}

/// Median µs from Event::set by a ULT on another GLT thread until the
/// waiting ULT runs again.
double ult_wake_us(bool timed, int reps) {
  std::vector<double> v;
  const int nt = gl::num_threads();
  for (int i = 0; i < reps; ++i) {
    WakeCtx w;
    w.timed = timed;
    gl::Ult* a = gl::ult_create_to(1 % nt, waiter_main, &w);
    gl::Ult* b = gl::ult_create_to(2 % nt, setter_main, &w);
    gl::ult_join(a);
    gl::ult_join(b);
    v.push_back(static_cast<double>(w.run_ns - w.set_ns) * 1e-3);
  }
  return median(v);
}

/// Median µs from a worker ULT's Event::set until the waiting main ULT runs.
double main_wake_us(int reps) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    WakeCtx w;
    w.armed.store(true);
    gl::Ult* b = gl::ult_create_to(1 % gl::num_threads(), setter_main, &w);
    w.ev.wait();
    const std::int64_t run = now_ns();
    gl::ult_join(b);
    v.push_back(static_cast<double>(run - w.set_ns) * 1e-3);
  }
  return median(v);
}

struct ForeignCtx {
  sc::Channel<std::int64_t>* chan = nullptr;
  std::vector<double>* out = nullptr;
};

void foreign_recv_main(void* p) {
  auto* f = static_cast<ForeignCtx*>(p);
  std::int64_t sent = 0;
  while (f->chan->recv(sent)) {
    f->out->push_back(static_cast<double>(now_ns() - sent) * 1e-3);
  }
}

/// Median µs from a send by an OS thread outside the runtime until the
/// parked worker ULT returns from recv.
double foreign_wake_us(int reps) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  sc::Channel<std::int64_t> chan(4);
  ForeignCtx f{&chan, &v};
  gl::Ult* u = gl::ult_create_to(1 % gl::num_threads(), foreign_recv_main, &f);
  std::thread feeder([&] {
    for (int i = 0; i < reps; ++i) {
      sleep_until_ns(now_ns() + 300'000);  // the worker parks meanwhile
      chan.send(now_ns());
    }
    chan.close();
  });
  gl::ult_join(u);
  feeder.join();
  return median(v);
}

void ladder_glt(Sink& sink, const Backend& b) {
  const std::string s = std::string(".") + b.name;
  init_glt(b, host_cores());
  sink.put("glt.ult_create_join_ns" + s, ns_per(20000, 5, [](int n) {
             for (int i = 0; i < n; ++i) gl::ult_join(gl::ult_create(empty_fn, nullptr));
           }), "ns");
  sink.put("sync.ult_wake_us" + s, ult_wake_us(false, 100), "us");
  sink.put("sync.timed_wake_us" + s, ult_wake_us(true, 100), "us");
  sink.put("sync.main_wake_us" + s, main_wake_us(100), "us");
  sink.put("sync.foreign_wake_us" + s, foreign_wake_us(100), "us");
  gl::finalize();
}

// -------------------------------------------------------------- omp/taskdep

void ladder_omp(Sink& sink, const Backend& b) {
  const std::string s = std::string(".") + b.name;
  const int cores = host_cores();
  select_omp(b, cores);
  sink.put("omp.task_ns" + s, ns_per(20000, 5, [](int n) {
             om::parallel([&](int, int) {
               om::single([&] {
                 for (int i = 0; i < n; ++i) om::task([] {});
                 om::taskwait();
               });
             });
           }), "ns");
  sink.put("omp.region_ns" + s, ns_per(2000, 5, [](int n) {
             for (int i = 0; i < n; ++i) om::parallel([](int, int) {});
           }), "ns");
  sink.put("omp.nested_region_ns" + s, ns_per(2000, 5, [cores](int n) {
             om::parallel(cores, [&](int, int) {
               om::loop(0, n, {om::Schedule::Static, 0}, [&](std::int64_t) {
                 om::parallel(cores, [](int, int) {});
               });
             });
           }), "ns");
  sink.put("omp.barrier_ns" + s, ns_per(5000, 5, [](int n) {
             om::parallel([&](int, int) {
               for (int i = 0; i < n; ++i) om::barrier();
             });
           }), "ns");
  sink.put("taskdep.dep_task_ns" + s, ns_per(10000, 5, [](int n) {
             double cell = 0.0;
             om::parallel([&](int, int) {
               om::single([&] {
                 om::TaskFlags fl;
                 fl.depend = {om::dep_inout(&cell, sizeof cell)};
                 for (int i = 0; i < n; ++i) {
                   om::task([&cell] { cell += 1.0; }, fl);
                 }
                 om::taskwait();
               });
             });
           }), "ns");
  om::shutdown();
}

// --------------------------------------------------------------- kernels

void ladder_kernels(Sink& sink, std::uint64_t seed) {
  namespace cg = glto::apps::cg;
  namespace bqp = glto::apps::bqp;
  const cg::Csr a = cg::make_spd_pentadiagonal(cg::kPaperRows);
  std::vector<double> x(static_cast<std::size_t>(a.n), 1.0), y(x.size(), 0.0);
  sink.put("cg.spmv_us", ns_per(200, 5, [&](int n) {
             for (int i = 0; i < n; ++i) cg::spmv_seq(a, x, y);
           }) * 1e-3, "us");
  // Iterations to the cg-tasks tolerance, through the same task solver.
  select_omp(backends()[0], host_cores());
  const std::vector<double> b = cg_rhs(seed, a.n);
  std::vector<double> sol;
  const cg::Result res = cg::solve_tasks(a, b, sol, 1000, 1e-6, 10);
  om::shutdown();
  sink.put("cg.iterations", res.iterations, "count");

  // Sequential box-QP solves: the qp-service shape and the bqp-dag shape.
  double us = 0.0, iters = 0.0;
  constexpr int kProblems = 32;
  for (int i = 0; i < kProblems; ++i) {
    const bqp::Problem p = bqp::make_problem(48, 16, 4, seed * 1'000'003 + static_cast<std::uint64_t>(i));
    const std::int64_t t0 = now_ns();
    const bqp::Result r = bqp::solve(p, bqp::Mode::sequential, 40, 1e-10);
    us += static_cast<double>(now_ns() - t0) * 1e-3;
    iters += r.iters;
  }
  sink.put("bqp.solve_us", us / kProblems, "us");
  sink.put("bqp.iters", iters / kProblems, "count");
  const bqp::Problem big = bqp::make_problem(192, 16, 4, seed * 7919 + 3);
  sink.put("bqp.seq_solve_ms", ns_per(1, 5, [&](int) {
             (void)bqp::solve(big, bqp::Mode::sequential, 60, 1e-10);
           }) * 1e-6, "ms");
}

}  // namespace

void run_ladder(Run& r) {
  auto step = [](const char* what) { std::fprintf(stderr, "perfbench: ladder: %s\n", what); };
  step("fctx");
  ladder_fctx(r.sink);
  step("deque");
  ladder_deque(r.sink);
  step("trace");
  ladder_trace(r.sink);
  step("kernels");
  ladder_kernels(r.sink, r.opt.seed);
  for (const Backend& b : backends()) {
    step(b.name);
    ladder_glt(r.sink, b);
    ladder_omp(r.sink, b);
  }
  // The qp-service spans on the workloads that are not qp-service come
  // from a short probe of the same phases.
  if (r.opt.workload != "qp-service") {
    qp_prepare(r.opt.seed, r.tally);
    QpPhaseScale sc;
    sc.light_s = 0.5;
    sc.heavy_s = 0.2;
    sc.heavy_min = 300;
    sc.capacity_reqs = 500;
    sc.closed_reqs = 1000;
    for (const Backend& b : backends()) qp_backend(r, b, sc);
  }
}

}  // namespace perfbench
