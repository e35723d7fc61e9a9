// GLTO-specific behaviour: the §IV design decisions, asserted directly.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "glt/glt.hpp"
#include "omp/omp.hpp"

namespace glt = glto::glt;
namespace o = glto::omp;

namespace {

void select_glto(o::RuntimeKind k, int nth, bool shared_queues = false) {
  o::SelectOptions opts;
  opts.num_threads = nth;
  opts.bind_threads = false;
  opts.active_wait = false;
  opts.shared_queues = shared_queues;
  o::select(k, opts);
}

}  // namespace

TEST(GltoRegion, OuterRegionCreatesOneUltPerNonMasterMember) {
  select_glto(o::RuntimeKind::glto_abt, 4);
  o::runtime().reset_counters();
  o::parallel([](int, int) {});
  const auto c = o::runtime().counters();
  EXPECT_EQ(c.ults_created, 3u)
      << "master runs member 0 inline; §IV-C creates ULTs for the rest";
  EXPECT_EQ(c.os_threads_created, 4u) << "GLT_threads, created once at init";
  o::shutdown();
}

TEST(GltoRegion, NestedRegionsCreateOnlyUlts) {
  select_glto(o::RuntimeKind::glto_abt, 4);
  o::runtime().reset_counters();
  constexpr int kInner = 10;
  o::parallel(1, [&](int, int) {
    for (int i = 0; i < kInner; ++i) o::parallel(4, [](int, int) {});
  });
  const auto c = o::runtime().counters();
  EXPECT_EQ(c.ults_created, static_cast<std::uint64_t>(kInner * 3))
      << "inner teams are pure ULTs (§IV-E): 3 per region, no OS threads";
  EXPECT_EQ(c.os_threads_created, 4u) << "no oversubscription, ever";
  o::shutdown();
}

TEST(GltoRegion, Table2UltArithmetic) {
  // The Table II scenario at reduced scale: nth=6, outer=12 iterations.
  select_glto(o::RuntimeKind::glto_abt, 6);
  o::runtime().reset_counters();
  o::parallel([&](int, int) {
    o::loop(0, 12, {o::Schedule::Static, 0},
                [&](std::int64_t lo, std::int64_t hi) {
                  for (std::int64_t i = lo; i < hi; ++i) {
                    o::parallel([](int, int) {});
                  }
                });
  });
  const auto c = o::runtime().counters();
  // outer: 5 ULTs; inner: 12 regions × 5 ULTs = 60 → 65.
  EXPECT_EQ(c.ults_created, 65u) << "outer (nth-1) + outer_iters*(nth-1)";
  o::shutdown();
}

TEST(GltoTasks, ProducerTasksSpreadRoundRobin) {
  select_glto(o::RuntimeKind::glto_abt, 4);
  // Tasks created inside `single` must round-robin across GLT_threads
  // (§IV-D), so with 8 tasks and 4 threads every thread executes some.
  std::set<int> executors;
  std::atomic<int> done{0};
  static std::atomic<int> exec_mask;
  exec_mask = 0;
  o::parallel([&](int, int) {
    o::single([&] {
      for (int i = 0; i < 16; ++i) {
        o::task([&] {
          exec_mask.fetch_or(1 << o::thread_num());
          done.fetch_add(1);
        });
      }
      o::taskwait();
    });
  });
  EXPECT_EQ(done.load(), 16);
  int bits = 0;
  for (int t = 0; t < 4; ++t) {
    if (exec_mask.load() & (1 << t)) ++bits;
  }
  EXPECT_EQ(bits, 4) << "round-robin dispatch reaches every GLT_thread";
  o::shutdown();
}

TEST(GltoTasks, NonProducerTasksStayLocalOnAbt) {
  // Outside single/master, each member submits its tasks to its own
  // GLT_thread's deque (§IV-D) rather than round-robin. An idle sibling
  // may still steal one (visible under a TSan-slowed run), so a task may
  // leave its creator's GLT_thread only by being stolen: the off-thread
  // executions can never outnumber the steals over the region.
  select_glto(o::RuntimeKind::glto_abt, 3);
  std::atomic<std::uint64_t> off_thread{0};
  std::atomic<int> ran{0};
  const auto steals_before = glt::stats().steals;
  o::parallel([&](int tid, int) {
    if (tid == 0) return;  // master's ctx is in_master: dispatch differs
    const int creator = glt::thread_num();
    for (int i = 0; i < 5; ++i) {
      o::task([&off_thread, &ran, creator] {
        if (glt::thread_num() != creator) off_thread.fetch_add(1);
        ran.fetch_add(1);
      });
    }
    o::taskwait();
  });
  const auto steals = glt::stats().steals - steals_before;
  EXPECT_EQ(ran.load(), 10);
  EXPECT_LE(off_thread.load(), steals)
      << "a member-spawned task ran off its creator's GLT_thread unstolen";
  o::shutdown();
}

TEST(GltoTasks, FinalTasksRunInline) {
  select_glto(o::RuntimeKind::glto_abt, 4);
  o::runtime().reset_counters();
  std::atomic<int> ran{0};
  o::TaskFlags flags;
  flags.final = true;
  o::parallel([&](int, int) {
    o::single([&] {
      for (int i = 0; i < 10; ++i) {
        o::task([&] { ran.fetch_add(1); }, flags);
        EXPECT_EQ(ran.load(), i + 1) << "final ⇒ undeferred (§V)";
      }
    });
  });
  const auto c = o::runtime().counters();
  EXPECT_EQ(c.tasks_immediate, 10u);
  EXPECT_EQ(c.tasks_queued, 0u);
  o::shutdown();
}

TEST(GltoSharedQueues, ConfigReachesBackend) {
  select_glto(o::RuntimeKind::glto_abt, 3, /*shared_queues=*/true);
  // Under a shared pool, placement is advisory; correctness must hold.
  std::atomic<int> done{0};
  o::parallel([&](int, int) {
    o::single([&] {
      for (int i = 0; i < 60; ++i) o::task([&] { done.fetch_add(1); });
      o::taskwait();
    });
  });
  EXPECT_EQ(done.load(), 60);
  o::shutdown();
}

TEST(GltoMth, MasterStaysPinnedThroughRegions) {
  // §IV-G: GLTO pins the main context under MassiveThreads; the master
  // must always observe itself as thread 0 of the outer team.
  select_glto(o::RuntimeKind::glto_mth, 4);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> master_tid{-1};
    o::parallel([&](int tid, int) {
      if (tid == 0) master_tid.store(o::thread_num());
    });
    EXPECT_EQ(master_tid.load(), 0);
  }
  o::shutdown();
}

TEST(GltoAllBackends, CountersReportGltThreads) {
  for (auto kind : {o::RuntimeKind::glto_abt, o::RuntimeKind::glto_qth,
                    o::RuntimeKind::glto_mth}) {
    select_glto(kind, 3);
    EXPECT_EQ(o::runtime().counters().os_threads_created, 3u)
        << o::kind_name(kind);
    o::shutdown();
  }
}
