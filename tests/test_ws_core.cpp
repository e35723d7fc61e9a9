// Unit + stress tests for the shared work-stealing scheduler core
// (sched::WsCore / sched::Freelist) that all three LWT backends dispatch
// through since the dispatch-parity PR.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "sched/dispatch.hpp"
#include "sched/freelist.hpp"
#include "sched/ws_core.hpp"

namespace gs = glto::sched;

namespace {

gs::WsCoreConfig cfg(int n, bool shared = false) {
  gs::WsCoreConfig c;
  c.num_workers = n;
  c.shared_pool = shared;
  return c;
}

}  // namespace

// ----------------------------------------------------------------- routing

TEST(WsCore, OwnerSpawnIsLifoForOwnerAndStealableFifo) {
  gs::WsCore<int*> core(cfg(2));
  int items[3] = {0, 1, 2};
  for (int& i : items) core.submit(0, 0, /*pinned=*/false, &i);
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(0, &tick), &items[2]) << "owner pops newest";
  glto::common::FastRng rng(7);
  EXPECT_EQ(core.try_steal(1, rng), &items[0]) << "thief steals oldest";
  EXPECT_EQ(core.pop_local(0, &tick), &items[1]);
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
}

TEST(WsCore, PinnedSubmissionsAreNeverStolen) {
  gs::WsCore<int*> core(cfg(2));
  int x = 0;
  core.submit(0, 1, /*pinned=*/true, &x);
  glto::common::FastRng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(core.try_steal(0, rng), nullptr)
        << "pinned unit sits in the target's owner-only fair queue";
  }
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(0, &tick), nullptr) << "wrong owner cannot pop it";
  EXPECT_EQ(core.pop_local(1, &tick), &x) << "target owner drains it";
}

TEST(WsCore, RemoteSubmissionLandsOnTargetNotCaller) {
  gs::WsCore<int*> core(cfg(3));
  int x = 0;
  core.submit(/*caller=*/0, /*target=*/2, /*pinned=*/false, &x);
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
  EXPECT_EQ(core.pop_local(2, &tick), &x);
  int y = 0;
  core.submit(/*caller=*/-1, /*target=*/1, /*pinned=*/false, &y);
  EXPECT_EQ(core.pop_local(1, &tick), &y) << "foreign-thread submit";
}

TEST(WsCore, FairQueueCannotStarveBehindSpawnStorm) {
  gs::WsCore<int*> core(cfg(1));
  int pinned_item = 0;
  core.submit(0, 0, /*pinned=*/true, &pinned_item);
  std::vector<int> storm(200, 0);
  unsigned tick = 0;
  bool fair_served = false;
  // Keep the deque non-empty while popping: the every-64th-tick fair-first
  // check must still serve the pinned unit.
  for (int round = 0; round < 128 && !fair_served; ++round) {
    for (int& s : storm) core.submit(0, 0, false, &s);
    for (std::size_t i = 0; i < storm.size() / 2; ++i) {
      if (core.pop_local(0, &tick) == &pinned_item) {
        fair_served = true;
        break;
      }
    }
  }
  EXPECT_TRUE(fair_served);
}

TEST(WsCore, SharedPoolServesEveryWorker) {
  gs::WsCore<int*> core(cfg(4, /*shared=*/true));
  EXPECT_FALSE(core.stealing_active()) << "one pool: nothing to steal from";
  std::vector<int> items(64, 0);
  for (int& i : items) core.submit(0, 0, false, &i);
  unsigned tick = 0;
  int got = 0;
  for (int rank = 0; rank < 4; ++rank) {
    for (int k = 0; k < 16; ++k) {
      EXPECT_NE(core.pop_local(rank, &tick), nullptr);
      ++got;
    }
  }
  EXPECT_EQ(got, 64);
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
}

TEST(WsCore, MainSlotIsInvisibleToWorkersAndThieves) {
  gs::WsCore<int*> core(cfg(2));
  int main_item = 0;
  core.push_main(&main_item);
  unsigned tick = 0;
  glto::common::FastRng rng(5);
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
  EXPECT_EQ(core.pop_local(1, &tick), nullptr);
  EXPECT_EQ(core.try_steal(1, rng), nullptr);
  EXPECT_EQ(core.pop_main(), &main_item) << "only the worker-0 loop pops it";
  EXPECT_EQ(core.pop_main(), nullptr);
}

TEST(WsCore, AcquireReturnsNullOnShutdownWhenDrained) {
  gs::WsCore<int*> core(cfg(1));
  int x = 0;
  core.submit(0, 0, false, &x);
  core.request_shutdown();
  gs::AcquireState st(42);
  EXPECT_EQ(core.acquire(0, st, /*with_main=*/true), &x)
      << "shutdown drains remaining work first";
  EXPECT_EQ(core.acquire(0, st, /*with_main=*/true), nullptr);
}

TEST(WsCore, MaybeWorkProbes) {
  gs::WsCore<int*> core(cfg(2));
  EXPECT_FALSE(core.maybe_work(0, true));
  int x = 0;
  core.submit(1, 1, false, &x);  // victim deque
  EXPECT_TRUE(core.maybe_work(0, false)) << "stealable work elsewhere";
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(1, &tick), &x);
  EXPECT_FALSE(core.maybe_work(0, false));
  int m = 0;
  core.push_main(&m);
  EXPECT_TRUE(core.maybe_work(0, true));
  EXPECT_FALSE(core.maybe_work(1, false)) << "main slot is worker-0-only";
  EXPECT_EQ(core.pop_main(), &m);
}

// ------------------------------------------------------------ steal stress

TEST(WsCore, StealUnderContentionConservesEveryItem) {
  // One owner spawns and pops on rank 0 while three thieves hammer
  // try_steal — the backends' exact hot-path shape. Every pushed item must
  // be consumed exactly once (lost CAS races must not lose or duplicate).
  gs::WsCore<std::intptr_t*> core(cfg(4));
  constexpr std::intptr_t kItems = 60000;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  std::atomic<std::intptr_t> sum{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int r = 1; r < 4; ++r) {
    thieves.emplace_back([&, r] {
      glto::common::FastRng rng(static_cast<std::uint64_t>(r) * 77);
      while (!done.load(std::memory_order_acquire)) {
        if (auto* v = core.try_steal(r, rng)) {
          sum.fetch_add(*v, std::memory_order_relaxed);
        }
      }
      while (auto* v = core.try_steal(r, rng)) {
        sum.fetch_add(*v, std::memory_order_relaxed);
      }
    });
  }
  unsigned tick = 0;
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    core.submit(0, 0, false, &backing[static_cast<std::size_t>(i)]);
    if (i % 7 == 0) {
      if (auto* v = core.pop_local(0, &tick)) {
        sum.fetch_add(*v, std::memory_order_relaxed);
      }
    }
  }
  while (auto* v = core.pop_local(0, &tick)) {
    sum.fetch_add(*v, std::memory_order_relaxed);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  // Thieves may have raced the owner for the last items; drain stragglers.
  glto::common::FastRng rng(1);
  while (auto* v = core.try_steal(1, rng)) {
    sum.fetch_add(*v, std::memory_order_relaxed);
  }
  while (auto* v = core.pop_local(0, &tick)) {
    sum.fetch_add(*v, std::memory_order_relaxed);
  }
  EXPECT_EQ(sum.load(), kItems * (kItems + 1) / 2);
}

TEST(WsCore, ThievesDrainEverythingWhenOwnerStops) {
  // Deterministic steal accounting: the owner only pushes, so every item
  // must leave through a steal — steals ends up exactly kItems and the
  // per-worker counters aggregate across thieves.
  gs::WsCore<std::intptr_t*> core(cfg(3));
  constexpr std::intptr_t kItems = 5000;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    core.submit(0, 0, false, &backing[static_cast<std::size_t>(i)]);
  }
  std::atomic<std::intptr_t> sum{0};
  std::atomic<int> remaining{static_cast<int>(kItems)};
  std::vector<std::thread> thieves;
  for (int r = 1; r < 3; ++r) {
    thieves.emplace_back([&, r] {
      glto::common::FastRng rng(static_cast<std::uint64_t>(r) * 13 + 1);
      while (remaining.load(std::memory_order_acquire) > 0) {
        if (auto* v = core.try_steal(r, rng)) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          remaining.fetch_sub(1, std::memory_order_release);
        }
      }
    });
  }
  for (auto& t : thieves) t.join();
  EXPECT_EQ(sum.load(), kItems * (kItems + 1) / 2);
  const auto st = core.stats();
  EXPECT_EQ(st.steals, static_cast<std::uint64_t>(kItems))
      << "owner never popped: every item must have left through a steal";
}

TEST(WsCore, StolenPayloadPlainFieldsArePublished) {
  // Regression for the Chase–Lev publication protocol: push()/push_n()
  // must publish the pushed unit's *plain* (non-atomic) fields to thieves
  // via a release STORE on bottom_, not the Lê et al. release fence +
  // relaxed store. The fence form is equally correct C++ but invisible to
  // TSan (gcc's TSan does not model atomic_thread_fence), so every stolen
  // payload read below would report as a race — the TSan CI leg arms this
  // test against regressing to the fence form, and the value checks catch
  // genuine publication bugs on weakly-ordered targets.
  struct Unit {
    std::intptr_t a = 0;
    std::intptr_t b = 0;  // plain fields: only the deque orders them
  };
  gs::WsCore<Unit*> core(cfg(2));
  constexpr std::intptr_t kRounds = 20000;
  std::vector<Unit> backing(static_cast<std::size_t>(kRounds));
  std::atomic<bool> done{false};
  std::atomic<std::intptr_t> stolen_sum{0};
  std::atomic<std::intptr_t> stolen_count{0};
  std::thread thief([&] {
    glto::common::FastRng rng(7);
    for (;;) {
      if (Unit* u = core.try_steal(1, rng)) {
        // Ordered after the owner's plain writes solely by the steal's
        // acquire loads on the deque indices.
        EXPECT_EQ(u->b, u->a + 1);
        stolen_sum.fetch_add(u->a, std::memory_order_relaxed);
        stolen_count.fetch_add(1, std::memory_order_relaxed);
      } else if (done.load(std::memory_order_acquire)) {
        break;
      }
    }
  });
  unsigned tick = 0;
  std::intptr_t local_sum = 0;
  std::intptr_t local_count = 0;
  auto drain_local = [&](Unit* u) {
    EXPECT_EQ(u->b, u->a + 1);
    local_sum += u->a;
    ++local_count;
  };
  for (std::intptr_t i = 0; i < kRounds; ++i) {
    auto& u = backing[static_cast<std::size_t>(i)];
    u.a = i + 1;
    u.b = i + 2;
    if (i % 3 == 0) {
      Unit* ptr = &u;
      // Exercise the batch publication (push_n) alongside single pushes.
      core.submit_bulk(0, &ptr, 1, gs::BulkHint::local);
    } else {
      core.submit(0, 0, false, &u);
    }
    if (i % 5 == 0) {
      if (Unit* popped = core.pop_local(0, &tick)) drain_local(popped);
    }
  }
  while (Unit* popped = core.pop_local(0, &tick)) drain_local(popped);
  done.store(true, std::memory_order_release);
  thief.join();
  EXPECT_EQ(local_count + stolen_count.load(), kRounds);
  EXPECT_EQ(local_sum + stolen_sum.load(), kRounds * (kRounds + 1) / 2);
}

// ------------------------------------------------------------ wake protocol

TEST(WsCore, WakeOneTargetedWakeReachesParkedOwner) {
  // A consumer parks on its own parker; a pinned submit targeted at it
  // must claim its idle bit and unpark it — repeatedly, across many
  // park/push races. A lost wakeup would cost a full park timeout per
  // item; the bound below (well under kItems * kParkMaxUs) fails loudly
  // if wakes stop landing.
  gs::WsCore<std::intptr_t*> core(cfg(2));
  constexpr int kItems = 400;
  std::atomic<std::intptr_t> sum{0};
  std::thread consumer([&] {
    gs::AcquireState st(7);
    for (;;) {
      auto* v = core.acquire(1, st, /*with_main=*/false);
      if (v == nullptr) break;  // shutdown + drained
      // Release: the main thread acquires `sum` before it grows (and so
      // frees) `backing`, which this read of *v must happen before.
      sum.fetch_add(*v, std::memory_order_release);
    }
  });
  std::vector<std::intptr_t> backing(kItems);
  std::intptr_t pushed_sum = 0;
  for (int i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    pushed_sum += i + 1;
    core.submit(/*caller=*/0, /*target=*/1, /*pinned=*/true,
                &backing[static_cast<std::size_t>(i)]);
    if (i % 16 == 0) {
      // Give the consumer time to drain and park again, exercising the
      // advertise → probe → park → claim → unpark cycle.
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sum.load(std::memory_order_acquire) != pushed_sum) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "consumer stalled: lost wakeup or broken idle-mask protocol";
    std::this_thread::yield();
  }
  // Second phase: poke single items until a targeted unpark is observed.
  // Each poke waits for the consumer to *advertise* idleness first — on a
  // loaded host a blind fixed cadence can miss the park window every
  // time (the consumer gets descheduled pre-park and drains the item
  // without ever parking), so only a deposit landing on an advertised-
  // idle worker proves the claim/unpark path. The deadline trips only
  // when wakes can no longer land at all.
  std::intptr_t extra = 1000;
  backing.push_back(0);
  while (core.stats().wakes_issued == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    while (!core.idle_advertised(1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    backing.back() = ++extra;
    pushed_sum += extra;
    core.submit(0, 1, /*pinned=*/true, &backing.back());
    while (sum.load(std::memory_order_acquire) != pushed_sum &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  EXPECT_GT(core.stats().wakes_issued, 0u)
      << "parked consumer was never unparked";
  core.request_shutdown();
  consumer.join();
}

TEST(WsCore, WakeStatsStayConsistentUnderConcurrentPushParkRaces) {
  // Two consumers race a producer that alternates stealable and targeted
  // deposits. Conservation must hold and every counter must stay sane —
  // in particular spurious wakes (woken, probed, found nothing because
  // the sibling won the race) must be counted, never hang the loop.
  gs::WsCore<std::intptr_t*> core(cfg(3));
  constexpr std::intptr_t kItems = 20000;
  std::atomic<std::intptr_t> sum{0};
  std::vector<std::thread> consumers;
  for (int r = 1; r < 3; ++r) {
    consumers.emplace_back([&, r] {
      gs::AcquireState st(static_cast<std::uint64_t>(r) * 31);
      for (;;) {
        auto* v = core.acquire(r, st, /*with_main=*/false);
        if (v == nullptr) break;
        sum.fetch_add(*v, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    if (i % 3 == 0) {
      core.submit(0, 1 + static_cast<int>(i % 2), /*pinned=*/true,
                  &backing[static_cast<std::size_t>(i)]);
    } else {
      core.submit(0, 0, /*pinned=*/false,
                  &backing[static_cast<std::size_t>(i)]);
    }
    if (i % 512 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  // Unstolen items may still sit on rank 0's deque: drain them here.
  unsigned tick = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const std::intptr_t want = kItems * (kItems + 1) / 2;
  while (sum.load(std::memory_order_acquire) != want) {
    while (auto* v = core.pop_local(0, &tick)) {
      sum.fetch_add(*v, std::memory_order_relaxed);
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  core.request_shutdown();
  for (auto& t : consumers) t.join();
  const auto st = core.stats();
  EXPECT_LE(st.wakes_spurious, st.parks)
      << "a spurious wake is counted at most once per park";
}

TEST(WsCore, AllPolicyBroadcastsAndOnePolicyTargets) {
  glto::common::env_set("GLTO_WAKE_POLICY", nullptr);
  gs::WsCoreConfig c = cfg(2);
  c.wake_policy = gs::WakePolicy::All;
  gs::WsCore<int*> all_core(c);
  EXPECT_EQ(all_core.wake_policy(), gs::WakePolicy::All);
  c.wake_policy = gs::WakePolicy::Auto;  // resolves to the default
  gs::WsCore<int*> auto_core(c);
  EXPECT_EQ(auto_core.wake_policy(), gs::WakePolicy::One);
}

TEST(Dispatch, ResolveWakePolicyFromEnv) {
  namespace env = glto::common;
  env::env_set("TEST_WAKE", "all");
  EXPECT_EQ(gs::resolve_wake_policy(gs::WakePolicy::Auto, "TEST_WAKE"),
            gs::WakePolicy::All);
  env::env_set("TEST_WAKE", "Threshold");
  EXPECT_EQ(gs::resolve_wake_policy(gs::WakePolicy::Auto, "TEST_WAKE"),
            gs::WakePolicy::Threshold);
  env::env_set("TEST_WAKE", "garbage");
  EXPECT_EQ(gs::resolve_wake_policy(gs::WakePolicy::Auto, "TEST_WAKE"),
            gs::WakePolicy::One)
      << "unrecognized value falls back to wake-one (with a warning)";
  env::env_set("TEST_WAKE", nullptr);
  EXPECT_EQ(gs::resolve_wake_policy(gs::WakePolicy::Auto, "TEST_WAKE"),
            gs::WakePolicy::One);
  EXPECT_EQ(gs::resolve_wake_policy(gs::WakePolicy::All, "TEST_WAKE"),
            gs::WakePolicy::All)
      << "explicit requests bypass the environment";
}

// ------------------------------------------------------------- bulk deposit

TEST(WsCore, SubmitBulkSpreadReachesEveryVictimOnce) {
  gs::WsCore<std::intptr_t*> core(cfg(4));
  constexpr std::intptr_t kItems = 64;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  std::vector<std::intptr_t*> items(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    items[static_cast<std::size_t>(i)] = &backing[static_cast<std::size_t>(i)];
  }
  core.submit_bulk(0, items.data(), items.size(), gs::BulkHint::spread);
  EXPECT_EQ(core.stats().bulk_deposits, 1u) << "one deposit for the batch";
  // Every worker owns a contiguous chunk; draining all four pools must
  // recover every item exactly once.
  std::intptr_t sum = 0;
  unsigned tick = 0;
  int victims_with_work = 0;
  for (int rank = 0; rank < 4; ++rank) {
    bool got = false;
    while (auto* v = core.pop_local(rank, &tick)) {
      sum += *v;
      got = true;
    }
    victims_with_work += got ? 1 : 0;
  }
  EXPECT_EQ(sum, kItems * (kItems + 1) / 2);
  EXPECT_EQ(victims_with_work, 4)
      << "wake-one spreads a 64-unit batch across the whole team";
}

TEST(WsCore, SubmitBulkLocalIsStealableAndConserved) {
  gs::WsCore<std::intptr_t*> core(cfg(3));
  constexpr std::intptr_t kItems = 3000;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  std::vector<std::intptr_t*> items(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    items[static_cast<std::size_t>(i)] = &backing[static_cast<std::size_t>(i)];
  }
  core.submit_bulk(0, items.data(), items.size(), gs::BulkHint::local);
  std::atomic<std::intptr_t> sum{0};
  std::atomic<int> remaining{static_cast<int>(kItems)};
  std::vector<std::thread> thieves;
  for (int r = 1; r < 3; ++r) {
    thieves.emplace_back([&, r] {
      glto::common::FastRng rng(static_cast<std::uint64_t>(r) * 17 + 3);
      while (remaining.load(std::memory_order_acquire) > 0) {
        if (auto* v = core.try_steal(r, rng)) {
          sum.fetch_add(*v, std::memory_order_relaxed);
          remaining.fetch_sub(1, std::memory_order_release);
        }
      }
    });
  }
  unsigned tick = 0;
  while (remaining.load(std::memory_order_acquire) > 0) {
    if (auto* v = core.pop_local(0, &tick)) {
      sum.fetch_add(*v, std::memory_order_relaxed);
      remaining.fetch_sub(1, std::memory_order_release);
    }
  }
  for (auto& t : thieves) t.join();
  EXPECT_EQ(sum.load(), kItems * (kItems + 1) / 2)
      << "a local bulk deposit must be fully visible to owner and thieves";
}

TEST(WsCore, SubmitBulkThresholdEngagesVictimsProportionally) {
  glto::common::env_set("GLTO_WAKE_POLICY", nullptr);
  gs::WsCoreConfig c = cfg(8);
  c.wake_policy = gs::WakePolicy::Threshold;
  gs::WsCore<std::intptr_t*> core(c);
  // 8 units at grain 4 → 2 victims, not 8: small batches must not pay one
  // deposit per worker of team width.
  std::vector<std::intptr_t> backing(8);
  std::vector<std::intptr_t*> items(8);
  for (int i = 0; i < 8; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    items[static_cast<std::size_t>(i)] = &backing[static_cast<std::size_t>(i)];
  }
  core.submit_bulk(0, items.data(), items.size(), gs::BulkHint::spread);
  unsigned tick = 0;
  int victims_with_work = 0;
  std::intptr_t sum = 0;
  for (int rank = 0; rank < 8; ++rank) {
    bool got = false;
    while (auto* v = core.pop_local(rank, &tick)) {
      sum += *v;
      got = true;
    }
    victims_with_work += got ? 1 : 0;
  }
  EXPECT_EQ(sum, 36);
  EXPECT_EQ(victims_with_work, 2)
      << "threshold: ⌈8/kBulkWakeGrain⌉ victims for an 8-unit batch";
}

TEST(WsCore, ChaseLevPushNPublishesAcrossGrowth) {
  gs::ChaseLevDeque<std::intptr_t*> deque(8);  // forces several growths
  constexpr std::intptr_t kItems = 1000;
  std::vector<std::intptr_t> backing(static_cast<std::size_t>(kItems));
  std::vector<std::intptr_t*> items(static_cast<std::size_t>(kItems));
  for (std::intptr_t i = 0; i < kItems; ++i) {
    backing[static_cast<std::size_t>(i)] = i + 1;
    items[static_cast<std::size_t>(i)] = &backing[static_cast<std::size_t>(i)];
  }
  deque.push_n(items.data(), 100);
  // Interleave owner pops with a second batch: bottom/top bookkeeping must
  // stay coherent across the grow inside push_n.
  std::intptr_t sum = 0;
  std::intptr_t* out = nullptr;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(deque.pop(&out));
    sum += *out;
  }
  deque.push_n(items.data() + 100, static_cast<std::size_t>(kItems) - 100);
  while (deque.pop(&out)) sum += *out;
  EXPECT_EQ(sum, kItems * (kItems + 1) / 2);
}

// ------------------------------------------------------------ inject queue

TEST(WsCore, ForeignUnpinnedReadyIsTakenByAnyWorker) {
  // A thread outside the runtime (caller_rank < 0) readies units whose
  // home is worker 0; a worker that is not the home must be able to run
  // them — through pop_local, try_next, and acquire.
  gs::WsCore<int*> core(cfg(3));
  int a = 0, b = 0, c = 0, d = 0;
  core.ready(/*caller=*/-1, /*home=*/0, /*pinned=*/false, /*fifo=*/false, &a);
  EXPECT_TRUE(core.maybe_work(2, false)) << "inject queue is visible to all";
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(2, &tick), &a) << "non-home worker pops it";
  EXPECT_FALSE(core.maybe_work(0, false));

  core.ready(-1, 0, false, /*fifo=*/true, &b);
  glto::common::FastRng rng(11);
  EXPECT_EQ(core.try_next(1, &tick, rng, /*with_main=*/false), &b)
      << "a yield-style (fifo) foreign ready is injected too";

  core.submit(/*caller=*/-1, /*target=*/0, /*pinned=*/false, &d);
  EXPECT_EQ(core.pop_local(2, &tick), &d) << "foreign unpinned submit";
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);

  // Shutdown first: acquire then probes everything once and returns null
  // instead of blocking if the unit is out of its reach.
  core.ready(-1, 0, false, false, &c);
  core.request_shutdown();
  gs::AcquireState st(3);
  EXPECT_EQ(core.acquire(1, st, /*with_main=*/false), &c);
}

TEST(WsCore, ForeignPinnedReadyStaysOwnerOnly) {
  gs::WsCore<int*> core(cfg(3));
  int x = 0;
  core.ready(/*caller=*/-1, /*home=*/1, /*pinned=*/true, /*fifo=*/false, &x);
  unsigned tick = 0;
  glto::common::FastRng rng(5);
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
  EXPECT_EQ(core.pop_local(2, &tick), nullptr);
  EXPECT_EQ(core.try_steal(0, rng), nullptr);
  EXPECT_FALSE(core.maybe_work(2, false));
  EXPECT_EQ(core.pop_local(1, &tick), &x) << "only the home owner runs it";
}

TEST(WsCore, InjectedUnitCannotStarveBehindSpawnStorm) {
  // Worker 0's deque never drains (one owner spawn before every pop), yet
  // the every-64th-pop inject-first check must serve a unit injected for
  // home worker 1.
  gs::WsCore<int*> core(cfg(2));
  std::vector<int> storm(64, 0);
  for (int& s : storm) core.submit(0, 0, /*pinned=*/false, &s);
  int injected = 0;
  core.ready(-1, /*home=*/1, /*pinned=*/false, /*fifo=*/false, &injected);
  unsigned tick = 0;
  int pops = 0;
  bool served = false;
  for (std::size_t i = 0; i < storm.size() && !served; ++i) {
    core.submit(0, 0, false, &storm[i]);
    ++pops;
    served = core.pop_local(0, &tick) == &injected;
  }
  EXPECT_TRUE(served) << "injected unit not served within 64 pops";
  EXPECT_LE(pops, 64);
}

TEST(WsCore, ForeignReadyWakesExactlyOneIdleWorker) {
  // Every worker parks in acquire. One foreign ready must claim exactly one
  // idle bit (wakes_issued +1), and the claimed worker's acquire returns
  // the unit. A parked worker whose timed park expires may rarely beat the
  // woken one to it, so rounds repeat until the woken worker wins once;
  // the one-wake-per-deposit bound must hold in every round.
  gs::WsCoreConfig c = cfg(3);
  c.wake_policy = gs::WakePolicy::One;
  gs::WsCore<int*> core(c);
  constexpr int kWorkers = 3;
  std::atomic<int> got_by{-1};
  std::vector<std::thread> workers;
  for (int r = 0; r < kWorkers; ++r) {
    workers.emplace_back([&, r] {
      gs::AcquireState st(static_cast<std::uint64_t>(r) + 1);
      while (core.acquire(r, st, /*with_main=*/false) != nullptr) {
        got_by.store(r, std::memory_order_release);
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto all_idle = [&] {
    for (int r = 0; r < kWorkers; ++r) {
      if (!core.idle_advertised(r)) return false;
    }
    return true;
  };
  int unit = 0;
  bool woken_worker_ran_it = false;
  for (int round = 0; round < 50 && !woken_worker_ran_it; ++round) {
    while (!all_idle()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::yield();
    }
    got_by.store(-1, std::memory_order_relaxed);
    const auto before = core.stats().wakes_issued;
    core.ready(/*caller=*/-1, /*home=*/0, /*pinned=*/false, /*fifo=*/false,
               &unit);
    const auto wakes = core.stats().wakes_issued - before;
    // The claim clears the woken worker's bit inside ready(); the others
    // stay advertised until a park times out.
    int woken = -1, cleared = 0;
    for (int r = 0; r < kWorkers; ++r) {
      if (!core.idle_advertised(r)) {
        woken = r;
        ++cleared;
      }
    }
    while (got_by.load(std::memory_order_acquire) < 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "injected unit never ran: lost foreign wake";
      std::this_thread::yield();
    }
    EXPECT_LE(wakes, 1u) << "one foreign deposit wakes at most one worker";
    woken_worker_ran_it = wakes == 1 && cleared == 1 &&
                          got_by.load(std::memory_order_acquire) == woken;
  }
  EXPECT_TRUE(woken_worker_ran_it);
  core.request_shutdown();
  for (auto& t : workers) t.join();
}

TEST(WsCore, SingleWorkerDrainsInjectQueue) {
  gs::WsCore<int*> core(cfg(1));
  int a = 0, b = 0;
  core.ready(-1, 0, /*pinned=*/false, /*fifo=*/false, &a);
  core.submit(-1, 0, /*pinned=*/false, &b);
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(0, &tick), &a);
  EXPECT_EQ(core.pop_local(0, &tick), &b);
  // A parked lone worker is woken by the foreign deposit.
  std::atomic<int*> got{nullptr};
  std::thread worker([&] {
    gs::AcquireState st(9);
    got.store(core.acquire(0, st, /*with_main=*/true));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!core.idle_advertised(0)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  core.ready(-1, 0, false, false, &a);
  worker.join();
  EXPECT_EQ(got.load(), &a);
}

TEST(WsCore, SharedPoolKeepsForeignPlacement) {
  // GLT_SHARED_QUEUES: a foreign ready and a foreign submit both land in
  // the one pool, which serves every worker whatever home/target they name.
  gs::WsCore<int*> core(cfg(3, /*shared=*/true));
  int x = 0, y = 0;
  core.ready(-1, /*home=*/2, /*pinned=*/false, /*fifo=*/false, &x);
  core.submit(-1, /*target=*/1, /*pinned=*/false, &y);
  unsigned tick = 0;
  EXPECT_EQ(core.pop_local(0, &tick), &x);
  EXPECT_EQ(core.pop_local(0, &tick), &y);
  EXPECT_EQ(core.pop_local(0, &tick), nullptr);
}

// ---------------------------------------------------------------- freelist

namespace {
struct Rec {
  int payload = 0;
};
}  // namespace

TEST(Freelist, RecyclesThroughOwnerList) {
  gs::Freelist<Rec> fl(2);
  EXPECT_EQ(fl.try_alloc(0), nullptr) << "starts empty";
  auto* a = new Rec();
  fl.recycle(0, a);
  EXPECT_EQ(fl.try_alloc(0), a) << "owner list returns the recycled record";
  fl.recycle(0, a);  // give it back for the dtor to free
}

TEST(Freelist, ForeignRecycleGoesThroughSlabAndRefills) {
  gs::Freelist<Rec> fl(2);
  std::vector<Rec*> recs;
  for (int i = 0; i < 40; ++i) {
    auto* r = new Rec();
    recs.push_back(r);
    fl.recycle(-1, r);  // foreign thread: slab path
  }
  EXPECT_EQ(fl.slab_size_approx(), 40u);
  // Worker 0 refills a batch from the slab lock-free thereafter.
  int got = 0;
  while (fl.try_alloc(0) != nullptr) ++got;
  EXPECT_EQ(got, 40) << "all foreign-recycled records become allocatable";
  for (Rec* r : recs) fl.recycle(0, r);  // dtor frees
}

TEST(Freelist, OversizedLocalListSpillsToSlab) {
  gs::Freelist<Rec> fl(2);
  const std::size_t n = gs::Freelist<Rec>::kSpillHigh + 8;
  for (std::size_t i = 0; i < n; ++i) fl.recycle(0, new Rec());
  EXPECT_GT(fl.slab_size_approx(), 0u)
      << "past kSpillHigh half the local list moves to the shared slab";
  // Worker 1 (whose list is empty) can now allocate from the slab.
  Rec* r = fl.try_alloc(1);
  ASSERT_NE(r, nullptr);
  fl.recycle(1, r);  // dtor frees everything still in the freelist
}

TEST(Freelist, RanksOutOfRangeFallBackToSlab) {
  gs::Freelist<Rec> fl(1);
  auto* r = new Rec();
  fl.recycle(7, r);  // out-of-range rank must not index a list
  EXPECT_EQ(fl.slab_size_approx(), 1u);
  // Out-of-range ranks allocate through the slab too: without this, a
  // process churning past the pool's worker count would recycle into the
  // slab forever and never drain it (unbounded growth).
  EXPECT_EQ(fl.try_alloc(7), r);
  EXPECT_EQ(fl.slab_size_approx(), 0u);
  EXPECT_EQ(fl.try_alloc(-1), nullptr) << "slab empty: caller allocates";
  fl.recycle(-1, r);
  EXPECT_EQ(fl.try_alloc(0), r) << "in-range refill still works";
  fl.recycle(0, r);
}

