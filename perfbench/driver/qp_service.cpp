// qp-service: box-QP solves served by worker ULTs that recv from a
// bounded sched::Channel, fed by one OS thread outside the runtime.
//
// Per backend visit, four phases:
//   light    — open loop at kLightRps (workers idle between requests)
//   heavy    — open loop at kHeavyRps (sustained without a growing backlog;
//              traced runs only)
//   capacity — the feeder offers requests as fast as the channel accepts
//   closed   — apps::qpserver::run's own closed loop, deadlines armed
// Latency is timed from when a request was due, not from when it was sent.
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/bqp.hpp"
#include "apps/qpserver.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "sched/sync.hpp"

namespace perfbench {

namespace gl = glto::glt;
namespace bqp = glto::apps::bqp;
namespace qps = glto::apps::qpserver;
using glto::common::now_ns;

namespace {

// Fixed absolute rates (not fractions of a measured capacity, so a faster
// program is not offered more load). Light: about a sixth of one core's
// worth of 353 µs solves, workers park between requests. Heavy: half of
// what one GLT thread drains today, below the capacity ceiling, so the
// queue stays bounded on every backend.
constexpr double kLightRps = 500.0;
constexpr double kHeavyRps = 1500.0;

// qpserver's default request shape and service layout.
constexpr int kN = 48;
constexpr int kTile = 16;
constexpr int kRank = 4;
constexpr int kMaxIters = 40;
constexpr double kTol = 1e-10;
constexpr int kPool = 256;        ///< distinct problems requests draw from
constexpr int kWorkers = 8;       ///< worker ULTs (qpserver's concurrency)
constexpr int kQueueDepth = 64;   ///< channel capacity (qpserver's queue)
constexpr double kKktLimit = 1e-8;
constexpr int kSetupReps = 5;
constexpr int kRounds = 4;

struct Msg {
  std::uint32_t id;
  std::uint32_t prob;
};

/// Benchmark spans of one request (ns, common::now_ns clock).
struct Span {
  std::int64_t due = 0, sent = 0, recv = 0, start = 0, end = 0;
  int thread = -1;
  std::atomic<int> served{0};
  bool x_ok = false;
};

struct Pool {
  std::vector<bqp::Problem> problems;
  std::vector<bqp::Result> refs;
};

std::unique_ptr<Pool> g_pool;
std::uint64_t g_seed = 1;

struct PhaseCtx {
  glto::sched::Channel<Msg>* chan = nullptr;
  Span* spans = nullptr;
};

void worker_main(void* argp) {
  auto* ctx = static_cast<PhaseCtx*>(argp);
  Msg m{};
  while (ctx->chan->recv(m)) {
    Span& s = ctx->spans[m.id];
    s.recv = now_ns();
    s.thread = gl::thread_num();
    s.start = now_ns();
    const bqp::Result res =
        bqp::solve(g_pool->problems[m.prob], bqp::Mode::sequential, kMaxIters, kTol);
    s.end = now_ns();
    const bqp::Result& ref = g_pool->refs[m.prob];
    s.x_ok = res.converged && res.x == ref.x;
    s.served.fetch_add(1, std::memory_order_relaxed);
  }
}

struct PhaseResult {
  std::vector<Span> spans;
  std::vector<std::uint32_t> prob;
  double wall_s = 0.0;   ///< first send until the last request was solved
  double cpu_s = 0.0;    ///< process CPU over the phase
};

/// One phase: @p n requests; @p rps > 0 paces them open loop from due
/// times, rps == 0 sends back to back (the channel pushes back).
std::unique_ptr<PhaseResult> run_phase(int n, double rps, std::uint64_t phase_seed) {
  auto out = std::make_unique<PhaseResult>();
  out->spans = std::vector<Span>(static_cast<std::size_t>(n));
  out->prob.resize(static_cast<std::size_t>(n));
  glto::common::FastRng rng(phase_seed);
  for (auto& p : out->prob) p = static_cast<std::uint32_t>(rng.next() % kPool);

  glto::sched::Channel<Msg> chan(kQueueDepth);
  PhaseCtx ctx{&chan, out->spans.data()};
  std::vector<gl::Ult*> workers;
  for (int i = 0; i < kWorkers; ++i) workers.push_back(gl::ult_create(worker_main, &ctx));

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns() + 2'000'000;  // workers park first
  // The feeder is an OS thread outside the runtime; it closes the channel
  // after its last send, so the main ULT only ever blocks in ult_join
  // (a suspension) and never holds its GLT thread.
  std::thread feeder([&] {
    const double gap = rps > 0 ? 1e9 / rps : 0.0;
    for (int i = 0; i < n; ++i) {
      Span& s = out->spans[static_cast<std::size_t>(i)];
      if (rps > 0) {
        s.due = t0 + static_cast<std::int64_t>(gap * i);
        sleep_until_ns(s.due);
      } else if (i == 0) {
        sleep_until_ns(t0);
      }
      s.sent = now_ns();
      if (rps <= 0) s.due = s.sent;
      chan.send(Msg{static_cast<std::uint32_t>(i), out->prob[static_cast<std::size_t>(i)]});
    }
    chan.close();
  });
  for (gl::Ult* w : workers) gl::ult_join(w);
  feeder.join();
  std::int64_t last = 0;
  for (const Span& s : out->spans) last = s.end > last ? s.end : last;
  out->wall_s = static_cast<double>(last - out->spans[0].sent) * 1e-9;
  out->cpu_s = process_cpu_s() - cpu0;
  return out;
}

/// Checks every request of a phase: served exactly once, x equal to the
/// set-up reference of its problem. Returns the due→solved latencies (µs).
std::vector<double> check_phase(const PhaseResult& ph, Tally& tally, const char* what) {
  std::vector<double> lat;
  lat.reserve(ph.spans.size());
  for (const Span& s : ph.spans) {
    const int served = s.served.load(std::memory_order_relaxed);
    if (served != 1) {
      tally.fail((std::string(what) + ": request served != once").c_str(), served, 1);
    } else if (!s.x_ok) {
      tally.fail((std::string(what) + ": x differs from the reference").c_str(), 1, 0);
    } else {
      tally.ok();
    }
    lat.push_back(static_cast<double>(s.end - s.due) * 1e-3);
  }
  return lat;
}

template <class F>
std::vector<double> span_us(const PhaseResult& ph, F&& f) {
  std::vector<double> v;
  v.reserve(ph.spans.size());
  for (const Span& s : ph.spans) v.push_back(static_cast<double>(f(s)) * 1e-3);
  return v;
}

/// Problems one closed-loop measurement cycles through: qpserver::run
/// serves a single problem per call, so the measurement is split over
/// several calls with different seeds, keeping one seed's easy or hard
/// instance from setting the figure.
constexpr int kClosedSeeds = 8;

/// qpserver::run's closed loop on the live runtime, timed by the benchmark:
/// kClosedSeeds calls of @p requests / kClosedSeeds requests each, seconds
/// summed.
double closed_loop(int requests, bool deadlines, Tally& tally, const char* what) {
  const int per_call = requests / kClosedSeeds > 0 ? requests / kClosedSeeds : 1;
  double wall = 0.0;
  for (int k = 0; k < kClosedSeeds; ++k) {
    qps::Config c;
    c.requests = per_call;
    c.n = kN;
    c.tile = kTile;
    c.rank = kRank;
    c.max_iters = kMaxIters;
    c.seed = g_seed * kClosedSeeds + static_cast<std::uint64_t>(k);
    c.deadline_ms = deadlines ? 60'000 : 0;  // far beyond any wait
    const double t0 = now_s();
    const qps::Report rep = qps::run(c);
    wall += now_s() - t0;
    const bool clean = rep.completed == rep.offered && rep.shed == 0 &&
                       rep.deadline_missed == 0 && rep.not_converged == 0 &&
                       rep.offered == static_cast<std::uint64_t>(per_call);
    tally.check(clean, what, static_cast<double>(rep.completed), per_call);
  }
  return wall;
}

void write_spans(const std::string& path, const char* backend, const char* phase,
                 const PhaseResult& ph) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;
  for (std::size_t i = 0; i < ph.spans.size(); ++i) {
    const Span& s = ph.spans[i];
    std::fprintf(f, "%s,%s,%zu,%u,%lld,%lld,%lld,%lld,%lld,%d\n", backend, phase, i,
                 ph.prob[i], static_cast<long long>(s.due), static_cast<long long>(s.sent),
                 static_cast<long long>(s.recv), static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.thread);
  }
  std::fclose(f);
}

}  // namespace

std::string g_spans_path;

void qp_prepare(std::uint64_t seed, Tally& tally) {
  g_seed = seed;
  auto pool = std::make_unique<Pool>();
  for (int i = 0; i < kPool; ++i) {
    pool->problems.push_back(
        bqp::make_problem(kN, kTile, kRank, seed * 1'000'003 + static_cast<std::uint64_t>(i)));
    pool->refs.push_back(bqp::solve(pool->problems.back(), bqp::Mode::sequential, kMaxIters, kTol));
    const bqp::Result& ref = pool->refs.back();
    const double kkt = kkt_inf(pool->problems.back(), ref.x, ref.zl, ref.zu);
    tally.check(ref.converged && kkt <= kKktLimit, "qp-service: reference KKT residual",
                kkt, kKktLimit);
  }
  g_pool = std::move(pool);
}

namespace {

/// What the slots of one backend gathered over the run.
struct QpAcc {
  std::vector<std::unique_ptr<PhaseResult>> light, heavy, cap;
  std::vector<std::vector<double>> light_lat;  ///< per slot, µs from due
  std::vector<double> heavy_lat, cap_rps, closed_wall, steal;  ///< per slot
  double closed_untraced = 0.0, untimed_wall = 0.0;
  glto::sched::MetricsSnapshot cap_delta;  ///< registry delta, last capacity phase
};

/// One slot of a backend: light, heavy and capacity phases with nproc − 1
/// GLT threads (the feeder takes the last core), then the closed loop with
/// nproc GLT threads. Only @p traced slots run the heavy phase (its p99
/// proved too unsteady for an end-to-end metric, see README.md); they
/// also time the closed loop with the latency hooks off and once with
/// deadlines off.
void qp_slot(Run& r, const Backend& b, const QpPhaseScale& sc, bool traced, QpAcc& acc) {
  const int cores = host_cores();
  const std::uint64_t base = r.opt.seed * 131 + static_cast<std::uint64_t>(b.impl) * 17 +
                             acc.light.size() * 1009;
  const StealMeter meter;
  init_glt(b, cores > 1 ? cores - 1 : 1);
  acc.light.push_back(run_phase(static_cast<int>(kLightRps * sc.light_s), kLightRps, base + 1));
  acc.light_lat.push_back(check_phase(*acc.light.back(), r.tally, "qp-service light"));
  if (traced) {
    int heavy_n = static_cast<int>(kHeavyRps * sc.heavy_s);
    if (heavy_n < sc.heavy_min) heavy_n = sc.heavy_min;
    acc.heavy.push_back(run_phase(heavy_n, kHeavyRps, base + 2));
    for (double v : check_phase(*acc.heavy.back(), r.tally, "qp-service heavy")) {
      acc.heavy_lat.push_back(v);
    }
  }
  RegistryEpoch epoch;
  acc.cap.push_back(run_phase(sc.capacity_reqs, 0.0, base + 3));
  acc.cap_delta = epoch.delta();
  check_phase(*acc.cap.back(), r.tally, "qp-service capacity");
  acc.cap_rps.push_back(static_cast<double>(sc.capacity_reqs) / acc.cap.back()->wall_s);
  gl::finalize();

  init_glt(b, cores);
  if (traced) {
    glto::sched::metrics_set_for_testing(false);
    acc.closed_untraced = closed_loop(sc.closed_reqs, true, r.tally, "qp-service closed loop");
    glto::sched::metrics_set_for_testing(true);
  }
  acc.closed_wall.push_back(closed_loop(sc.closed_reqs, true, r.tally, "qp-service closed loop"));
  if (traced) {
    acc.untimed_wall =
        closed_loop(sc.closed_reqs, false, r.tally, "qp-service untimed closed loop");
  }
  gl::finalize();
  acc.steal.push_back(meter.share());
}

/// Per-layer metrics of one backend from its (single, traced) slot.
void qp_publish_traced(Run& r, const Backend& b, const QpPhaseScale& sc, const QpAcc& acc) {
  const std::string s = std::string(".") + b.name;
  const PhaseResult& light = *acc.light.back();
  const PhaseResult& heavy = *acc.heavy.back();
  const PhaseResult& cap = *acc.cap.back();
  // Spans: feed lateness (sent − due), queue wait (sent → received by a
  // worker) and solve (start → end); their light-rate medians should add
  // up to the light p50.
  const double late50 = median(span_us(light, [](const Span& x) { return x.sent - x.due; }));
  const double wait50 = median(span_us(light, [](const Span& x) { return x.recv - x.sent; }));
  const double solve50 = median(span_us(light, [](const Span& x) { return x.end - x.start; }));
  r.sink.put("qp.feed_late_p50_us" + s, late50, "us");
  r.sink.put("qp.queue_wait_p50_us" + s, wait50, "us");
  r.sink.put("qp.solve_p50_us" + s, solve50, "us");
  const double light_p50 = median(acc.light_lat.back());
  r.sink.put("qp.light_p50_us" + s, light_p50, "us");
  r.sink.put("qp.light_span_ratio" + s, (late50 + wait50 + solve50) / light_p50, "ratio");
  r.sink.put("qp.heavy_p99_us" + s, quantile(acc.heavy_lat, 0.99), "us");
  r.sink.put("qp.feed_late_p99_us" + s,
             quantile(span_us(heavy, [](const Span& x) { return x.sent - x.due; }), 0.99), "us");
  const int cores = host_cores();
  std::vector<int> per_thread(static_cast<std::size_t>(cores), 0);
  for (const Span& x : cap.spans) {
    if (x.thread >= 0 && x.thread < cores) ++per_thread[static_cast<std::size_t>(x.thread)];
  }
  int busiest = 0;
  for (int c : per_thread) busiest = c > busiest ? c : busiest;
  r.sink.put("qp.busiest_thread_share" + s,
             static_cast<double>(busiest) / static_cast<double>(cap.spans.size()), "ratio");
  r.sink.put("qp.capacity_rps" + s, acc.cap_rps.back(), "1/s");
  r.sink.put("qpserver.untimed_closed_rps" + s, sc.closed_reqs / acc.untimed_wall, "1/s");
  r.sink.put("qpserver.closed_rps" + s, sc.closed_reqs / acc.closed_wall.back(), "1/s");
}

}  // namespace

void qp_backend(Run& r, const Backend& b, const QpPhaseScale& sc) {
  QpAcc acc;
  qp_slot(r, b, sc, true, acc);
  qp_publish_traced(r, b, sc, acc);
}

void run_qp_service(Run& r) {
  std::vector<double> setups;
  const int cores = host_cores();
  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = now_s();
    Tally scratch;
    qp_prepare(r.opt.seed, k + 1 == kSetupReps ? r.tally : scratch);
    for (const Backend& b : backends()) {
      init_glt(b, cores > 1 ? cores - 1 : 1);
      run_phase(kWorkers * 4, 0.0, r.opt.seed + 99);
      gl::finalize();
    }
    setups.push_back(now_s() - t0);
  }
  r.sink.put("setup_s", median(setups), "s");

  // Untraced runs visit the backends round-robin kRounds times, so a
  // burst of outside load lands on all three, and report from the quieter
  // half of the visits (quiet_half). A slot gives the light
  // phase 3/8 of its time; capacity and the closed loop are sized to take
  // about 3/8 and 2/8 at today's rates. The traced run's single slot adds
  // the heavy phase (at least 1,000 requests).
  const int rounds = r.opt.trace ? 1 : kRounds;
  const double slot = r.opt.seconds / 3.0 / rounds;
  QpPhaseScale sc;
  sc.light_s = slot * 3.0 / 8.0;
  sc.heavy_s = slot * 2.0 / 8.0;
  sc.heavy_min = 1000;
  sc.capacity_reqs = static_cast<int>(slot * 3.0 / 8.0 * 2400.0);
  sc.closed_reqs = static_cast<int>(slot * 2.0 / 8.0 * 10000.0) / kClosedSeeds * kClosedSeeds;
  std::vector<QpAcc> acc(backends().size());
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < backends().size(); ++i) {
      qp_slot(r, backends()[i], sc, r.opt.trace, acc[i]);
    }
  }
  double traced = 0.0, untraced = 0.0;
  for (std::size_t i = 0; i < backends().size(); ++i) {
    const Backend& b = backends()[i];
    const std::string s = std::string(".") + b.name;
    if (r.opt.trace) {
      qp_publish_traced(r, b, sc, acc[i]);
      const PhaseResult& cap = *acc[i].cap.back();
      put_phase_metrics(r.sink, b.name, acc[i].cap_delta,
                        static_cast<double>(sc.capacity_reqs), cap.cpu_s, cap.wall_s);
      write_spans(g_spans_path, b.name, "light", *acc[i].light.back());
      write_spans(g_spans_path, b.name, "heavy", *acc[i].heavy.back());
      write_spans(g_spans_path, b.name, "capacity", cap);
      traced += acc[i].closed_wall.back();
      untraced += acc[i].closed_untraced;
    } else {
      std::vector<double> light, cap, closed;
      for (std::size_t k : quiet_half(acc[i].steal)) {
        light.insert(light.end(), acc[i].light_lat[k].begin(), acc[i].light_lat[k].end());
        cap.push_back(acc[i].cap_rps[k]);
        closed.push_back(acc[i].closed_wall[k]);
      }
      r.sink.put("wall_s" + s, median(closed), "s");
      r.sink.put("p50_us" + s, median(light), "us");
      r.sink.put("throughput" + s, median(cap), "1/s");
    }
  }
  if (r.opt.trace) r.sink.put("trace.overhead_ratio", traced / untraced, "ratio");
}

}  // namespace perfbench
