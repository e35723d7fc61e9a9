// The three batch workloads: task-parallel CG, nested regions (Listing 1)
// and the taskdep box-QP DAG. Each visits abt, qth and mth round-robin and
// repeats its operation for an equal share of the run on each visit.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "apps/bqp.hpp"
#include "apps/cg.hpp"
#include "common.hpp"
#include "sched/metrics.hpp"

namespace perfbench {

namespace om = glto::omp;
namespace cg = glto::apps::cg;
namespace bqp = glto::apps::bqp;

namespace {

/// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Warm-up operations per runtime inside each set-up.
constexpr int kWarmOps = 3;
/// Untraced runs visit the backends round-robin this many times, so a
/// burst of outside load lands on all three instead of on one, and report
/// from the quieter half of the visits (quiet_half).
constexpr int kRounds = 6;

struct OpStats {
  std::vector<double> seconds;  ///< one entry per operation
  std::vector<double> per_unit; ///< seconds per fine-grained unit, per op
  double units = 0.0;           ///< fine-grained units done
  double wall = 0.0;
};

/// Repeats @p op (returning the units it did) until @p budget_s passed,
/// at least once.
template <class Op>
void time_ops(double budget_s, OpStats& s, Op&& op) {
  const double start = now_s();
  do {
    const double t0 = now_s();
    const double u = op();
    const double dt = now_s() - t0;
    s.seconds.push_back(dt);
    s.per_unit.push_back(u > 0 ? dt / u : dt);
    s.units += u;
  } while (now_s() - start < budget_s);
  s.wall += now_s() - start;
}

/// Drives one batch workload: set-up kSetupReps times (inputs, references,
/// one warm operation per runtime), then the run's seconds split evenly
/// over the runtimes. @p make(seed) builds the inputs; @p op(inputs,
/// tally) runs and checks one operation and returns its fine-grained
/// units (tally == nullptr: warm-up, not counted); @p phase_ops(delta,
/// units, nops) gives the traced metrics' per-operation denominator.
template <class Make, class Op, class PhaseOps>
void batch_workload(Run& r, Make&& make, Op&& op, PhaseOps&& phase_ops) {
  const int cores = host_cores();
  const std::vector<Backend>& runtimes = r.opt.baseline ? baselines() : backends();
  std::vector<double> setups;
  decltype(make(r.opt.seed)) in;
  for (int k = 0; k < kSetupReps; ++k) {
    const double t0 = now_s();
    in = make(r.opt.seed);
    for (const Backend& b : runtimes) {
      select_omp(b, cores);
      for (int w = 0; w < kWarmOps; ++w) op(*in, nullptr);
      om::shutdown();
    }
    setups.push_back(now_s() - t0);
  }
  r.sink.put("setup_s", median(setups), "s");

  const auto nrt = static_cast<double>(runtimes.size());
  if (r.opt.trace) {
    // One contiguous slot per backend: the registry deltas describe it.
    double traced_sum = 0.0, untraced_sum = 0.0;
    for (const Backend& b : runtimes) {
      select_omp(b, cores);
      // Same operation with the registry's latency hooks off, for the
      // cost of observing (trace.overhead_ratio).
      glto::sched::metrics_set_for_testing(false);
      OpStats off, on;
      time_ops(r.opt.seconds / nrt * 0.3, off, [&] { return op(*in, &r.tally); });
      glto::sched::metrics_set_for_testing(true);
      RegistryEpoch epoch;
      const double cpu0 = process_cpu_s();
      time_ops(r.opt.seconds / nrt * 0.7, on, [&] { return op(*in, &r.tally); });
      const double cpu = process_cpu_s() - cpu0;
      const glto::sched::MetricsSnapshot d = epoch.delta();
      put_phase_metrics(r.sink, b.name, d,
                        phase_ops(d, on.units, static_cast<double>(on.seconds.size())),
                        cpu, on.wall);
      untraced_sum += median(off.seconds);
      traced_sum += median(on.seconds);
      om::shutdown();
    }
    r.sink.put("trace.overhead_ratio", traced_sum / untraced_sum, "ratio");
    return;
  }
  // slots[i][round]: one visit to runtime i, with the host steal during it.
  std::vector<std::vector<OpStats>> slots(runtimes.size(), std::vector<OpStats>(kRounds));
  std::vector<std::vector<double>> steal(runtimes.size(), std::vector<double>(kRounds));
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < runtimes.size(); ++i) {
      select_omp(runtimes[i], cores);
      const StealMeter meter;
      time_ops(r.opt.seconds / nrt / kRounds, slots[i][static_cast<std::size_t>(round)],
               [&] { return op(*in, &r.tally); });
      steal[i][static_cast<std::size_t>(round)] = meter.share();
      om::shutdown();
    }
  }
  for (std::size_t i = 0; i < runtimes.size(); ++i) {
    std::vector<double> seconds, per_unit;
    for (std::size_t k : quiet_half(steal[i])) {
      const OpStats& q = slots[i][k];
      seconds.insert(seconds.end(), q.seconds.begin(), q.seconds.end());
      per_unit.insert(per_unit.end(), q.per_unit.begin(), q.per_unit.end());
    }
    const std::string s = std::string(".") + runtimes[i].name;
    const double unit = median(per_unit);
    r.sink.put("wall_s" + s, median(seconds), "s");
    r.sink.put("p50_us" + s, unit * 1e6, "us");
    r.sink.put("throughput" + s, 1.0 / unit, "1/s");
  }
}

// ---------------------------------------------------------------- cg-tasks

constexpr int kCgRowsPerTask = 10;
constexpr double kCgTol = 1e-6;
constexpr int kCgMaxIters = 1000;

struct CgInputs {
  cg::Csr a;
  std::vector<double> b;
  std::vector<double> x;
};

/// ‖b − A x‖₂ / ‖b‖₂ with the benchmark's own CSR product.
double cg_rel_residual(const CgInputs& in) {
  const cg::Csr& a = in.a;
  double rr = 0.0, bb = 0.0;
  for (int i = 0; i < a.n; ++i) {
    double ax = 0.0;
    for (int k = a.rowptr[static_cast<std::size_t>(i)];
         k < a.rowptr[static_cast<std::size_t>(i) + 1]; ++k) {
      ax += a.val[static_cast<std::size_t>(k)] *
            in.x[static_cast<std::size_t>(a.col[static_cast<std::size_t>(k)])];
    }
    const double ri = in.b[static_cast<std::size_t>(i)] - ax;
    rr += ri * ri;
    bb += in.b[static_cast<std::size_t>(i)] * in.b[static_cast<std::size_t>(i)];
  }
  return std::sqrt(rr / bb);
}

}  // namespace

void run_cg_tasks(Run& r) {
  auto make = [](std::uint64_t seed) {
    auto in = std::make_unique<CgInputs>();
    in->a = cg::make_spd_pentadiagonal(cg::kPaperRows);
    in->b = cg_rhs(seed, in->a.n);
    return in;
  };
  auto op = [](CgInputs& in, Tally* tally) -> double {
    const cg::Result res =
        cg::solve_tasks(in.a, in.b, in.x, tally ? kCgMaxIters : 2, kCgTol,
                        kCgRowsPerTask);
    if (tally == nullptr) return 0.0;
    const double rel = cg_rel_residual(in);
    tally->check(res.converged && rel <= kCgTol, "cg-tasks: relative residual",
                 rel, kCgTol);
    return res.iterations;
  };
  auto per_task = [](const glto::sched::MetricsSnapshot& d, double, double nops) {
    const double tasks = static_cast<double>(d.value("lat.service_count"));
    return tasks > 0 ? tasks : nops;
  };
  batch_workload(r, make, op, per_task);
}

// ---------------------------------------------------------- nested-regions

namespace {

constexpr int kNestedN = 1000;

struct NestedInputs {
  int n = kNestedN;
  int team = 0;                   ///< requested size of every team
  std::vector<std::uint8_t> hit;  ///< n × n: times (outer, inner) ran
  std::vector<int> inner_team;    ///< per outer index: inner team size seen
};

}  // namespace

void run_nested_regions(Run& r) {
  auto make = [](std::uint64_t) {
    auto in = std::make_unique<NestedInputs>();
    in->team = host_cores();
    in->hit.assign(static_cast<std::size_t>(in->n) * in->n, 0);
    in->inner_team.assign(static_cast<std::size_t>(in->n), 0);
    return in;
  };
  auto op = [](NestedInputs& in, Tally* tally) -> double {
    const std::int64_t n = in.n;
    std::uint8_t* hit = in.hit.data();
    int* inner_team = in.inner_team.data();
    const int team = in.team;
    om::parallel(team, [&](int, int) {
      om::loop(0, n, {om::Schedule::Static, 0}, [&](std::int64_t o) {
        om::parallel(team, [&](int tid, int size) {
          if (tid == 0) inner_team[o] = size;
          om::loop(0, n, {om::Schedule::Static, 0}, [&](std::int64_t i) {
            ++hit[o * n + i];
          });
        });
      });
    });
    const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    std::size_t bad_cells = 0, bad_teams = 0;
    for (std::size_t c = 0; c < cells; ++c) bad_cells += hit[c] != 1;
    for (std::int64_t o = 0; o < n; ++o) bad_teams += inner_team[o] != team;
    std::memset(hit, 0, cells);
    std::fill(in.inner_team.begin(), in.inner_team.end(), 0);
    if (tally != nullptr) {
      tally->check(bad_cells == 0, "nested-regions: (outer, inner) run != once",
                   static_cast<double>(bad_cells), 0);
      tally->check(bad_teams == 0, "nested-regions: inner team size",
                   static_cast<double>(bad_teams), 0);
    }
    return static_cast<double>(n);  // inner regions opened
  };
  auto per_region = [](const glto::sched::MetricsSnapshot&, double units, double) {
    return units;
  };
  batch_workload(r, make, op, per_region);
}

// ----------------------------------------------------------------- bqp-dag

namespace {

constexpr int kDagN = 192;
constexpr int kDagTile = 16;
constexpr int kDagRank = 4;
constexpr double kDagSolverTol = 1e-10;
/// Solver tolerance class: the recomputed KKT residual and the distance to
/// the sequential reference may exceed the solver's own 1e-10 stop test by
/// rounding only.
constexpr double kDagKktLimit = 1e-8;
constexpr double kDagXLimit = 1e-8;

/// Problems per run: an operation solves each once, so one seed's easy or
/// hard instance does not set the run's figures.
constexpr int kDagPool = 8;

struct DagInputs {
  std::vector<bqp::Problem> p;
  std::vector<bqp::Result> ref;  ///< Mode::sequential, made outside any runtime
};

}  // namespace

void run_bqp_dag(Run& r) {
  Tally& tally = r.tally;
  auto make = [&tally](std::uint64_t seed) {
    auto in = std::make_unique<DagInputs>();
    for (int k = 0; k < kDagPool; ++k) {
      in->p.push_back(bqp::make_problem(kDagN, kDagTile, kDagRank,
                                        seed * 7919 + 3 + static_cast<std::uint64_t>(k)));
      in->ref.push_back(bqp::solve(in->p.back(), bqp::Mode::sequential, 60, kDagSolverTol));
      const bqp::Result& ref = in->ref.back();
      const double kkt = kkt_inf(in->p.back(), ref.x, ref.zl, ref.zu);
      tally.check(ref.converged && kkt <= kDagKktLimit, "bqp-dag: reference KKT residual",
                  kkt, kDagKktLimit);
    }
    return in;
  };
  auto op = [](DagInputs& in, Tally* t) -> double {
    double iters = 0.0;
    for (std::size_t k = 0; k < in.p.size(); ++k) {
      const bqp::Result res = bqp::solve(in.p[k], bqp::Mode::taskdep, 60, kDagSolverTol);
      iters += res.iters;
      if (t == nullptr) return 0.0;  // warm-up: one solve is enough
      const double dx = max_abs_diff(res.x, in.ref[k].x);
      const double kkt = kkt_inf(in.p[k], res.x, res.zl, res.zu);
      t->check(res.converged && dx <= kDagXLimit, "bqp-dag: x vs sequential reference", dx,
               kDagXLimit);
      t->check(kkt <= kDagKktLimit, "bqp-dag: KKT residual", kkt, kDagKktLimit);
    }
    return iters;
  };
  auto per_task = [](const glto::sched::MetricsSnapshot& d, double, double nops) {
    const double tasks = static_cast<double>(d.value("lat.service_count"));
    return tasks > 0 ? tasks : nops;
  };
  batch_workload(r, make, op, per_task);
}

}  // namespace perfbench
