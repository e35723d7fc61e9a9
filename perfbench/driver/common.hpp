// Shared plumbing of the benchmark driver: options, the metric sink, order
// statistics, process CPU accounting, registry deltas and the runtime
// switches every workload goes through.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/bqp.hpp"
#include "glt/glt.hpp"
#include "omp/omp.hpp"
#include "sched/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run the batch workloads on the pthread runtimes instead (the paper's
  /// baseline; reference figures only, never part of a scored run).
  bool baseline = false;
};

/// The three GLTO backends, in the order every workload visits them.
struct Backend {
  const char* name;  ///< metric suffix: abt, qth, mth
  glto::glt::Impl impl;
  glto::omp::RuntimeKind kind;
};
const std::vector<Backend>& backends();

/// The GNU-like and Intel-like pthread runtimes (omp layer only).
const std::vector<Backend>& baselines();

/// Hardware threads the benchmark sizes its runtimes to.
int host_cores();

/// Metric sink. End-to-end and per-layer metrics share one map; main()
/// prints the set the run was asked for.
struct Metric {
  double value = 0.0;
  std::string unit;
};
class Sink {
 public:
  void put(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::map<std::string, Metric>& all() const { return m_; }
  [[nodiscard]] double get(const std::string& name) const;

 private:
  std::map<std::string, Metric> m_;
};

/// Operation accounting: every check that fails counts one failed
/// operation and prints why on stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void ok() { ++attempted; }
  void fail(const char* what, double got, double limit);
  void check(bool good, const char* what, double got, double limit) {
    if (good) {
      ok();
    } else {
      fail(what, got, limit);
    }
  }
};

/// Linear-interpolated quantile q in [0, 1] of @p v (copied, sorted).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// CPU seconds (user + system) of the whole process so far.
double process_cpu_s();

/// Wall-clock seconds on the steady clock.
double now_s();

/// Sleeps the calling OS thread until the absolute steady-clock time
/// @p t_ns (common::now_ns clock).
void sleep_until_ns(std::int64_t t_ns);

/// CPU time the hypervisor gave this machine's CPUs to someone else
/// (/proc/stat steal), as a share of all CPU time since construction; 0
/// where /proc/stat cannot be read. On a shared host it is the main source
/// of run-to-run spread.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  [[nodiscard]] double share() const;

 private:
  struct Jiffies {
    double all = 0.0, steal = 0.0;
  };
  static Jiffies read();
  Jiffies start_;
};

/// Indices of the quieter half (rounded up) of measurement slots whose
/// steal shares are @p steal. The end-to-end figures describe the program
/// on a host that runs it undisturbed, so each comes from the slots where
/// the hypervisor took the least.
std::vector<std::size_t> quiet_half(const std::vector<double>& steal);

/// Registry epoch: counter deltas since the last mark(), which also
/// restarts the latency histograms.
class RegistryEpoch {
 public:
  RegistryEpoch() { mark(); }
  void mark();
  /// Delta of every counter since mark(); gauges as they read now.
  [[nodiscard]] glto::sched::MetricsSnapshot delta();

 private:
  glto::sched::MetricsSnapshot base_;
};

/// Publishes the generic per-phase registry metrics of one backend:
/// steals, failed steals, spurious wakes, parks, suspensions and ULTs per
/// operation, queue-delay percentiles, deferred dependences per task and
/// cores busy (CPU seconds over wall seconds).
void put_phase_metrics(Sink& sink, const char* b,
                       const glto::sched::MetricsSnapshot& d, double ops,
                       double cpu_s, double wall_s);

/// omp::select of a GLTO runtime sized to @p threads (nested on).
void select_omp(const Backend& b, int threads);

/// glt::init of a backend with @p threads GLT threads.
void init_glt(const Backend& b, int threads);

/// Box-QP KKT residual recomputed from the Problem data alone (H applied
/// as diag(d) + V Vᵀ): stationarity, box feasibility, multiplier sign and
/// complementarity, as an inf-norm.
double kkt_inf(const glto::apps::bqp::Problem& p, const std::vector<double>& x,
               const std::vector<double>& zl, const std::vector<double>& zu);

/// The cg-tasks right-hand side: @p n values in [-1, 1) from @p seed.
std::vector<double> cg_rhs(std::uint64_t seed, int n);

/// Largest |a_i - b_i|.
double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b);

/// Per-workload entry points (each fills @p sink and @p tally).
struct Run {
  const Options& opt;
  Sink& sink;
  Tally& tally;
};
void run_cg_tasks(Run& r);
void run_nested_regions(Run& r);
void run_bqp_dag(Run& r);
void run_qp_service(Run& r);

/// The traced mode's unit-cost ladder: timed loops over each module's
/// public calls, on every backend where the call applies.
void run_ladder(Run& r);

/// Sizes of one backend's visit to the qp-service phases.
struct QpPhaseScale {
  double light_s = 0.0;     ///< duration of the light open-loop phase
  double heavy_s = 0.0;     ///< duration of the heavy open-loop phase
  int heavy_min = 0;        ///< at least this many heavy requests
  int capacity_reqs = 0;    ///< requests the saturating feeder offers
  int closed_reqs = 0;      ///< qpserver::run requests (deadlines armed)
};
/// A short traced probe of the qp-service phases on one backend, for the
/// qp.* per-layer metrics of the workloads that are not qp-service.
void qp_backend(Run& r, const Backend& b, const QpPhaseScale& scale);

/// Seeded set-up shared by qp_backend calls (problem pool + references).
void qp_prepare(std::uint64_t seed, Tally& tally);

/// Where the traced qp-service run appends its per-request spans (CSV);
/// empty: nowhere.
extern std::string g_spans_path;

}  // namespace perfbench
