#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace perfbench {

namespace gl = glto::glt;
namespace om = glto::omp;

const std::vector<Backend>& backends() {
  static const std::vector<Backend> v = {
      {"abt", gl::Impl::abt, om::RuntimeKind::glto_abt},
      {"qth", gl::Impl::qth, om::RuntimeKind::glto_qth},
      {"mth", gl::Impl::mth, om::RuntimeKind::glto_mth},
  };
  return v;
}

const std::vector<Backend>& baselines() {
  static const std::vector<Backend> v = {
      {"gnu", gl::Impl::abt, om::RuntimeKind::gnu},
      {"intel", gl::Impl::abt, om::RuntimeKind::intel},
  };
  return v;
}

int host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Sink::put(const std::string& name, double value, const std::string& unit) {
  m_[name] = Metric{value, unit};
}

double Sink::get(const std::string& name) const {
  auto it = m_.find(name);
  return it == m_.end() ? 0.0 : it->second.value;
}

void Tally::fail(const char* what, double got, double limit) {
  ++attempted;
  ++failed;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s (got %.6g, limit %.6g)\n",
               what, got, limit);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double now_s() { return glto::common::now_sec(); }

void sleep_until_ns(std::int64_t t_ns) {
  // common::now_ns reads steady_clock, which is CLOCK_MONOTONIC on Linux.
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

StealMeter::Jiffies StealMeter::read() {
  Jiffies j;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && f; ++i) {
    double v = 0.0;
    f >> v;
    j.all += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

double StealMeter::share() const {
  const Jiffies now = read();
  return now.all > start_.all ? (now.steal - start_.steal) / (now.all - start_.all) : 0.0;
}

std::vector<std::size_t> quiet_half(const std::vector<double>& steal) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  idx.resize((idx.size() + 1) / 2);
  return idx;
}

void RegistryEpoch::mark() {
  // The latency histograms are process-wide gauges; restart them so the
  // percentiles describe this epoch only.
  glto::sched::queue_delay_hist().reset();
  glto::sched::service_time_hist().reset();
  base_ = glto::sched::metrics_snapshot();
}

glto::sched::MetricsSnapshot RegistryEpoch::delta() {
  return glto::sched::metrics_delta_since(base_);
}

void put_phase_metrics(Sink& sink, const char* b,
                       const glto::sched::MetricsSnapshot& d, double ops,
                       double cpu_s, double wall_s) {
  const std::string s = std::string(".") + b;
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  auto v = [&](const char* n) { return static_cast<double>(d.value(n)); };
  sink.put("sched.steals_per_op" + s, v("sched.steals") * per, "count");
  sink.put("sched.failed_steals_per_op" + s, v("sched.failed_steals") * per,
           "count");
  sink.put("sched.wakes_spurious_per_op" + s, v("sched.wakes_spurious") * per,
           "count");
  sink.put("sched.parks_per_op" + s, v("sched.parks") * per, "count");
  sink.put("sched.suspensions_per_op" + s, v("sched.suspensions") * per,
           "count");
  sink.put("glt.ults_per_op" + s, v("glt.ults_created") * per, "count");
  sink.put("sched.queue_delay_p50_us" + s, v("lat.queue_p50_ns") * 1e-3, "us");
  sink.put("sched.queue_delay_p95_us" + s, v("lat.queue_p95_ns") * 1e-3, "us");
  const double reg = v("deps.registered");
  sink.put("taskdep.deferred_per_task" + s,
           reg > 0 ? v("deps.deferred") / reg : 0.0, "ratio");
  sink.put("proc.cores_busy" + s, wall_s > 0 ? cpu_s / wall_s : 0.0, "cores");
}

void select_omp(const Backend& b, int threads) {
  om::SelectOptions so;
  so.num_threads = threads;
  so.nested = true;
  om::select(b.kind, so);
}

void init_glt(const Backend& b, int threads) {
  gl::Config c;
  c.impl = b.impl;
  c.num_threads = threads;
  gl::init(c);
}

double kkt_inf(const glto::apps::bqp::Problem& p, const std::vector<double>& x,
               const std::vector<double>& zl, const std::vector<double>& zu) {
  const auto n = static_cast<std::size_t>(p.n);
  const auto r = static_cast<std::size_t>(p.rank);
  std::vector<double> vtx(r, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < r; ++j) vtx[j] += p.V[i * r + j] * x[i];
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double hx = p.d[i] * x[i];
    for (std::size_t j = 0; j < r; ++j) hx += p.V[i * r + j] * vtx[j];
    const double lo = p.lb[i], hi = p.ub[i];
    worst = std::max(worst, std::fabs(hx + p.g[i] - zl[i] + zu[i]));
    worst = std::max(worst, lo - x[i]);
    worst = std::max(worst, x[i] - hi);
    worst = std::max(worst, -zl[i]);
    worst = std::max(worst, -zu[i]);
    worst = std::max(worst, std::fabs(zl[i] * (x[i] - lo)));
    worst = std::max(worst, std::fabs(zu[i] * (hi - x[i])));
  }
  return worst;
}

std::vector<double> cg_rhs(std::uint64_t seed, int n) {
  glto::common::FastRng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = 2.0 * rng.next_double() - 1.0;
  return b;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return HUGE_VAL;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace perfbench
