// perfbench_driver — runs one benchmark workload on the three GLTO
// backends and prints every metric it measured as one JSON line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--spans <file>] [--baseline 1]
//
// --baseline 1 runs cg-tasks, nested-regions or bqp-dag on the GNU-like
// and Intel-like pthread runtimes instead of the GLTO backends, for the
// README's reference figures (metric suffixes .gnu and .intel).
// Exit status 0 when every output check passed, 1 when one failed, 2 on
// a usage error. run.py builds this binary and selects the metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "cg-tasks|nested-regions|bqp-dag|qp-service --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--baseline 1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--baseline") {
      opt.baseline = v == "1";
    } else if (k == "--spans") {
      perfbench::g_spans_path = v;
    } else {
      return usage(("unknown option " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (opt.seconds <= 0) return usage("--seconds must be positive");
  if (opt.baseline && (opt.trace || opt.workload == "qp-service")) {
    return usage("--baseline runs the untraced omp workloads only");
  }
  // The traced mode arms the program's metrics registry (latency
  // histograms) before any runtime reads its environment.
  if (opt.trace) setenv("GLTO_METRICS", "1", 1);

  const perfbench::StealMeter steal;
  perfbench::Sink sink;
  perfbench::Tally tally;
  perfbench::Run run{opt, sink, tally};
  if (opt.workload == "cg-tasks") {
    perfbench::run_cg_tasks(run);
  } else if (opt.workload == "nested-regions") {
    perfbench::run_nested_regions(run);
  } else if (opt.workload == "bqp-dag") {
    perfbench::run_bqp_dag(run);
  } else if (opt.workload == "qp-service") {
    perfbench::run_qp_service(run);
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (opt.trace) perfbench::run_ladder(run);
  std::fprintf(stderr, "perfbench: host steal %.1f%% of CPU time during the run\n",
               steal.share() * 100.0);
  sink.put("proc.steal_share", steal.share(), "ratio");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  const char* sep = "";
  for (const auto& [name, m] : sink.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return tally.failed == 0 ? 0 : 1;
}
