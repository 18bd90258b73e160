// perfbench — runs one leg of one benchmark workload and prints its result
// as a single JSON line (perfbench/run.py drives it; see README.md here).
//
//   perfbench --workload NAME --seed N --seconds S [--traced] [--trace-out FILE]
//   perfbench --list
//
// Exit status: 0 when the correctness gate passed, 1 when it failed, 2 on
// bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "[--traced] [--trace-out FILE] | --list\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using srds::obs::Json;
  perfbench::LegOptions opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list") {
      for (const perfbench::WorkloadInfo& w : perfbench::workloads()) {
        std::printf("%s\t%s\n", w.name.c_str(), w.what.c_str());
      }
      return 0;
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed) return usage("--workload and --seed are required");
  if (!(opt.seconds > 0 && opt.seconds < 1e6)) return usage("--seconds must be positive");

  perfbench::LegResult r;
  try {
    r = perfbench::run_leg(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  Json errors = Json::array();
  for (const std::string& e : r.errors) errors.push_back(e);
  Json out = Json::object();
  out.set("workload", opt.workload);
  out.set("seed", opt.seed);
  out.set("traced", opt.traced);
  out.set("attempted", r.attempted);
  out.set("failed", r.failed);
  out.set("errors", std::move(errors));
  out.set("call_wall_s", r.call_wall_s);
  out.set("counts", std::move(r.counts));
  out.set(opt.traced ? "layers" : "metrics", opt.traced ? std::move(r.layers) : std::move(r.metrics));
  std::printf("%s\n", out.dump(-1).c_str());
  return r.errors.empty() ? 0 : 1;
}
