// perfbench: runs one workload of the pimtc benchmark and prints its
// metrics.  Normally started by run.py, which builds it first:
//
//   perfbench --workload static-file|stream-churn|serve-openloop
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// The last line of stdout is the run's JSON result.  Exit status: 0 when
// every correctness check passed, 1 when one failed (the JSON still
// prints, with "correct": false), 2 on a usage or runtime error (no JSON).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "static-file|stream-churn|serve-openloop --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key + ": " + value).c_str());
    }
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  perfbench::Tracer tracer;
  perfbench::RunResult result;
  try {
    if (opt.workload == "static-file") {
      perfbench::run_static_file(opt, tracer, result);
    } else if (opt.workload == "stream-churn") {
      perfbench::run_stream_churn(opt, tracer, result);
    } else if (opt.workload == "serve-openloop") {
      perfbench::run_serve_openloop(opt, tracer, result);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }
  for (const std::string& line : result.lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%s\n", result.to_json().c_str());
  return result.correct ? 0 : 1;
}
