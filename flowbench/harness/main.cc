// flowbench_harness: the compiled half of the flowmotif end-to-end
// benchmark (see ../METRICS.md). Two commands:
//
//   flowbench_harness gen --workload W --seed N --out DIR [--scale X]
//       writes the workload's generated edge files into DIR
//   flowbench_harness run --workload W --seed N --seconds S --trace 0|1
//       --inputs DIR [--scale X] [--trace-out FILE] [--plant-wrong]
//       runs the workload on those files and prints the report; the
//       last stdout line is the JSON result
//
// run.py builds this harness and calls both commands in separate
// processes, so input generation never counts against the measured
// process.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: flowbench_harness gen --workload W --seed N --out DIR "
               "[--scale X]\n"
               "       flowbench_harness run --workload W --seed N --seconds S "
               "--trace 0|1 --inputs DIR [--scale X] [--trace-out FILE] "
               "[--plant-wrong]\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  flowbench::RunOptions options;
  std::string out_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong") {
      options.plant_wrong = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--inputs") {
      options.inputs = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return 2;
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0.0;
    } else if (flag == "--scale") {
      options.scale = number;
    } else {
      return Usage();
    }
  }
  flowbench::WorkloadInput input;
  if (!flowbench::LookupWorkload(options.workload, &input) || options.scale <= 0) {
    return Usage();
  }
  if (command == "gen") {
    if (out_dir.empty()) return Usage();
    return flowbench::GenerateInputs(options.workload, options.seed, options.scale,
                                     out_dir);
  }
  if (command != "run" || options.inputs.empty()) return Usage();
  if (options.workload == "analytic") return flowbench::RunAnalytic(options);
  if (options.workload == "study") return flowbench::RunStudy(options);
  return flowbench::RunLive(options);
}
