// facadebench: times the Amalur pipeline through its public facade.
//
//   facadebench --workload <star-augment|er-vfl|serve-refresh> --seed <n>
//               --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Prints a human-readable report, then one JSON line with every metric of
// the run: the end-to-end metrics with --trace 0, the per-layer metrics of
// the traced replay with --trace 1. facadebench/run.py builds this binary
// and turns its output into the benchmark's result line.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using facadebench::RunOptions;
using facadebench::RunResult;

int Usage(const char* message) {
  std::fprintf(stderr,
               "facadebench: %s\nusage: facadebench --workload "
               "<star-augment|er-vfl|serve-refresh> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               message);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  // The environment must not change what is measured: both variables
  // override settings the benchmark fixes (pool width, cost constants).
  for (const char* variable : {"AMALUR_NUM_THREADS", "AMALUR_CALIBRATION_FILE"}) {
    const char* value = std::getenv(variable);  // NOLINT(concurrency-mt-unsafe)
    if (value != nullptr && value[0] != '\0') {
      std::fprintf(stderr, "facadebench: unset %s; it would change what is "
                   "measured\n", variable);
      return 2;
    }
  }

  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  bool known = false;
  for (const std::string& name : facadebench::WorkloadNames()) {
    known |= name == options.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  options.nproc = std::max(1u, std::thread::hardware_concurrency());

  const RunResult result = facadebench::RunWorkload(options);

  std::printf("facadebench %s seed=%llu seconds=%g trace=%d nproc=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.nproc);
  for (const std::string& setting : result.settings) {
    std::printf("  setting %s\n", setting.c_str());
  }
  for (const facadebench::Metric& metric : result.metrics) {
    if (metric.samples > 0) {
      std::printf("  %-32s %14.6g %-7s (n=%zu)\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(), metric.samples);
    } else {
      std::printf("  %-32s %14.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::printf("  ops attempted=%zu failed=%zu%s\n", result.attempted,
              result.failed,
              options.trace ? (result.replay_equal ? " replay=equal"
                                                   : " replay=DIFFERS")
                            : "");
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED %s\n", failure.c_str());
  }

  std::string line = "{\"correct\": ";
  line += result.failed == 0 && result.replay_equal ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const facadebench::Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    line += (i == 0 ? "" : ", ") + JsonString(metric.name) +
            ": {\"value\": " + value + ", \"unit\": " +
            JsonString(metric.unit) +
            ", \"samples\": " + std::to_string(metric.samples) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
