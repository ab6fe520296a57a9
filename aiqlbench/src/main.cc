// AIQL benchmark driver. One run of one workload:
//
//   aiqlbench --workload <hot-investigation|cold-investigation|served-ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--commit <rev>] [--tiny] [--corrupt-reference]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics, traced runs the per-layer metrics and the tracing overhead. The
// exit status is non-zero when any correctness check failed. Diagnostics,
// the run record and the span table go to standard error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using aiqlbench::Options;

int Usage(const char* why) {
  std::fprintf(stderr,
               "aiqlbench: %s\nusage: aiqlbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--commit <rev>] [--tiny] [--corrupt-reference]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (flag == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0) {
        return Usage("bad --seed");
      }
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0 || number > 600) {
        return Usage("bad --seconds");
      }
      options.seconds = number;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  aiqlbench::RunResult result;
  bool ran = false;
  if (options.workload == "hot-investigation") {
    ran = aiqlbench::RunLocalInvestigation(options, /*cold=*/false, &result);
  } else if (options.workload == "cold-investigation") {
    ran = aiqlbench::RunLocalInvestigation(options, /*cold=*/true, &result);
  } else if (options.workload == "served-ingest") {
    ran = aiqlbench::RunServedIngest(options, &result);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!ran) {
    std::fprintf(stderr, "aiqlbench: set-up failed\n");
    return 1;
  }
  bool correct = result.failed == 0 && result.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, measured] = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
            aiqlbench::Num(measured.first) + ", \"unit\": \"" +
            measured.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
