// Campaign benchmark program. One invocation runs one workload in one mode
// and prints a single JSON line:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// Usage:
//   campaign_bench --workload db-window|pidgin-entry|pidgin-explore
//                  --seed N --seconds S [--mode measure|setup|trace]
//                  [--trace-out FILE]
//
// run.py builds this binary and combines several invocations into the
// benchmark's result line (see NOTES.md).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "util/strings.hpp"

namespace lfi::bench {

void Outcome::Fail(uint64_t scenarios, const std::string& why) {
  correct = false;
  failed += scenarios;
  std::fprintf(stderr, "campaign_bench: check failed (%llu scenarios): %s\n",
               static_cast<unsigned long long>(scenarios), why.c_str());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double SelfPeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload "
               "db-window|pidgin-entry|pidgin-explore --seed N --seconds S "
               "[--mode measure|setup|trace] [--trace-out FILE]\n");
  return 2;
}

void PrintOutcome(const Outcome& out) {
  std::string json = Format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += Format("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", m.name.c_str(), m.value,
                   m.unit.c_str());
  }
  json += "}}\n";
  std::fputs(json.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  using namespace lfi::bench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!lfi::ParseUint(value, &options.seed)) return Usage();
    } else if (flag == "--seconds") {
      if (!lfi::ParseDouble(value, &options.seconds) || options.seconds <= 0) {
        return Usage();
      }
    } else if (flag == "--mode") {
      if (value == "measure") options.mode = Mode::Measure;
      else if (value == "setup") options.mode = Mode::Setup;
      else if (value == "trace") options.mode = Mode::Trace;
      else return Usage();
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();

  Outcome out;
  if (IsCampaignWorkload(options.workload)) {
    out = RunCampaignWorkload(options);
  } else if (options.workload == "pidgin-explore") {
    out = RunExploreWorkload(options);
  } else {
    return Usage();
  }
  PrintOutcome(out);
  return 0;
}
