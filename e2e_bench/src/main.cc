// End-to-end serving benchmark program.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints every metric it measured, then one JSON result line. Exits 1 on
// any wrong answer, 2 on bad arguments or a failed set-up.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (k == "--trace-out") {
      args.trace_out = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (!(args.seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (args.workload == "adhoc_tpch") return e2e::RunAdhocTpch(args);
  if (args.workload == "shared_serving") return e2e::RunSharedServing(args);
  if (args.workload == "ingest_serve") return e2e::RunIngestServe(args);
  if (args.workload == "anytime_topk") return e2e::RunAnytimeTopk(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
