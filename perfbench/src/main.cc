// Benchmark program: runs one workload for --seconds and prints the
// result line (see bench.h). Usage:
//   perfbench --workload ladder_lenet|serve_mixed --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
#include <cstdio>
#include <exception>

#include "workloads.h"

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    perfbench::Report rep;
    perfbench::Tracer tr(args.trace);
    if (args.workload == "ladder_lenet") {
      perfbench::run_ladder_lenet(args, tr, rep);
    } else if (args.workload == "serve_mixed") {
      perfbench::run_serve_mixed(args, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    if (args.trace) {
      perfbench::probe_ladder_layers(args, tr, rep);
      perfbench::probe_serve_layers(args, tr, rep);
      perfbench::probe_train_layers(args, tr, rep);
      tr.print_self_times(30);
      const std::string path = args.out_dir + "/trace_" + args.workload + ".json";
      rep.require(tr.write_chrome_json(path), "chrome trace written to " + path);
    }
    return rep.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 2;
}
