// pfbench: the measuring half of the benchmark of record (perfbench/run.py
// builds it, runs it and turns its raw samples into the report).
//
//   pfbench cold    --sf S --doc-seed D --digests F --seed N --seconds T
//                   --trace 0|1 --min-passes P --out RAW.json
//                   --spans SPANS.json
//   pfbench serve   --server PF_SERVE --sf S --docs N --write-docs W
//                   --update-share U --structural-share V --rate R
//                   --setups K --seed N --seconds T --trace 0|1
//                   --out RAW.json --spans SPANS.json
//   pfbench digests --sf S --doc-seed D --out F   (baseline reference)
//
// Every option is required (run.py passes them all).
#include <cstdio>
#include <cstring>

#include "common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pfbench cold|serve|digests --key value...\n");
    return 2;
  }
  pfbench::Args args(argc - 1, argv + 1);
  if (std::strcmp(argv[1], "cold") == 0) return pfbench::RunCold(args);
  if (std::strcmp(argv[1], "serve") == 0) return pfbench::RunServe(args);
  if (std::strcmp(argv[1], "digests") == 0) {
    return pfbench::RunMakeDigests(args);
  }
  std::fprintf(stderr, "pfbench: unknown mode %s\n", argv[1]);
  return 2;
}
