#!/usr/bin/env python3
"""Benchmark of record for the Pathfinder XQuery engine.

Builds the library, pf_serve and the pfbench measuring binary from this
checkout's sources, runs one workload, checks every output against the
navigational baseline, prints a human report and, as the last line of
stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload cold_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --serve-rate 32 --workload all --seed 1   # every workload
    python3 perfbench/run.py --make-digests cold_large         # baseline reference

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 makes the
separate traced run and reports the per-layer metrics. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Every fixed setting of a workload. The cold documents are fixed per
# (sf, doc_seed) so their baseline results can be kept as digests; --seed
# shuffles the query passes, and every pass loads the document afresh
# (one set-up sample each). The serve documents are fixed too (generator
# seeds 1..docs); --seed draws the order of the op stream. serve_churn's
# updates go to the write_docs most popular documents only, so the
# read-only rest keeps its cache entries; in both serve workloads the
# plan/subplan working set outgrows the server's default 64 MB cache
# budget. The offered rate is not here: BENCHMARK.json fixes it
# (--serve-rate).
SERVE = {"kind": "serve", "sf": 0.05, "docs": 12, "setups": 4}
WORKLOADS = {
    "cold_small": {"kind": "cold", "sf": 0.005, "doc_seed": 1},
    "cold_large": {"kind": "cold", "sf": 0.2, "doc_seed": 1},
    "serve_read": dict(SERVE, write_docs=0, update_share=0.0, structural_share=0.0),
    "serve_churn": dict(SERVE, write_docs=2, update_share=0.16, structural_share=0.75),
}

# The end-to-end metrics BENCHMARK.json bounds. The report also prints
# error_rate (0 on a correct run, so it rides in the result line's
# failed/attempted instead) and, for serve_churn, update_p50_ms and
# update_p90_ms: metrics are bounded on every workload, and only
# serve_churn has an update stream.
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_qps", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("storage_bytes_per_xml_byte", "ratio"),
]

OP_KINDS = {  # engine.op.<name>_ms <- operator kind names of the profiler
    "step": "scjoin",
    "elem_constr": "element",
    "theta_join": "thetajoin",
    "equi_join": "eqjoin",
    "project": "project",
    "distinct": "distinct",
    "sort": "sort",
    "path_scan": "pathscan",
}

PER_LAYER = (
    [("frontend.parse_ms", "ms"), ("frontend.normalize_ms", "ms"),
     ("compiler.compile_ms", "ms"), ("compiler.plan_ops", "count"),
     ("compiler.joins_recognized", "count"),
     ("opt.optimize_ms", "ms"), ("opt.ops_after", "count"),
     ("opt.rounds", "count"), ("opt.cse_merges", "count"),
     ("opt.pipeline_ms", "ms"), ("opt.fragments", "count"),
     ("engine.execute_ms", "ms"), ("engine.cache_annotate_ms", "ms")]
    + [("engine.op.%s_ms" % k, "ms") for k in OP_KINDS]
    + [("engine.profile_coverage", "share"),
       ("accel.nodes_scanned", "count"), ("accel.contexts_pruned_share", "share"),
       ("accel.partitions_pruned", "count"), ("accel.structural_answers", "count"),
       ("runtime.to_sequence_ms", "ms"), ("runtime.serialize_ms", "ms"),
       ("runtime.result_bytes", "bytes"),
       ("cache.plan_hit_ratio", "share"), ("cache.subplan_hit_ratio", "share"),
       ("cache.admit_ratio", "share"), ("cache.evictions", "count"),
       ("cache.per_doc_invalidations", "count"), ("cache.resident_mb", "MB"),
       ("xml.load_ms", "ms"), ("xml.encoding_mb", "MB"), ("xml.update_ms", "ms"),
       ("serve.run_ms", "ms"), ("serve.outside_run_ms", "ms"),
       ("serve.busy_rejects", "count"), ("loadgen.late_p95_ms", "ms"),
       ("trace.unattributed_share", "share"), ("trace.overhead_share", "share")])

# The layer spans Pathfinder::Run skips on a plan-cache hit.
FRONT_HALF = ("frontend.parse", "frontend.normalize", "compiler.compile",
              "opt.optimize", "opt.pipeline", "engine.cache_annotate")

# Layers a workload does not exercise (reported as 0 and marked n/a).
NOT_APPLICABLE = {
    "cold": {"engine.cache_annotate_ms", "xml.update_ms", "cache.plan_hit_ratio",
             "cache.subplan_hit_ratio", "cache.admit_ratio", "cache.evictions",
             "cache.per_doc_invalidations", "cache.resident_mb", "serve.run_ms",
             "serve.outside_run_ms", "serve.busy_rejects", "loadgen.late_p95_ms"},
    "serve": {"runtime.to_sequence_ms", "trace.unattributed_share",
              "trace.overhead_share"},
}


def not_applicable(workload):
    cfg = WORKLOADS[workload]
    na = set(NOT_APPLICABLE[cfg["kind"]])
    if cfg["kind"] == "serve" and not cfg["update_share"]:
        na |= {"xml.update_ms", "cache.per_doc_invalidations"}
    return na


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure once, then build incrementally; returns the build dir."""
    if not os.path.exists(os.path.join(ROOT, "src", "api", "pathfinder.h")):
        log("perfbench: no Pathfinder sources next to perfbench/ (%s)" % ROOT)
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out


def digests_path(cfg):
    return os.path.join(HERE, "digests", "xmark_sf%g_seed%d.txt"
                        % (cfg["sf"], cfg["doc_seed"]))


def run_pfbench(bdir, workload, seed, seconds, trace, args):
    cfg = WORKLOADS[workload]
    raw = os.path.join(bdir, "raw_%s_%d_%d.json" % (workload, seed, trace))
    spans = raw.replace(".json", ".spans.json")
    exe = os.path.join(bdir, "pfbench")
    cmd = [exe, cfg["kind"], "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--sf", str(cfg["sf"]), "--out", raw,
           "--spans", spans]
    if cfg["kind"] == "cold":
        cmd += ["--doc-seed", str(cfg["doc_seed"]), "--digests", digests_path(cfg),
                "--min-passes", "1" if args.smoke or trace else "10"]
    else:
        cmd += ["--server", os.path.join(bdir, "pathfinder", "serve", "pf_serve"),
                "--rate", str(args.serve_rate),
                "--docs", str(2 if args.smoke else cfg["docs"]),
                "--write-docs", str(cfg["write_docs"]),
                "--update-share", str(cfg["update_share"]),
                "--structural-share", str(cfg["structural_share"]),
                "--setups", str(cfg["setups"])]
    proc = subprocess.run(cmd, stdout=sys.stderr)
    if proc.returncode != 0:
        log("perfbench: pfbench exited with %d" % proc.returncode)
        sys.exit(1)
    with open(raw) as f:
        data = json.load(f)
    if trace:
        with open(spans) as f:
            data["spans"] = json.load(f)
    return data


def pct(values, p, smoke):
    try:
        return stats.percentile(values, p)
    except stats.TooFewSamples:
        if smoke:
            return None
        raise


def end_to_end(raw, smoke):
    """name -> (value, unit, samples)."""
    ok_ms = [m for m in raw["ms"] if m > 0]
    queries_ok = raw.get("queries_ok", len(ok_ms))
    m = {
        "setup_s": (statistics.median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "throughput_qps": (queries_ok / raw["elapsed_s"], "queries/s", queries_ok),
        "query_p50_ms": (pct(ok_ms, 50, smoke), "ms", len(ok_ms)),
        "query_p95_ms": (pct(ok_ms, 95, smoke), "ms", len(ok_ms)),
    }
    if raw.get("update_ms"):
        upd = raw["update_ms"]
        m["update_p50_ms"] = (pct(upd, 50, smoke), "ms", len(upd))
        m["update_p90_ms"] = (pct(upd, 90, smoke), "ms", len(upd))
    m["error_rate"] = (raw["failed"] / raw["attempted"], "share", raw["attempted"])
    m["peak_rss_mb"] = (raw["peak_rss_mb"], "MB", 1)
    m["storage_bytes_per_xml_byte"] = (raw["storage_ratio"], "ratio", 1)
    return m


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def per_layer_cold(raw):
    spans = raw["spans"]
    n = len({s["query"] for s in spans}) or 1
    self_ns = stats.self_times(spans)
    ms = {k: v / 1e6 / n for k, v in self_ns.items()}
    c = {k: mean(v) for k, v in raw["counters"].items()}
    run_wall = sum(raw["run_wall_ms"])
    layers = sum(v for k, v in ms.items() if k not in ("query", "runtime.serialize"))
    roots = sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"] < 0) / 1e6 / n
    execute = ms.get("engine.execute", 0.0)
    op_ms = {k: v / 1e6 / n for k, v in raw["op_ns"].items()}
    ctx_in = sum(raw["counters"]["accel.contexts_in"])
    out = {
        "frontend.parse_ms": ms.get("frontend.parse", 0.0),
        "frontend.normalize_ms": ms.get("frontend.normalize", 0.0),
        "compiler.compile_ms": ms.get("compiler.compile", 0.0),
        "compiler.plan_ops": c["compiler.plan_ops"],
        "compiler.joins_recognized": c["compiler.joins_recognized"],
        "opt.optimize_ms": ms.get("opt.optimize", 0.0),
        "opt.ops_after": c["opt.ops_after"],
        "opt.rounds": c["opt.rounds"],
        "opt.cse_merges": c["opt.cse_merges"],
        "opt.pipeline_ms": ms.get("opt.pipeline", 0.0),
        "opt.fragments": c["opt.fragments"],
        "engine.execute_ms": execute,
        "engine.profile_coverage": sum(op_ms.values()) / execute if execute else 0.0,
        "accel.nodes_scanned": c["accel.nodes_scanned"],
        "accel.contexts_pruned_share":
            sum(raw["counters"]["accel.contexts_pruned"]) / ctx_in if ctx_in else 0.0,
        "accel.partitions_pruned": c["accel.partitions_pruned"],
        "accel.structural_answers": c["accel.structural_answers"],
        "runtime.to_sequence_ms": ms.get("runtime.to_sequence", 0.0),
        "runtime.serialize_ms": ms.get("runtime.serialize", 0.0),
        "runtime.result_bytes": c["runtime.result_bytes"],
        "xml.load_ms": statistics.median(raw["load_ms"]),
        "xml.encoding_mb": raw["encoding_mb"],
        "trace.unattributed_share": abs(run_wall / n - layers) / (run_wall / n),
        "trace.overhead_share":
            (roots - ms.get("runtime.serialize", 0.0)) / (run_wall / n) - 1.0,
    }
    for short, kind in OP_KINDS.items():
        out["engine.op.%s_ms" % short] = op_ms.get(kind, 0.0)
    return out


def per_layer_serve(raw):
    r = raw["replay"]
    n = r["queries"] or 1
    # Layer spans exist for plan-cache misses only: per-query means over
    # every query count the hits as zero.
    ms = {k: v / 1e6 / n for k, v in stats.self_times(raw["spans"]).items()}
    front = sum(ms.get(k, 0.0) for k in FRONT_HALF)
    execute = r["run_ms"] - front
    op_ms = {k: v / 1e6 / n for k, v in r["op_ns"].items()}
    out = {
        "frontend.parse_ms": ms.get("frontend.parse", 0.0),
        "frontend.normalize_ms": ms.get("frontend.normalize", 0.0),
        "compiler.compile_ms": ms.get("compiler.compile", 0.0),
        "compiler.plan_ops": r["plan_ops"],
        "compiler.joins_recognized": r["joins_recognized"],
        "opt.optimize_ms": ms.get("opt.optimize", 0.0),
        "opt.ops_after": r["ops_after"],
        "opt.rounds": r["rounds"],
        "opt.cse_merges": r["cse_merges"],
        "opt.pipeline_ms": ms.get("opt.pipeline", 0.0),
        "opt.fragments": r["fragments"],
        "engine.execute_ms": execute,
        "engine.cache_annotate_ms": ms.get("engine.cache_annotate", 0.0),
        "engine.profile_coverage": sum(op_ms.values()) / execute if execute > 0 else 0.0,
        "accel.nodes_scanned": r["nodes_scanned"],
        "accel.contexts_pruned_share":
            r["contexts_pruned"] / r["contexts_in"] if r["contexts_in"] else 0.0,
        "accel.partitions_pruned": r["partitions_pruned"],
        "accel.structural_answers": r["structural_answers"],
        "runtime.serialize_ms": r["serialize_ms"],
        "runtime.result_bytes": r["result_bytes"],
        "cache.plan_hit_ratio": r["plan_hit_ratio"],
        "cache.subplan_hit_ratio": r["subplan_hit_ratio"],
        "cache.admit_ratio": r["admit_ratio"],
        "cache.evictions": r["evictions"],
        "cache.per_doc_invalidations": r["per_doc_invalidations"],
        "cache.resident_mb": r["resident_mb"],
        "xml.load_ms": statistics.median(r["load_ms"]),
        "xml.encoding_mb": raw["encoding_mb"],
        "xml.update_ms": mean(r["update_ms"]),
        "serve.run_ms": mean(raw["server_run_ms"]),
        "serve.outside_run_ms": mean(raw["outside_run_ms"]),
        "serve.busy_rejects": raw["busy_rejects"],
        "loadgen.late_p95_ms": stats.percentile(raw["late_ms"], 95),
    }
    for short, kind in OP_KINDS.items():
        out["engine.op.%s_ms" % short] = op_ms.get(kind, 0.0)
    return out


def git_commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "n/a (not a git checkout)"


def print_report(workload, seed, trace, raw, e2e, layers):
    cfg = WORKLOADS[workload]
    print("== perfbench %s (seed %d, trace %d)" % (workload, seed, trace))
    print("   nproc %d | engine threads %d | build %s | sf %g | xml bytes/doc %d | "
          "docs %d | commit %s" % (
              os.cpu_count() or 0, raw["engine_threads"], raw["build_type"],
              cfg["sf"], raw["xml_bytes"], raw.get("docs", 1), git_commit()))
    if cfg["kind"] == "serve":
        structural = sum(raw["update_structural"])
        nupd = len(raw["update_structural"])
        mix = "no updates"
        if nupd:
            mix = ("%d updates to the %d most popular docs: %.0f%% content-only,"
                   " %.0f%% structural" % (
                       nupd, raw["write_docs"], 100.0 * (nupd - structural) / nupd,
                       100.0 * structural / nupd))
        print("   open loop %g ops/s over 4 connections; %s; busy %d, timeouts %d,"
              " dropped %d" % (raw["rate"], mix, raw["busy_rejects"], raw["timeouts"],
                               raw["dropped"]))
        print("   phases (s): " + ", ".join(
            "%s %.1f" % (k, v) for k, v in raw["phase_s"].items()))
    else:
        print("   %d passes of Q1-Q20" % raw["passes"])
    for m in raw.get("mismatch_detail", []):
        print("   MISMATCH %s" % m)
    if e2e:
        print("   %-28s %14s  %-10s %s" % ("metric", "value", "unit", "samples"))
        for name, (value, unit, n) in e2e.items():
            shown = "refused" if value is None else "%.4f" % value
            print("   %-28s %14s  %-10s n=%d" % (name, shown, unit, n))
    if cfg["kind"] == "cold" and raw["q"]:
        print("   per query (ms): %-4s %9s %9s %9s %5s" % ("q", "q1", "median", "q3", "n"))
        for q in range(1, 21):
            xs = [ms for qq, ms in zip(raw["q"], raw["ms"]) if qq == q and ms > 0]
            if xs:
                q1, med, q3 = stats.quartiles(xs)
                print("                   Q%-3d %9.3f %9.3f %9.3f %5d" % (q, q1, med, q3, len(xs)))
    if layers:
        na = not_applicable(workload)
        for name, unit in PER_LAYER:
            shown = "n/a" if name in na else "%.6g" % layers[name]
            print("   %-32s %14s  %s" % (name, shown, unit))


def make_digests(workload, doc_seed):
    cfg = dict(WORKLOADS[workload])
    if cfg["kind"] != "cold":
        log("perfbench: only cold workloads keep baseline digests")
        return 2
    if doc_seed is not None:
        cfg["doc_seed"] = doc_seed
    bdir = build()
    path = digests_path(cfg)
    log("perfbench: running the baseline on sf %g seed %d (slow at large sf)"
        % (cfg["sf"], cfg["doc_seed"]))
    subprocess.run([os.path.join(bdir, "pfbench"), "digests", "--sf", str(cfg["sf"]),
                    "--doc-seed", str(cfg["doc_seed"]), "--out", path],
                   check=True, stdout=sys.stderr)
    log("perfbench: wrote %s" % path)
    return 0


def run_workload(workload, args):
    bdir = build()
    raw = run_pfbench(bdir, workload, args.seed, args.seconds, args.trace, args)
    kind = WORKLOADS[workload]["kind"]
    e2e = end_to_end(raw, args.smoke) if not args.trace else {}
    layers = None
    if args.trace:
        layers = per_layer_cold(raw) if kind == "cold" else per_layer_serve(raw)
    print_report(workload, args.seed, args.trace, raw, e2e, layers)
    correct = raw["failed"] == 0
    if args.trace:
        na = not_applicable(workload)
        metrics = {name: (0.0 if name in na else layers[name], unit)
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: (e2e[name][0], unit) for name, unit in END_TO_END
                   if e2e[name][0] is not None}
    return correct, raw["attempted"], raw["failed"], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--serve-rate", type=float,
                    help="offered rate of the serve workloads, ops/s; BENCHMARK.json"
                         " fixes it (never calibrated)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run: output checks only, short percentiles refused")
    ap.add_argument("--make-digests", metavar="WORKLOAD",
                    help="recompute a cold workload's baseline digests")
    ap.add_argument("--doc-seed", type=int, help="with --make-digests")
    args = ap.parse_args(argv)
    if args.make_digests:
        return make_digests(args.make_digests, args.doc_seed)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.serve_rate is None and any(WORKLOADS[n]["kind"] == "serve" for n in names):
        ap.error("the serve workloads need --serve-rate (BENCHMARK.json fixes it)")
    all_correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        correct, a, f, m = run_workload(name, args)
        all_correct &= correct
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({"%s.%s" % (name, k): v for k, v in m.items()})
    print(stats.result_line(all_correct, attempted, failed, metrics))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
