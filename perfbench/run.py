#!/usr/bin/env python3
"""End-to-end benchmark of dctrain: builds the benchmark program, runs a
workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload train-conv --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
See README.md in this directory.
"""

import argparse
import contextlib
import fcntl
import json
import os
import platform
import re
import subprocess
import sys
import time

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
# Seconds a traced run gives each companion workload (see HOME below).
COMPANION_SECONDS = 2

# Per-layer rows each come from the workload that exercises that layer.
# A traced run reports its own workload's rows and takes the rest from a
# short traced run of the row's home workload. First matching prefix wins.
HOME = (
    ("simmpi.alltoallv_ms", "dimd-shuffle"),
    ("data.shuffle_ms", "train-conv"),
    ("data.sample_ms", "train-conv"),
    ("data.", "dimd-shuffle"),
    ("nn.", "train-conv"),
    ("kernels.", "train-conv"),
    ("dpt.", "train-conv"),
    ("trainer.phase_coverage", "train-conv"),
    ("comm.", "train-allreduce"),
    ("allreduce.", "train-allreduce"),
    ("simmpi.", "train-allreduce"),
    ("trainer.", "train-allreduce"),
    ("netsim.", "plan-sweep"),
)

# How the report names the generic end-to-end metrics per workload.
REPORT_NAMES = {
    "train": ("images_per_s", "step_p50_ms", "step_p95_ms"),
    "dimd": ("images_shuffled_per_s", "shuffle_p50_ms", "shuffle_p95_ms"),
    "plan": ("plan_cells_per_s", "sweep_p50_ms", "sweep_p95_ms"),
}

ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
             "avx512vl", "neon", "asimd", "sve")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def home_of(row):
    for prefix, workload in HOME:
        if row.startswith(prefix):
            return workload
    return None


@contextlib.contextmanager
def build_lock():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(f, fcntl.LOCK_UN)


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    with build_lock():
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def cmake_cache():
    out = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                out[m.group(1)] = m.group(2)
    return out


def fingerprint(info):
    """Where and how a result was measured."""
    cpu_model, flags = None, set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "Model") and cpu_model is None:
                    cpu_model = value.strip()
                elif key in ("flags", "Features"):
                    flags.update(value.split())
    except OSError:
        pass
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    cxx_flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
        "-Wall -Wextra"]))
    ranks = info.get("ranks")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.machine(),
        "isa_flags": sorted(flags.intersection(ISA_FLAGS)),
        "compiler": version[0] if version else compiler,
        "cxx_flags": cxx_flags,
        "build_type": build_type,
        "dctrain_threads": os.environ["DCTRAIN_THREADS"],
        "ranks_x_gpus": ("%dx%d" % (ranks, info.get("gpus_per_rank", 1))
                         if ranks else "1 thread"),
    }


def run_binary(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw):
    """The BENCHMARK.json end-to-end metrics from one run's raw samples."""
    return {
        "items_per_s": items_per_s(raw),
        "op_p50_ms": benchstats.p50([benchstats.p50(r["op_ms"])
                                     for r in raw["rounds"]]),
        "setup_s": benchstats.p50(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def items_per_s(raw):
    """Median over the run's rounds of work per wall second."""
    return benchstats.p50([r["items"] / r["wall_s"] for r in raw["rounds"]])


def op_samples(raw):
    return [x for r in raw["rounds"] for x in r["op_ms"]]


def layer_rows(raw):
    """The per-layer rows one traced run measured."""
    rows = dict(raw["layers"])
    if family(raw["workload"]) == "train":
        # Step p95 repeats too loosely across runs to gate end to end.
        rows["trainer.step_p95_ms"] = benchstats.tail_percentile(
            op_samples(raw), 95.0)
    return rows


def per_layer(raw, seed, seconds, wanted):
    """Per-layer rows of a traced run, filling the rows its workload does
    not exercise from short traced runs of their home workloads."""
    rows = layer_rows(raw)
    rows["obs.trace_overhead_ratio"] = (
        raw["traced_items_per_s"] / items_per_s(raw))
    companions = []
    missing = [m for m in wanted if m not in rows]
    for home in sorted({home_of(m) for m in missing} - {None}):
        extra = run_binary(home, seed, min(seconds, COMPANION_SECONDS), True)
        companions.append(extra)
        extra_rows = layer_rows(extra)
        for m in missing:
            if home_of(m) == home and m in extra_rows:
                rows[m] = extra_rows[m]
    absent = [m for m in wanted if m not in rows]
    if absent:
        fail("no measurement for per-layer rows: " + ", ".join(absent))
    return rows, companions


def family(workload):
    return workload.split("-")[0]


def fmt(v):
    return "%.6g" % v


def print_end_to_end(raw, metrics):
    names = REPORT_NAMES[family(raw["workload"])]
    info = raw["info"]
    samples = op_samples(raw)
    n = len(samples)
    q = benchstats.highest_tail(n)
    rounds = len(raw["rounds"])
    print("%s  (%s)" % (raw["workload"], "; ".join(
        "%s %s" % (k, v) for k, v in sorted(raw["labels"].items()))))
    across = "median of %d rounds, " % rounds if rounds > 1 else ""
    rows = [
        (names[0], metrics["items_per_s"], "1/s", across + "items_per_s"),
        (names[1], metrics["op_p50_ms"], "ms",
         "%sop_p50_ms, n=%d" % (across, n)),
    ]
    if q is not None and q >= 95.0:
        rows.append((names[2], benchstats.tail_percentile(samples, 95.0),
                     "ms", "not gated; highest supported: p%g = %s ms" % (
                         q, fmt(benchstats.tail_percentile(samples, q)))))
    if "loss_final" in info:
        rows.append(("loss_final", info["loss_final"], "",
                     "rank 0 after %d steps; first step %s"
                     % (info["steps"], fmt(info["loss_first"]))))
    if "shuffle_gb_per_s" in info:
        rows.append(("shuffle_gb_per_s", info["shuffle_gb_per_s"], "GB/s",
                     "%s MB sent per shuffle by all ranks"
                     % fmt(info["bytes_per_shuffle"] / 1e6)))
    rows += [
        ("setup_s", metrics["setup_s"], "s",
         "median of %d set-ups" % len(raw["setup_s"])),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
        ("failed/attempted", raw["failed"], "",
         "%d/%d = %s" % (raw["failed"], raw["attempted"], fmt(
             benchstats.failure_ratio(raw["failed"], raw["attempted"])))),
    ]
    for name, value, unit, note in rows:
        print("  %-22s %14s %-5s %s" % (name, fmt(value), unit, note))


def print_trace_report(raw, rows, companions):
    print("%s traced run (per operation per rank; rows without a value "
          "here come from a %ds traced run of their home workload)"
          % (raw["workload"], COMPANION_SECONDS))
    if family(raw["workload"]) == "train":
        step = raw["info"]["incl_ms.step/step"]
        print("  phase rows (ms/step)        coverage %.3f of the step span"
              % rows["trainer.phase_coverage"])
        for name, row in (("sample", "data.sample_ms"),
                          ("forward_backward", "dpt.forward_backward_ms"),
                          ("exposed allreduce", "comm.exposed_ms"),
                          ("sgd", "trainer.sgd_ms"),
                          ("shuffle", "data.shuffle_ms")):
            if row in raw["layers"]:
                print("    %-20s %10s  (%4.1f%% of the traced step)"
                      % (name, fmt(rows[row]), 100.0 * rows[row] / step))
        print("  nn rows (ms, own replica at the per-GPU batch)")
        for row in sorted(k for k in rows if k.startswith("nn.")):
            print("    %-28s %10s" % (row, fmt(rows[row])))
        print("  gemm achieved %s GFLOP/s vs ceiling %s GFLOP/s on this host"
              % (fmt(rows["kernels.gemm_gflops"]),
                 fmt(rows["kernels.gemm_ceiling_gflops"])))
    print("  obs.trace_overhead_ratio %s (traced / untraced throughput)"
          % fmt(rows["obs.trace_overhead_ratio"]))
    selfs = sorted(((v, k[len("self_ms."):]) for k, v in raw["info"].items()
                    if k.startswith("self_ms.")), reverse=True)
    print("  span self time (ms per op per rank; inclusive in brackets)")
    for v, label in selfs[:14]:
        print("    %-34s %10s  [%s]" % (label, fmt(v),
                                        fmt(raw["info"]["incl_ms." + label])))
    for c in companions:
        print("  companion %s: %d/%d failed" % (c["workload"], c["failed"],
                                                c["attempted"]))
    print("  per-layer rows")
    for k in sorted(rows):
        print("    %-34s %s" % (k, fmt(rows[k])))


def run_one(bench, workload, seed, seconds, trace):
    raw = run_binary(workload, seed, seconds, trace)
    attempted, failed = raw["attempted"], raw["failed"]
    for msg in raw["failures"]:
        print("  FAILED: " + msg)
    if trace:
        wanted = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        rows, companions = per_layer(raw, seed, seconds, wanted)
        for c in companions:
            attempted += c["attempted"]
            failed += c["failed"]
            for msg in c["failures"]:
                print("  FAILED (%s): %s" % (c["workload"], msg))
        print_trace_report(raw, rows, companions)
        values = {m: rows[m] for m in wanted}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = end_to_end(raw)
        print_end_to_end(raw, values)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return raw, attempted, failed, metrics


def main():
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(bench_path) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each result, with the host "
                    "fingerprint, as a JSON line (input of compare.py)")
    args = ap.parse_args()

    os.environ["DCTRAIN_THREADS"] = "1"
    build()
    workloads = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        start = time.monotonic()
        raw, a, f, m = run_one(bench, w, args.seed, args.seconds,
                               bool(args.trace))
        print("  (%s: %.1f s)" % (w, time.monotonic() - start))
        attempted += a
        failed += f
        record = {"workload": w, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds,
                  "fingerprint": fingerprint(raw["info"]),
                  "attempted": a, "failed": f,
                  "metrics": {k: v["value"] for k, v in m.items()}}
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")
        if len(workloads) > 1:
            m = {"%s/%s" % (w, k): v for k, v in m.items()}
        metrics.update(m)
    correct = failed == 0 and all(
        isinstance(v["value"], (int, float)) and v["value"] == v["value"]
        for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
