#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The Rust benchmark program in perfbench/ is built in
release mode (into $CARGO_TARGET_DIR, default .bench_build) and run once
per workload. Every metric is printed by name and unit, each result is
appended to perfbench/history.jsonl with its run metadata, and the last
stdout line is the result as one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HISTORY = os.path.join(BENCH_DIR, "history.jsonl")
# Built, checked and self-tested like the workloads BENCHMARK.json lists, but
# not gated there (see README.md); it runs by name only.
UNGATED = ["ingest_mixed"]
# One run must finish well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    # A relative CARGO_TARGET_DIR is taken from the repository root.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the benchmark program; returns the binary path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    binary = os.path.join(target_dir(), "release", "propeller-perfbench")
    return binary if os.path.exists(binary) else None


def run_once(binary, workload, seed, seconds, trace, scale="full"):
    """Runs one workload; returns (meta, result) or None."""
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale, "--tmp", tmp]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{workload}: run failed: {e}")
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        log(f"{workload}: benchmark program exited {done.returncode}")
        return None
    try:
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        log(f"{workload}: unreadable benchmark output: {e}")
        return None
    return meta, result


def validate(result, expected, workload):
    """Every named metric is present, finite and carries its unit; nothing else is."""
    problems = []
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']} is not a finite number: {got.get('value')!r}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, expected {m['unit']!r}")
    names = {m["name"] for m in expected}
    problems += [f"unexpected metric {k}" for k in metrics if k not in names]
    for key in ("correct", "attempted", "failed"):
        if key not in result:
            problems.append(f"missing {key}")
    return [f"{workload}: {p}" for p in problems]


def source_fingerprint():
    """sha256 over the sources the benchmark builds (identifies a run when
    the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def print_table(workload, trace, result):
    print(f"== {workload} ({'traced, per-layer' if trace else 'untraced, end-to-end'}) "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = load_spec()
    gated = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    help="one of %s, or all (the ones BENCHMARK.json lists)"
                         % ", ".join(gated + UNGATED))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at tiny size, traced and untraced, and check "
                         "that every metric named in BENCHMARK.json is emitted")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        sys.exit(1)

    if args.self_test:
        problems = []
        for workload in gated + UNGATED:
            for trace in (0, 1):
                out = run_once(binary, workload, args.seed, 2, trace, "tiny")
                if out is None:
                    problems.append(f"{workload} trace={trace}: no result")
                    continue
                _, result = out
                expected = spec["per_layer"] if trace else spec["end_to_end"]
                problems += validate(result, expected, f"{workload} trace={trace}")
                if not result.get("correct") or result.get("failed"):
                    problems.append(f"{workload} trace={trace}: correct={result.get('correct')} "
                                    f"failed={result.get('failed')}")
                print(f"self-test {workload} trace={trace}: {len(result['metrics'])} metrics")
        for p in problems:
            log(p)
        print("self-test " + ("FAILED" if problems else "passed"))
        sys.exit(1 if problems else 0)

    workloads = gated if args.workload == "all" else [args.workload]
    if any(w not in gated + UNGATED for w in workloads):
        log(f"unknown workload {args.workload!r}")
        sys.exit(2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {}
    for workload in workloads:
        out = run_once(binary, workload, args.seed, seconds, args.trace)
        if out is None:
            sys.exit(1)
        meta, result = out
        problems = validate(result, expected, workload)
        if problems:
            for p in problems:
                log(p)
            sys.exit(1)
        print_table(workload, args.trace, result)
        results[workload] = result
        record = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                  "commit": commit(), "source": source_fingerprint(),
                  "nproc": len(os.sched_getaffinity(0)), "meta": meta, "result": result}
        with open(HISTORY, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
