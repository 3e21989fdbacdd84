#!/usr/bin/env python3
"""End-to-end benchmark of `mrx serve` at full XMark scale.

Builds the `mrx` daemon and the benchmark crate from source, then runs one
workload against a real `mrx serve` child and prints the result as the last
stdout line. Run from the repository root:

    python3 servebench/run.py --workload hot-resident --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --all --seed 1
    python3 servebench/run.py --spread 10 --workload cold-paged

`--trace 1` reports the per-layer metrics from a traced in-process replay
instead of the end-to-end ones and writes its spans to
`$CARGO_TARGET_DIR/servebench-spans-<workload>.tsv`. `--all` runs every
workload once and prints each end-to-end metric by name with its unit, then
the ungated client-observed figures (throughput, latency, daemon CPU).
`--spread N` runs one workload with N seeds and prints each metric's median,
quartiles and relative interquartile range (the figures the bounds in
BENCHMARK.json were set from).

Exit status is non-zero, with no result line, when the build fails, a
request's answer differs from naive evaluation on the data graph, or a
reply's `Cost` differs from the traced evaluator's.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ["hot-resident", "cold-paged", "shift-publish"]
RUN_TIMEOUT_S = 170
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "servebench")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build():
    """Builds the daemon and the benchmark; returns their binary paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mrx-cli"],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
        ],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "mrx"), os.path.join(rel, "servebench")


def source_rev():
    """The git revision when there is one, plus a digest of the sources
    (checkouts used for benchmarking need not be git repositories)."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "nogit"
    except (OSError, subprocess.SubprocessError):
        rev = "nogit"
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "servebench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(base)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in files
        )
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return f"{rev}+src:{h.hexdigest()[:12]}"


def run_once(bins, workload, seed, seconds, trace, rev):
    """Runs one workload; returns (exit code, stdout lines)."""
    mrx, bench = bins
    work = os.path.join(target_dir(), "servebench-work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [
        bench, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--mrx", mrx, "--work", work, "--rev", rev,
    ]
    if trace:
        cmd += ["--spans", os.path.join(target_dir(), f"servebench-spans-{workload}.tsv")]
    # A session of its own, so a timeout can stop the daemon child too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} seed {seed} timed out")
        return 1, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.splitlines()


def result_of(lines):
    return json.loads(lines[-1])


def spread(bins, args, rev):
    """Runs one workload with N seeds and prints each metric's spread."""
    values = {}
    units = {}
    for i in range(args.spread):
        seed = args.seed + i
        code, lines = run_once(bins, args.workload, seed, args.seconds, args.trace, rev)
        if code != 0 or not lines:
            raise SystemExit(f"run.py: {args.workload} seed {seed} failed")
        print(lines[-2], flush=True)
        print(lines[-1], flush=True)
        for k, m in result_of(lines)["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]
    print(f"# {args.workload}: {args.spread} runs, seeds {args.seed}..{args.seed + args.spread - 1}")
    print(f"# {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'rel_iqr':>8} unit")
    summary = {}
    for k, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        rel = (q3 - q1) / med if med else 0.0
        summary[k] = {"median": med, "q1": q1, "q3": q3, "rel_iqr": rel, "unit": units[k]}
        print(f"  {k:<32} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {rel:>8.4f} {units[k]}")
    print(json.dumps({"workload": args.workload, "runs": args.spread, "spread": summary}))


def run_all(bins, args, rev):
    """Runs every workload once and prints each end-to-end metric."""
    failed = False
    for w in WORKLOADS:
        code, lines = run_once(bins, w, args.seed, args.seconds, args.trace, rev)
        if code != 0 or not lines:
            log(f"{w} failed")
            failed = True
            continue
        print(lines[-2])
        for k, m in result_of(lines)["metrics"].items():
            print(f"{w:<14} {k:<32} {m['value']:>14.4f} {m['unit']}")
        client = json.loads(lines[-2])["context"]["client"]
        for k, v in client.items():
            unit = "1/s" if k == "qps" else "us"
            print(f"{w:<14} {'client.' + k:<32} {v:>14.4f} {unit} (not gated)")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload once")
    ap.add_argument("--spread", type=int, metavar="N", help="run N seeds, print spread")
    args = ap.parse_args()
    args.trace = bool(args.trace)
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")
    bins = build()
    rev = source_rev()
    if args.all:
        return run_all(bins, args, rev)
    if args.spread:
        spread(bins, args, rev)
        return 0
    code, lines = run_once(bins, args.workload, args.seed, args.seconds, args.trace, rev)
    if code != 0:
        return code or 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
