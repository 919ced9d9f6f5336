#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <compile-paper|serve-mix|simulate>
                             --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --selfcheck --seed N

Run from the repository root. The benchmark package (`perfbench/`) is
built in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), and runs with `RPO_THREADS` set to the number of
CPUs this process may use. The last stdout line is the result object.

Untraced runs report `setup_s` as the median of nine set-ups: the
measured run's own and eight set-up-only runs in fresh processes, so
one-time lazy work (kernel calibration, first compiles, first fusion
plans) counts in every sample. Half of the set-up-only runs come before
the measured run and half after it, so the samples span the window rather
than one moment of the host's drifting speed.

`--selfcheck` is the determinism self-check: for one seed it runs every
workload twice at one thread and once at all threads and requires the
deterministic outputs (CNOT and depth totals, pass runs and rewrites) to
match exactly.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["compile-paper", "serve-mix", "simulate"]
TIMEOUT_S = 170
SETUP_PROBES = 8


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = [
        "cargo", "build", "--offline", "--release",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    # Build output goes to stderr: stdout carries only the benchmark's lines.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return target_dir() / "release" / "perfbench"


def run_bin(binary, argv, threads):
    env = dict(os.environ, RPO_THREADS=str(threads))
    scratch = target_dir() / "perfbench-scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    # A process group of its own, so a timeout also stops the part processes
    # the benchmark starts.
    proc = subprocess.Popen(
        [str(binary), *argv, "--scratch", str(scratch)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out: {' '.join(argv)}")
    sys.stderr.write(err)
    return proc.returncode, out.splitlines()


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        [m["name"] for m in spec["end_to_end"]],
        [m["name"] for m in spec["per_layer"]],
    )


def nproc():
    return len(os.sched_getaffinity(0))


def bench(args):
    binary = build()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []

    def probe_setup(count):
        for _ in range(count if args.trace == 0 else 0):
            code, out = run_bin(binary, [*argv, "--setup-only"], nproc())
            if code != 0 or not out or not out[-1].startswith("setup_s "):
                fail("set-up run failed")
            setups.append(float(out[-1].split()[1]))

    probe_setup(SETUP_PROBES // 2)
    code, out = run_bin(binary, argv, nproc())
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    if not out:
        fail(f"no output (exit {code})")
    try:
        result = json.loads(out[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result (exit {code}): {out[-1]}")
    e2e, per_layer = declared_metrics()
    expected = per_layer if args.trace else e2e
    if sorted(result["metrics"]) != sorted(expected):
        fail("metric names differ from BENCHMARK.json")
    if args.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        out.insert(-1, "setup_s samples " + " ".join(f"{s:.6f}" for s in setups))
    for line in out[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(code)


def fingerprint(lines):
    result = json.loads(lines[-1])["metrics"]
    keys = [l for l in lines if l.startswith("fingerprint ")]
    return (keys, result["cx_total"]["value"], result["depth_total"]["value"])


def selfcheck(args):
    binary = build()
    findings = 0
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed),
                "--seconds", "2", "--trace", "0"]
        prints = []
        for threads in (1, 1, nproc()):
            code, out = run_bin(binary, argv, threads)
            if code != 0:
                fail(f"{workload} at {threads} thread(s) exited {code}")
            prints.append((threads, fingerprint(out)))
        ref = prints[0][1]
        for threads, fp in prints[1:]:
            status = "same" if fp == ref else "MISMATCH"
            findings += fp != ref
            detail = " ".join([f"cx_total={fp[1]:.0f}", f"depth_total={fp[2]:.0f}", *fp[0]])
            print(f"{workload}: 1 thread vs {threads} thread(s): {status} ({detail})")
    sys.exit(1 if findings else 0)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()
    if args.selfcheck:
        selfcheck(args)
    elif args.workload is None:
        p.error("--workload is required")
    else:
        bench(args)


if __name__ == "__main__":
    main()
