#!/usr/bin/env python3
"""GMR benchmark entry point.

Run one workload (builds gmr_perfbench first, from ../src):

    python3 perfbench/run.py --workload revise_plankton --seed 1 \
        --seconds 32 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it, starting with COUNTERS, holds the
run's deterministic work counters.

Compare the counters of two saved outputs (exit 1 if any changed):

    python3 perfbench/run.py --diff before.txt after.txt

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root); checkpoint and trace files go to a per-run
directory under $CARGO_TARGET_DIR/scratch that gmr_perfbench removes.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("revise_plankton", "revise_transport_durable",
             "calibrate_transport")
RUN_TIMEOUT_S = 170


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(build_dir):
    """Configures once, then (re)builds gmr_perfbench; returns its path."""
    log = sys.stderr
    if not (build_dir / "Makefile").exists():  # never configured successfully
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=log, stderr=log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "gmr_perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return build_dir / "gmr_perfbench"


def run(args):
    try:
        binary = build(target_dir() / "perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    scratch = target_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        print(f"perfbench: gmr_perfbench exited {result.returncode}",
              file=sys.stderr)
        return 1
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: gmr_perfbench printed no result", file=sys.stderr)
        return 1
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def read_counters(path):
    for line in Path(path).read_text().splitlines():
        if line.startswith("COUNTERS "):
            return json.loads(line[len("COUNTERS "):])
    raise SystemExit(f"perfbench: no COUNTERS line in {path}")


def diff(old_path, new_path):
    """Lists every counter that differs; exit 1 if a deterministic one did."""
    old, new = read_counters(old_path), read_counters(new_path)
    for key in ("workload", "seed", "trace"):
        if old[key] != new[key]:
            print(f"note: {key} differs ({old[key]} vs {new[key]})")
    changed = 0
    for group, gating in (("counters", True), ("lane_counters", False)):
        a, b = old.get(group, {}), new.get(group, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) == b.get(name):
                continue
            label = "CHANGED" if gating else "changed (lane order)"
            print(f"{label} {name}: {a.get(name)} -> {b.get(name)}")
            changed += gating
    print(f"{changed} deterministic counter(s) changed")
    return 1 if changed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
