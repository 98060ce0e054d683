#!/usr/bin/env python3
"""Build and run the pgr benchmark (stdlib only).

One run:

    python3 perfbench/run.py --workload <offline|exec|serve> --seed <n> \
        --seconds <s> --trace <0|1>

builds the benchmark binary (cargo, release, into $CARGO_TARGET_DIR or
.bench_build), runs the workload, and passes its output through: the
last line of standard output is the result object, and the exit code
is non-zero if the build failed or any output check failed.

--seconds defaults to 25, the run length in BENCHMARK.json.

Steadiness:

    python3 perfbench/run.py --steadiness [--json out.json]

runs every workload untraced on seeds 1 to 10, in an order that
alternates between passes (forward, then backward) so slow host phases
hit every workload alike, and prints each metric's median, first and
third quartile (statistics.quantiles, n=4) and the quartile spread as a
share of the median, plus each workload's failed share. The bounds in
BENCHMARK.json are set from this output.

Run from the repository root.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["offline", "exec", "serve"]
SECONDS = 25
STEADINESS_SEEDS = range(1, 11)
# Set-up, the reference compression passes and the traced sweeps take
# up to about a minute on top of the measured seconds.
RUN_MARGIN_S = 140


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "pgr-perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    """Run one workload; return (exit code, stdout text or None).

    The run gets a process group of its own, so a run that times out is
    killed together with the `pgr serve` it started.
    """
    argv = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.DEVNULL if capture else None,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out


def steadiness(binary, args):
    results = {w: [] for w in WORKLOADS}
    for i, seed in enumerate(STEADINESS_SEEDS):
        order = WORKLOADS if i % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            code, out = run_once(binary, w, seed, args.seconds, 0, True)
            if code != 0 or not out:
                print(f"{w} seed {seed}: exit {code}", file=sys.stderr)
                return 1
            result = json.loads(out.strip().splitlines()[-1])
            results[w].append(result)
            print(f"  {w} seed {seed}: done", file=sys.stderr)
    summary = {}
    for w, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, failed share {shares}")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        summary[w] = {"failed_share": shares, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            unit = runs[0]["metrics"][name]["unit"]
            summary[w]["metrics"][name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                "values": values,
            }
            print(f"  {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


def on_term(signum, _frame):
    # Unwind through run_once, which kills the run in flight.
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_term)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args()
    if not args.steadiness and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required (or --steadiness)")
    binary = build()
    if binary is None:
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
