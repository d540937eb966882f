#!/usr/bin/env python3
"""Builds the stage benchmark from source and runs it.

Run from the repository root:

    python3 stagebench/run.py --workload short-pipeline --seed 1 --seconds 45 --trace 0

builds `stagebench` (release, offline) and runs one workload; the last line
of standard output is the result object. The steadiness report repeats the
benchmark on one commit, interleaving the workloads, and prints each
end-to-end metric's median, quartiles and spread against its bound in
BENCHMARK.json:

    python3 stagebench/run.py steadiness --runs 10 [--sets 2] [--seconds S] [--workloads a,b]

Build output and run artifacts (chrome traces, kept stage digests) go to
`$CARGO_TARGET_DIR`, or `stagebench/target` when it is unset.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def build():
    """Builds the benchmark; returns the binary path or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        print(f"stagebench: build failed ({done.returncode})", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "stagebench")


def bench_args(argv):
    return argv + ["--work-dir", os.path.join(target_dir(), "stagebench-work")]


def run_once(binary, argv):
    return subprocess.run([binary] + bench_args(argv)).returncode


def steadiness(binary, argv):
    opts = {"--runs": "10", "--sets": "1", "--seconds": None, "--workloads": None}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            print(f"steadiness: unknown flag {flag}", file=sys.stderr)
            return 2
        opts[flag] = next(it, None)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = opts["--seconds"] or str(spec["run_seconds"])
    workloads = (opts["--workloads"] or ",".join(w["name"] for w in spec["workloads"])).split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, sets = int(opts["--runs"]), int(opts["--sets"])

    # values[set][workload][metric] -> list of values, one per run.
    values = [{w: {m: [] for m in bounds} for w in workloads} for _ in range(sets)]
    # passes[set][workload] -> untraced passes of each run.
    passes = [{w: [] for w in workloads} for _ in range(sets)]
    failures = 0
    for s in range(sets):
        for r in range(runs):
            # Rotate the workload order every run, so no workload always
            # follows the same neighbour.
            order = workloads[r % len(workloads):] + workloads[: r % len(workloads)]
            for w in order:
                seed = r + 1
                cmd = [binary] + bench_args(
                    ["--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", "0"])
                done = subprocess.run(cmd, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                for line in lines:
                    if line.startswith("untraced passes"):
                        print(f"set {s + 1} run {r + 1} {w} {line}", file=sys.stderr)
                    if line.startswith("jobs: "):
                        passes[s][w].append(int(line.split()[1]))
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    print(f"set {s + 1} run {r + 1} {w}: no result (exit {done.returncode})\n"
                          f"{done.stderr}", file=sys.stderr)
                    failures += 1
                    continue
                if not result["correct"] or result["failed"]:
                    failures += 1
                    print(f"set {s + 1} run {r + 1} {w}: {result['failed']} failed operations",
                          file=sys.stderr)
                for m in bounds:
                    v = result["metrics"].get(m, {}).get("value")
                    if v is not None:
                        values[s][w][m].append(v)
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: " + " ".join(
                    f"{m}={result['metrics'][m]['value']}" for m in bounds), file=sys.stderr)

    ok = failures == 0
    print(f"{'set':>3} {'workload':15} {'metric':14} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for s in range(sets):
        for w in workloads:
            for m, bound in bounds.items():
                v = values[s][w][m]
                if len(v) < 2:
                    print(f"{s + 1:>3} {w:15} {m:14} too few values ({len(v)})")
                    ok = False
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                if spread <= bound / 3:
                    verdict = "fits (below a third of the bound)"
                elif spread <= bound:
                    verdict = "fits"
                else:
                    verdict = "TOO NOISY"
                    ok = False
                print(f"{s + 1:>3} {w:15} {m:14} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{spread:7.3f} {bound:6.2f}  {verdict}")
    for s in range(sets):
        for w in workloads:
            n = passes[s][w]
            if n:
                print(f"set {s + 1} {w}: untraced passes per run min {min(n)} "
                      f"median {statistics.median(n)} max {max(n)}")
    for s in range(1, sets):
        for w in workloads:
            for m, bound in bounds.items():
                a, b = values[0][w][m], values[s][w][m]
                if len(a) < 2 or len(b) < 2:
                    continue
                shift = statistics.median(b) / statistics.median(a) - 1
                agrees = abs(shift) <= bound
                verdict = "agrees" if agrees else "DIFFERS BY MORE THAN THE BOUND"
                ok = ok and agrees
                print(f"set {s + 1} vs 1: {w:15} {m:14} median shift {shift:+.3f} "
                      f"(bound {bound:.2f}) {verdict}")
    print(f"failed runs or operations: {failures}")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    if argv[:1] == ["steadiness"]:
        return steadiness(binary, argv[1:])
    return run_once(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
