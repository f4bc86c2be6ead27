#!/usr/bin/env python3
"""End-to-end benchmark of vlpsim: build, run one workload, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads: paper-cold, corpus-cold, serve-warm (see perfbench/README.md).
With --trace 0 the end-to-end metrics are measured with tracing off; with
--trace 1 a traced run reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

The program is built from the repository's sources into .bench_build/
(a no-op once built); scratch files go to .bench_run/ and are removed,
except the last traced job's span dumps (.bench_run/spans-<workload>/).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["paper-cold", "corpus-cold", "serve-warm"]
# Every job runs at this workload scale; the paper-cold reference
# digests are recorded for it.
SCALE = "0.1"
# Upper bound on one vlpbench run (the run budget is --seconds).
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once and build vlpbench and the vlpsim CLI."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "cmake")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "vlpbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"run.py: build step failed: {' '.join(step)}")
    return (os.path.join(build_dir, "vlpbench"),
            os.path.join(build_dir, "vlpsim", "tools", "vlpsim"))


def keep_spans(work, workload):
    """Move the last traced job's span dumps to .bench_run/spans-<workload>/."""
    kept = os.path.join(ROOT, ".bench_run", f"spans-{workload}")
    for directory, _, files in os.walk(work):
        for name in files:
            if name.endswith("spans.jsonl"):
                os.makedirs(kept, exist_ok=True)
                shutil.move(os.path.join(directory, name),
                            os.path.join(kept, name))


def run_workload(vlpbench, vlpsim, workload, seed, seconds, trace):
    """Run vlpbench on one workload; return (stdout lines, result)."""
    work = os.path.join(ROOT, ".bench_run", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, VLPSIM_SCALE=SCALE)
    env.pop("VLPSIM_CACHE_DIR", None)
    command = [vlpbench, "run", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work", os.path.relpath(work, ROOT), "--vlpsim", vlpsim]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Reap anything vlpbench left in its session (the daemon).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        keep_spans(work, workload)
        shutil.rmtree(work, ignore_errors=True)
    lines = output.splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"run.py: {workload} failed "
                         f"(exit {process.returncode})")
    result = json.loads(lines[-1])
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) \
            or not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no vlpsim sources next to {HERE}; nothing to build")
        return 2

    vlpbench, vlpsim = build()
    if args.workload != "all":
        lines, result = run_workload(vlpbench, vlpsim, args.workload,
                                     args.seed, args.seconds, args.trace)
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
        return 0

    summary = {}
    for workload in WORKLOADS:
        lines, result = run_workload(vlpbench, vlpsim, workload, args.seed,
                                     args.seconds, args.trace)
        print(f"== {workload}")
        for line in lines:
            print(line)
        summary[workload] = result
    print("== summary")
    for workload, result in summary.items():
        print(f"{workload}: error_rate {result['failed']}/"
              f"{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = all(result["correct"] for result in summary.values())
    print(json.dumps({"correct": correct, "workloads": summary}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
