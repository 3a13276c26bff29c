"""Benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them) from the root of a checkout of this
repository.  Each workload runs in fresh single-threaded processes: a few
that only set up, for the median set-up time, then one that also measures
for S seconds.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics without tracing, the per-layer metrics with it.  ``--workload all``
prints one such line per workload, named, and a table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ablation-gcn", "cli-gat-pixels", "place-all-pairs")
SETUP_SAMPLES = 5           # set-ups per untraced run; setup_s is the median
CHILD_TIMEOUT_S = 170
ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
STAGE_METRICS = (("train", "train_pairs_per_s"), ("eval", "eval_pairs_per_s"),
                 ("place", "place_patch_pairs_per_s"))


class BenchError(RuntimeError):
    pass


def child(args, setup_only=False, timeout=CHILD_TIMEOUT_S):
    """Run ``child.py`` in a fresh process; return its JSON line."""
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, **ONE_THREAD)
    started = time.monotonic()
    proc = subprocess.run(argv + ["--started", repr(started)], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d" % (args.workload, proc.returncode))
    return json.loads(lines[-1])


def run_workload(args):
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(child(args, setup_only=True))
    main = child(args, timeout=max(1.0, deadline - time.monotonic()))
    setups.append(main)
    problems = list(main["problems"])
    if len({s["digest"] for s in setups}) != 1:
        problems.append("set-up made different inputs from one seed")
    raw = {k: v for k, v in main.items() if k not in ("metrics", "problems")}
    print("%s: %s" % (args.workload, json.dumps(raw)), file=sys.stderr)
    for line in problems:
        print("check failed: %s" % line, file=sys.stderr)
    if args.trace:
        metrics = main["metrics"]
    else:
        metrics = {"setup_s": {"value": statistics.median(
            s["setup_s"] for s in setups), "unit": "s"}}
        for stage, name in STAGE_METRICS:
            metrics[name] = {"value": main["throughput"][stage], "unit": "1/s"}
        metrics["peak_rss_mb"] = {"value": main["peak_rss_mb"], "unit": "MB"}
    return {"correct": not problems, "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "patchgraph",
                                       "__init__.py")):
        print("error: no patchgraph sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = run_workload(args)
        except (BenchError, subprocess.TimeoutExpired,
                json.JSONDecodeError, KeyError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
    if len(names) > 1:
        for name, result in results.items():
            print("%-16s attempted %d, failed %d, correct %s"
                  % (name, result["attempted"], result["failed"],
                     result["correct"]))
            for metric, m in result["metrics"].items():
                print("    %-44s %14.4f %s" % (metric, m["value"], m["unit"]))
        for name, result in results.items():
            print(json.dumps(dict(result, workload=name)))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
