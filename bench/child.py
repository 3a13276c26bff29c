"""One workload in one fresh process; started by ``run.py``.

Prints one JSON line: the set-up time measured from the moment the parent
started this process, the digest of the generated inputs and, unless only
set-up was asked for, the stage throughputs (speed-scaled and plain), the
operation counts, the check results and the peak resident set.  With
tracing, the per-layer figures replace the throughputs.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import patchgraph.autodiff as ad  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Spans that run in set-up; their figures are per set-up.  All other spans
# run in the timed rounds and their figures are per traced round.
SETUP_SPANS = ("scene.render_views", "scene.save_dataset", "cli.synth")

LAYER_METRICS = (
    "autodiff.gradients.self_ms", "autodiff.adam_step.self_ms",
    "neighbors.graph_for_patch.calls", "neighbors.graph_for_patch.self_ms",
    "features.featurize.calls", "features.featurize.self_ms",
    "gnn.embed_graph.calls", "gnn.gcn_layer.self_ms", "gnn.gat_layer.self_ms",
    "matching.assemble_embeddings.calls", "matching.discriminate.self_ms",
    "matching.loss_from_scores.self_ms", "matching.train.self_ms",
    "matching.evaluate.self_ms", "matching.save_model.ms",
    "matching.load_model.ms", "placerec.score_matrix.self_ms",
    "placerec.sinkhorn_assign.calls", "placerec.sinkhorn_assign.self_ms",
    "placerec.place_recognition_eval.self_ms", "scene.render_views.ms",
    "scene.save_dataset.ms", "scene.load_dataset.ms", "cli.synth.ms",
    "cli.train.ms", "cli.eval.ms", "cli.place.ms",
)
ROOT_SPAN = "bench.round"


def layer_metrics(tracer, traced, untraced, workload):
    """Per-layer figures of the traced rounds, per round."""
    n = len(traced)
    out = {}
    for metric in LAYER_METRICS:
        span, kind = metric.rsplit(".", 1)
        scope = "setup" if span in SETUP_SPANS else "round"
        calls, wall, self_s = tracer.stats(scope, span)
        per = 1 if scope == "setup" else n
        value = {"calls": calls, "ms": 1e3 * wall,
                 "self_ms": 1e3 * self_s}[kind] / per
        out[metric] = (value, "count" if kind == "calls" else "ms")
    tensors = sum(r.tensors for r in traced)
    out["autodiff.tensors_per_pair"] = (
        tensors / (n * sum(workload.work.values())), "count")
    calls = tracer.stats("round", "matching.assemble_embeddings")[0]
    out["matching.embeddings_per_patch"] = (
        calls / max(1, len(tracer.embedded)) / n, "ratio")
    wall = tracer.stats("round", ROOT_SPAN)[1]
    spans = sum(tracer.stats(scope, name)[2]
                for scope, name in tracer.totals
                if scope == "round" and name != ROOT_SPAN)
    out["trace.wall_ms"] = (1e3 * wall / n, "ms")
    out["trace.self_sum_ms"] = (1e3 * spans / n, "ms")
    out["trace.setup_ms"] = (1e3 * tracer.stats("setup", "bench.setup")[1],
                             "ms")
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(r.round_s for r in traced)
                 / statistics.median(r.round_s for r in untraced) - 1.0), "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def throughput(workload, rounds, clock):
    """Work per second of each stage over all rounds, by the rounds' plain
    (``wall``) or speed-scaled (``seconds``) stage times."""
    out = {}
    for stage in workloads.STAGES:
        seconds = sum(getattr(r, clock)[stage] for r in rounds)
        out[stage] = len(rounds) * workload.work[stage] / seconds \
            if seconds else 0.0
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--started", type=float, required=True,
                   help="time.monotonic() at which the parent started us")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    os.makedirs(os.path.join(ROOT, ".bench_runs"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-",
                               dir=os.path.join(ROOT, ".bench_runs"))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workdir):
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        with tracer.span("bench.setup"):
            digest = workload.setup()
        tracer.uninstall()
    else:
        digest = workload.setup()
    setup_s = time.monotonic() - args.started
    probes = [workloads.speed_probe() for _ in range(3)]
    result = {"setup_s": setup_s * workloads.PROBE_REFERENCE_S
              / statistics.median(probes),
              "wall_setup_s": setup_s, "digest": digest}
    if args.setup_only:
        return result

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds \
            or (tracer and len(rounds) < 2):
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.scope = "round"
            tracer.install()
            first_id = next(ad._ids)
        t0 = time.perf_counter()
        with tracer.span(ROOT_SPAN) if traced else contextlib.nullcontext():
            r = workload.run_round(len(rounds), probe=not tracer)
        r.round_s = time.perf_counter() - t0
        r.traced = traced
        if traced:
            r.tensors = next(ad._ids) - first_id - 1
            tracer.uninstall()
        rounds.append(r)

    # Round 0 is checked in full; later rounds must reproduce its outputs.
    problems = []
    first = rounds[0]
    reference = workload.fingerprints(first)
    if not first.failed:
        rng = np.random.default_rng([args.seed, 7])
        for op, found in workload.check(first, rng).items():
            if found:
                first.failed.append(op)
                problems += ["%s: %s" % (op, p) for p in found]
    for i, r in enumerate(rounds[1:], 1):
        prints = workload.fingerprints(r)
        for op in workload.ops:
            if op not in r.failed and prints.get(op) != reference.get(op):
                r.failed.append(op)
                problems.append("%s: round %d differs from round 0" % (op, i))

    result.update({
        "attempted": len(rounds) * len(workload.ops),
        "failed": sum(len(set(r.failed)) for r in rounds),
        "problems": problems,
        "rounds": len(rounds),
    })
    if tracer:
        result["metrics"] = layer_metrics(
            tracer, [r for r in rounds if r.traced],
            [r for r in rounds if not r.traced], workload)
    else:
        result["probe_s"] = statistics.median(
            p for r in rounds for p in r.probes)
        result["wall_throughput"] = throughput(workload, rounds, "wall")
        result["throughput"] = throughput(workload, rounds, "seconds")
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    sys.exit(main())
