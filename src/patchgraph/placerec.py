"""Frame-level place recognition from patch match scores.

Pipeline: score every cross-frame patch pair with the trained matcher,
solve a partial assignment over the score matrix (log-domain Sinkhorn with
a dustbin row/column for unmatched patches), and aggregate the assigned
scores into one frame similarity in [0, 1].  Two frames count as the same
place when their camera positions are less than a radius apart (10 meters
by default).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import SCHEMA
from .matching import INFERENCE_CHUNK, FrameIndex, VariantScorer, confusion
from .seeds import rng_for

SAME_PLACE_RADIUS_M = SCHEMA["place.radius"][0]
DUSTBIN_DEFAULT = SCHEMA["place.dustbin"][0]
SINKHORN_TAU = SCHEMA["place.tau"][0]
SINKHORN_ITERS = SCHEMA["place.iters"][0]
# share of the frame pairs that tunes the threshold when none is given
VAL_FRACTION = 0.5
# Largest row or column marginal error of a converged plan (acceptance
# criterion 8); ``place`` warns when a run's plans miss it.
SINKHORN_RESIDUAL_TOL = 1e-6


def score_matrix(frame_a, frame_b, model, scorer=None, tables=None):
    """The (A, B) array S[i][j] = symmetric match score between patch i of
    frame A and patch j of frame B.  Each frame's rows are its (2, A, w)
    or (2, B, w) entry in ``tables``, the ``FrameIndex.frame_tables`` of
    the scorer over the caller's frames, or over these two frames when
    none is given.  Both directions are scored as one ``scorer.pair``
    broadcast per block of A's rows, each block at most INFERENCE_CHUNK**2
    patch pairs, and S is 0.5 (d[0] + d[1])."""
    if not frame_a.patches or not frame_b.patches:
        raise ValueError("both frames need at least one patch")
    scorer = VariantScorer(model) if scorer is None else scorer
    if tables is None:
        tables = FrameIndex([frame_a, frame_b]).frame_tables(scorer)
    a, b = (tables[f.frame_id] for f in (frame_a, frame_b))
    y = ad.constant(b[::-1, None])   # B's y rows, then its x rows
    step = max(1, INFERENCE_CHUNK ** 2 // b.shape[1])
    blocks = []
    for i in range(0, a.shape[1], step):
        d = scorer.pair(ad.constant(a[:, i:i + step, None]), y).data
        blocks.append(0.5 * (d[0] + d[1]))
    return np.concatenate(blocks)


def sinkhorn_assign(scores, dustbin=DUSTBIN_DEFAULT, iterations=SINKHORN_ITERS,
                    tau=SINKHORN_TAU):
    """Log-domain Sinkhorn over the (A, B) scores augmented with a dustbin
    row and column that score ``dustbin``.

    Marginals follow the partial-assignment convention: every real patch
    carries unit mass, and each dustbin can absorb the entire other side
    (row marginals [1..1, B], column marginals [1..1, A]).  Returns the
    (A+1, B+1) plan and its largest row or column marginal error.

    ``iterations`` is a cap: the loop stops at the first iteration that
    leaves ``v`` unchanged bit for bit.  ``u`` is computed from ``v``
    alone, so every later iteration would repeat the same bits, and the
    plan and residual are those of the full ``iterations``.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if tau <= 0.0:
        raise ValueError("temperature must be positive")
    a, b = scores.shape
    cost = np.full((a + 1, b + 1), dustbin)
    cost[:a, :b] = scores
    log_k = cost / tau
    log_mu = np.concatenate([np.zeros(a), [math.log(b)]])
    log_nu = np.concatenate([np.zeros(b), [math.log(a)]])
    u = np.zeros(a + 1)
    v = np.zeros(b + 1)
    for _ in range(iterations):
        last = v
        u = log_mu - _lse(log_k + v[None, :], axis=1)
        v = log_nu - _lse(log_k + u[:, None], axis=0)
        # bits, not values: == takes -0.0 for 0.0 and never matches NaN
        if v.tobytes() == last.tobytes():
            break
    plan = np.exp(log_k + u[:, None] + v[None, :])
    row_res = float(np.max(np.abs(plan[:a].sum(axis=1) - 1.0)))
    col_res = float(np.max(np.abs(plan[:, :b].sum(axis=0) - 1.0)))
    return plan, max(row_res, col_res)


def _lse(m, axis):
    shift = np.max(m, axis=axis, keepdims=True)
    return (shift + np.log(np.sum(np.exp(m - shift), axis=axis,
                                  keepdims=True))).squeeze(axis)


def frame_match_score(scores, plan):
    """Assignment-weighted mean score: sum(S * P_interior) / min(A, B),
    where P_interior is the plan without its dustbin row and column."""
    interior = plan[:-1, :-1]
    if interior.shape != scores.shape:
        raise ValueError("plan shape %r does not match scores %r plus "
                         "dustbins" % (plan.shape, scores.shape))
    return float(np.sum(scores * interior) / min(scores.shape))


def same_place_label(frame_a, frame_b, radius=SAME_PLACE_RADIUS_M):
    return int(np.linalg.norm(frame_a.position - frame_b.position) < radius)


def _f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def tune_threshold(scores, labels):
    """Pick the frame threshold maximizing F1; among near-ties (within
    1e-9) prefer the lowest threshold, i.e. the higher-recall operating
    point."""
    if len(scores) == 0:
        raise ValueError("no validation pairs to tune on")
    candidates = sorted({0.0, *scores})
    tp, fp, fn, _ = confusion(scores, labels, candidates)
    best_f1 = -1.0
    for t, f1 in zip(candidates, map(_f1, tp.tolist(), fp.tolist(),
                                     fn.tolist())):
        if f1 > best_f1 + 1e-9:
            best_f1, best_t = f1, t
    return best_t


@dataclass
class PlaceRecognitionReport:
    f1: float
    accuracy: float
    threshold: float
    rows: list = field(default_factory=list)  # (fa, fb, score, decision, label)
    sinkhorn_max_residual: float = 0.0  # largest plan marginal error


def place_recognition_eval(frame_pairs, model, threshold=None, seed=0,
                           scorer=None, dustbin=DUSTBIN_DEFAULT,
                           tau=SINKHORN_TAU, iterations=SINKHORN_ITERS,
                           radius=SAME_PLACE_RADIUS_M):
    """Score frame pairs, tune the threshold on a validation split when
    none is given, and report F1/accuracy on the remaining pairs, with the
    largest Sinkhorn marginal residual over every frame pair.  Tuning holds
    out at least one pair on each side, so it needs two frame pairs.  The
    scorer's ``frame_tables`` over the pairs' frames are made once and
    serve every ``score_matrix`` of the run, so each patch is embedded
    once."""
    if not frame_pairs:
        raise ValueError("no frame pairs to evaluate")
    if threshold is None and len(frame_pairs) < 2:
        raise ValueError("tuning the frame threshold needs at least two "
                         "frame pairs, got %d; set place.tune=false to use "
                         "place.gamma_f" % len(frame_pairs))
    scorer = VariantScorer(model) if scorer is None else scorer
    index = FrameIndex(frame for pair in frame_pairs for frame in pair)
    # no patch at all: score_matrix names the empty frame
    tables = index.frame_tables(scorer) if index.patches else {}
    scored = []
    residual = 0.0
    for fa, fb in frame_pairs:
        label = same_place_label(fa, fb, radius)
        s = score_matrix(fa, fb, model, scorer=scorer, tables=tables)
        plan, pair_residual = sinkhorn_assign(s, dustbin, iterations, tau)
        residual = max(residual, pair_residual)
        value = frame_match_score(s, plan)
        scored.append((fa.frame_id, fb.frame_id, value, label))
    if threshold is None:
        rng = rng_for(seed, "place/val-split")
        order = rng.permutation(len(scored))
        n_val = min(max(1, int(round(VAL_FRACTION * len(scored)))),
                    len(scored) - 1)
        val_idx = set(order[:n_val].tolist())
        threshold = tune_threshold(
            [scored[i][2] for i in sorted(val_idx)],
            [scored[i][3] for i in sorted(val_idx)])
        test = [scored[i] for i in range(len(scored)) if i not in val_idx]
    else:
        test = scored
    rows = [(fa, fb, s, int(s > threshold), y) for fa, fb, s, y in test]
    tp, fp, fn, tn = confusion([r[2] for r in rows], [r[4] for r in rows],
                               threshold)
    return PlaceRecognitionReport(f1=_f1(tp, fp, fn),
                                  accuracy=(tp + tn) / len(rows),
                                  threshold=threshold, rows=rows,
                                  sinkhorn_max_residual=residual)
