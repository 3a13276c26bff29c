"""Correctness checks on the program's outputs.

Every check recomputes a figure apart from the code path that produced it,
or tests a property the method must have, and returns a list of problems
(empty when the output is right).  Checks take plain data, so the
benchmark's tests can hand them corrupted outputs.
"""

import math

import numpy as np

TOL = 1e-9


def rank_auc(scores, labels):
    """Mann-Whitney AUC: the chance a matched pair outscores an unmatched
    one, ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos = labels == 1
    npos, nneg = int(pos.sum()), int((~pos).sum())
    if npos == 0 or nneg == 0:
        return None
    return (ranks[pos].sum() - npos * (npos + 1) / 2.0) / (npos * nneg)


def _close(a, b, tol=TOL):
    return abs(float(a) - float(b)) <= tol


def check_auc(scores, labels, expected_labels, auc):
    """The reported AUC equals the rank statistic over the reported scores,
    with one score per expected row and the expected labels."""
    problems = []
    if len(scores) != len(expected_labels):
        problems.append("%d scores for %d pairs"
                        % (len(scores), len(expected_labels)))
    if list(labels) != list(expected_labels):
        problems.append("labels differ from the corpus labels")
    ref = rank_auc(scores, expected_labels[:len(scores)])
    if ref is None or not _close(ref, auc):
        problems.append("AUC %r, rank statistic gives %r" % (auc, ref))
    return problems


def check_close(name, got, want, tol=TOL):
    """Elementwise |got - want| <= tol, with equal lengths."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return ["%s: %d values, expected %d" % (name, got.size, want.size)]
    bad = np.flatnonzero(~(np.abs(got - want) <= tol))
    if bad.size:
        i = int(bad[0])
        return ["%s: %d of %d values off by more than %g (first at %d: "
                "%r vs %r)" % (name, bad.size, got.size, tol, i,
                               float(got[i]), float(want[i]))]
    return []


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def vertex_only_scores(fx, fy, matrix):
    """Symmetric f_f score: the mean of sigmoid(f_x' M f_y) and
    sigmoid(f_y' M f_x), one row of ``fx``/``fy`` per pair."""
    fx, fy = np.asarray(fx), np.asarray(fy)
    xy = np.einsum("pi,ij,pj->p", fx, matrix, fy)
    yx = np.einsum("pi,ij,pj->p", fy, matrix, fx)
    return 0.5 * (sigmoid(xy) + sigmoid(yx))


def check_directional_derivative(loss_at, analytic, h=1e-6, tol=1e-6):
    """Central difference (L(+h) - L(-h)) / 2h along a direction against the
    analytic gradient projected on it.  ``loss_at(t)`` is the loss at the
    parameters moved by t times the direction."""
    numeric = (loss_at(h) - loss_at(-h)) / (2.0 * h)
    if not math.isfinite(analytic) or \
            abs(numeric - analytic) > tol * max(1.0, abs(numeric)):
        return ["directional derivative %r, central difference %r"
                % (analytic, numeric)]
    return []


def check_history(history):
    """A finite loss per epoch that falls from the first epoch to the last."""
    if not history:
        return ["empty loss history"]
    if not all(math.isfinite(v) for v in history):
        return ["non-finite loss in %r" % (history,)]
    if len(history) > 1 and not history[-1] < history[0]:
        return ["loss did not fall: %r" % (history,)]
    return []


def check_eval_rows(rows, pairs, gamma):
    """``rows`` (patch_a, patch_b, label, score, decision) cover ``pairs``
    (patch_a, patch_b, label) one for one, in order, and every decision is
    score > gamma."""
    problems = []
    if len(rows) != len(pairs):
        problems.append("%d scored rows for %d pairs"
                        % (len(rows), len(pairs)))
    for i, (row, pair) in enumerate(zip(rows, pairs)):
        if tuple(row[:3]) != tuple(pair):
            problems.append("row %d is %r, pair is %r" % (i, row[:3], pair))
            break
    for i, row in enumerate(rows):
        if row[4] != int(row[3] > gamma):
            problems.append("row %d: decision %r for score %r at gamma %r"
                            % (i, row[4], row[3], gamma))
            break
    return problems


def check_metrics(rows, metrics):
    """precision, recall, F1, confusion counts and AUC recomputed from the
    scored rows."""
    labels = [r[2] for r in rows]
    decisions = [r[4] for r in rows]
    tp = sum(1 for d, y in zip(decisions, labels) if d and y)
    fp = sum(1 for d, y in zip(decisions, labels) if d and not y)
    fn = sum(1 for d, y in zip(decisions, labels) if not d and y)
    tn = sum(1 for d, y in zip(decisions, labels) if not d and not y)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    auc = rank_auc([r[3] for r in rows], labels)
    want = {"precision": precision, "recall": recall, "f1": f1,
            "auc": 0.0 if auc is None else auc,
            "tp": tp, "fp": fp, "fn": fn, "tn": tn}
    return ["%s is %r, rows give %r" % (k, metrics.get(k), v)
            for k, v in want.items()
            if k not in metrics or not _close(metrics[k], v)]


def log_sinkhorn(scores, dustbin, tau, iterations):
    """Partial assignment plan over the dustbin-augmented matrix: unit mass
    per patch, each dustbin able to take the whole other side."""
    a, b = scores.shape
    log_k = np.full((a + 1, b + 1), float(dustbin))
    log_k[:a, :b] = scores
    log_k /= tau
    log_mu = np.append(np.zeros(a), math.log(b))
    log_nu = np.append(np.zeros(b), math.log(a))
    u, v = np.zeros(a + 1), np.zeros(b + 1)
    for _ in range(iterations):
        u = log_mu - np.logaddexp.reduce(log_k + v[None, :], axis=1)
        v = log_nu - np.logaddexp.reduce(log_k + u[:, None], axis=0)
    return np.exp(log_k + u[:, None] + v[None, :])


def frame_score(scores, dustbin, tau, iterations):
    """Assignment-weighted mean score sum(S * P) / min(A, B)."""
    plan = log_sinkhorn(scores, dustbin, tau, iterations)
    a, b = scores.shape
    return float(np.sum(scores * plan[:a, :b]) / min(a, b))


def check_place(rows, report, positions, radius, reference_scores=None):
    """Place-recognition rows (frame_a, frame_b, score, decision, same_place)
    and the report's threshold, F1, accuracy and pair counts.

    ``positions`` maps every frame id to its camera position.  With the
    threshold tuned on a validation half, the validation pairs plus the
    reported rows make up every frame pair once.  ``reference_scores`` maps
    (frame_a, frame_b) to a frame score recomputed by the benchmark.
    """
    problems = []
    ids = list(positions)
    total = len(ids) * (len(ids) - 1) // 2
    n_val = min(max(1, int(round(0.5 * total))), total - 1)
    if report["total_pairs"] != total:
        problems.append("total_pairs %r for %d frames"
                        % (report["total_pairs"], len(ids)))
    if len(rows) + n_val != total:
        problems.append("%d rows + %d validation pairs != %d frame pairs"
                        % (len(rows), n_val, total))
    seen = set()
    for fa, fb, score, decision, same in rows:
        key = frozenset((fa, fb))
        if fa not in positions or fb not in positions or fa == fb \
                or key in seen:
            problems.append("row (%s, %s) is not a new frame pair" % (fa, fb))
            break
        seen.add(key)
        dist = np.linalg.norm(np.asarray(positions[fa], float)
                              - np.asarray(positions[fb], float))
        if same != int(dist < radius):
            problems.append("same_place %r for frames %s, %s %.3f m apart"
                            % (same, fa, fb, dist))
            break
        if decision != int(score > report["threshold"]):
            problems.append("decision %r for score %r at threshold %r"
                            % (decision, score, report["threshold"]))
            break
        if reference_scores is not None and \
                not _close(score, reference_scores[(fa, fb)]):
            problems.append("frame score %r for (%s, %s), reference %r"
                            % (score, fa, fb, reference_scores[(fa, fb)]))
            break
    tp = sum(1 for r in rows if r[3] and r[4])
    fp = sum(1 for r in rows if r[3] and not r[4])
    fn = sum(1 for r in rows if not r[3] and r[4])
    tn = sum(1 for r in rows if not r[3] and not r[4])
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    accuracy = (tp + tn) / len(rows) if rows else 0.0
    if not _close(report["f1"], f1):
        problems.append("f1 %r, rows give %r" % (report["f1"], f1))
    if not _close(report["accuracy"], accuracy):
        problems.append("accuracy %r, rows give %r"
                        % (report["accuracy"], accuracy))
    return problems
