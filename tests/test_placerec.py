import json
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

import patchgraph.autodiff as ad
import patchgraph.matching as matching
import patchgraph.placerec as placerec
from patchgraph.matching import ModelConfig, init_model, match_score
from patchgraph.placerec import (
    DUSTBIN_DEFAULT,
    frame_match_score,
    place_recognition_eval,
    same_place_label,
    score_matrix,
    sinkhorn_assign,
    tune_threshold,
)
from patchgraph.scene import Frame, Patch, standard_camera

GOLDEN = pathlib.Path(__file__).parent / "golden" / "placerec_case.json"


def make_frame(fid, count, position, rng):
    patches = [Patch("%s/p%03d" % (fid, i), fid,
                     (0.0, 0.0, 8.0, 8.0),
                     rng.integers(0, 256, size=(8, 8), dtype=np.uint8),
                     loc3d=np.array([2.0 * i, 0.0, 10.0]))
               for i in range(count)]
    cam = standard_camera(position=position)
    return Frame(fid, cam, np.asarray(position, dtype=np.float64), patches)


def full_sinkhorn(scores, dustbin, iterations, tau):
    """``sinkhorn_assign`` without its early exit: always runs
    ``iterations``, with the same expressions."""
    a, b = scores.shape
    cost = np.full((a + 1, b + 1), dustbin)
    cost[:a, :b] = scores
    log_k = cost / tau
    log_mu = np.concatenate([np.zeros(a), [math.log(b)]])
    log_nu = np.concatenate([np.zeros(b), [math.log(a)]])
    u = np.zeros(a + 1)
    v = np.zeros(b + 1)
    for _ in range(iterations):
        u = log_mu - placerec._lse(log_k + v[None, :], axis=1)
        v = log_nu - placerec._lse(log_k + u[:, None], axis=0)
    plan = np.exp(log_k + u[:, None] + v[None, :])
    row_res = float(np.max(np.abs(plan[:a].sum(axis=1) - 1.0)))
    col_res = float(np.max(np.abs(plan[:, :b].sum(axis=0) - 1.0)))
    return plan, max(row_res, col_res)


def count_lse_calls(monkeypatch):
    calls = []
    original = placerec._lse

    def counted(m, axis):
        calls.append(axis)
        return original(m, axis)

    monkeypatch.setattr(placerec, "_lse", counted)
    return calls


class TestScoreMatrix:
    def test_single_pair_equals_match_score(self):
        rng = np.random.default_rng(0)
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        fa = make_frame("f0", 1, (0, 0, 0), rng)
        fb = make_frame("f1", 1, (1, 0, 0), rng)
        s = score_matrix(fa, fb, matching.VariantScorer(model))
        r = match_score(fa.patches[0], fa, fb.patches[0], fb, model)
        assert s.shape == (1, 1)
        assert s[0, 0] == r.score

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(1)
        model = init_model(ModelConfig(n=4, k=2), seed=1)
        fa = make_frame("f0", 3, (0, 0, 0), rng)
        fb = make_frame("f1", 2, (1, 0, 0), rng)
        ab = score_matrix(fa, fb, matching.VariantScorer(model))
        ba = score_matrix(fb, fa, matching.VariantScorer(model))
        np.testing.assert_array_equal(ab, ba.T)

    def test_two_frames_with_one_id_rejected(self):
        # ``synth`` names frames ``s000/a`` at every seed; a second frame
        # under a kept id must not read the first frame's slots
        rng = np.random.default_rng(4)
        model = init_model(ModelConfig(n=4, k=2), seed=4)
        fa = make_frame("s000/a", 3, (0, 0, 0), rng)
        other = make_frame("s000/a", 3, (1, 0, 0), rng)
        with pytest.raises(ValueError, match="s000/a"):
            score_matrix(fa, other, matching.VariantScorer(model))
        same = score_matrix(fa, fa, matching.VariantScorer(model))
        assert same.shape == (3, 3)
        np.testing.assert_array_equal(same, same.T)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 64])
    def test_blocks_of_rows_keep_the_bytes(self, monkeypatch, chunk):
        """The frame-pair broadcast runs over blocks of A's rows that hold
        at most INFERENCE_CHUNK**2 pairs; any block size gives the bytes of
        the row route."""
        rng = np.random.default_rng(3)
        model = init_model(ModelConfig(n=8, k=2), seed=3)
        fa = make_frame("f0", 7, (0, 0, 0), rng)
        fb = make_frame("f1", 5, (1, 0, 0), rng)
        rows = [(pa, fa, pb, fb) for pa in fa.patches for pb in fb.patches]
        with ad.no_grad():
            d_xy, d_yx = matching.VariantScorer(model).score_rows(rows).data
        want = (0.5 * (d_xy + d_yx)).reshape(7, 5)
        monkeypatch.setattr(placerec, "INFERENCE_CHUNK", chunk)
        scorer = matching.VariantScorer(model)
        assert score_matrix(fa, fb, scorer).tobytes() == want.tobytes()
        assert score_matrix(fb, fa, scorer).T.tobytes() == want.tobytes()

    def test_empty_frame_rejected(self):
        rng = np.random.default_rng(2)
        model = init_model(ModelConfig(n=4, k=2), seed=2)
        fa = make_frame("f0", 2, (0, 0, 0), rng)
        empty = Frame("f1", standard_camera(position=(0, 0, 0)),
                      np.zeros(3), [])
        with pytest.raises(ValueError):
            score_matrix(fa, empty, matching.VariantScorer(model))
        # frame pairs without a single patch name the empty frame too
        other = Frame("f2", standard_camera(position=(0, 0, 0)),
                      np.zeros(3), [])
        with pytest.raises(ValueError, match="at least one patch"):
            place_recognition_eval([(empty, other)], model, threshold=0.5)

    def test_golden_case(self):
        golden = json.loads(GOLDEN.read_text())
        rng = np.random.default_rng(20260501)
        model = init_model(ModelConfig(n=8, k=2, architecture="gat"),
                           seed=271)
        fa = make_frame("f0", 3, (0, 0, 0), rng)
        fb = make_frame("f1", 4, (3, 0, 0), rng)
        s = score_matrix(fa, fb, matching.VariantScorer(model))
        np.testing.assert_allclose(s, np.asarray(golden["scores"]),
                                   atol=1e-12)
        plan, _ = sinkhorn_assign(s)
        assert abs(frame_match_score(s, plan) - golden["frame_score"]) < 1e-12


class TestSinkhorn:
    def test_uniform_scores_give_uniform_interior(self):
        # permutation symmetry: every interior entry must be identical,
        # and with a very low dustbin score nearly all row mass stays in
        # the interior block
        plan = sinkhorn_assign(np.full((4, 4), 0.7), dustbin=-50.0)[0][:-1, :-1]
        assert plan.max() - plan.min() < 1e-9
        assert plan.min() > 0.24
        np.testing.assert_allclose(plan.sum(axis=1), np.full(4, plan.sum(axis=1)[0]),
                                   atol=1e-9)

    def test_diagonal_scores_recover_identity(self):
        interior = sinkhorn_assign(np.eye(5), dustbin=-5.0)[0][:-1, :-1]
        assert np.all(np.diag(interior) > 0.95)
        off = interior - np.diag(np.diag(interior))
        assert np.all(off < 0.05)

    @pytest.mark.parametrize("seed,shape", [(0, (5, 5)), (1, (3, 7)),
                                            (2, (8, 2)), (3, (1, 4))])
    def test_residuals_small_after_default_iterations(self, seed, shape):
        rng = np.random.default_rng(seed)
        plan, residual = sinkhorn_assign(rng.uniform(0.0, 1.0, size=shape))
        assert residual < 1e-6
        a, b = shape
        np.testing.assert_allclose(plan[:a].sum(axis=1), np.ones(a),
                                   atol=1e-6)
        np.testing.assert_allclose(plan[:, :b].sum(axis=0), np.ones(b),
                                   atol=1e-6)

    def test_planted_permutation_recovered(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(20):
            perm = rng.permutation(10)
            s = 0.05 + 0.02 * rng.uniform(size=(10, 10))
            s[np.arange(10), perm] = 0.9 + 0.05 * rng.uniform(size=10)
            plan = sinkhorn_assign(s)[0][:-1, :-1]
            hits += int(np.array_equal(plan.argmax(axis=1), perm))
        assert hits == 20

    @pytest.mark.parametrize("tau", [0.1, 0.05])
    @pytest.mark.parametrize("iterations", [1, 2, 7, 100, 300])
    @pytest.mark.parametrize("dustbin", [0.2, 0.5, -5.0])
    def test_early_exit_matches_full_run(self, dustbin, iterations, tau):
        # stopping at the bitwise fixed point of v leaves the plan and the
        # residual byte-identical to running every iteration
        rng = np.random.default_rng(iterations)
        shapes = [(1, 1), (1, 4), (1, 12), (5, 1), (12, 1), (3, 7),
                  (8, 2), (12, 12)]
        shapes += [tuple(rng.integers(1, 13, size=2)) for _ in range(4)]
        cases = [rng.uniform(0.0, 1.0, size=shape) for shape in shapes]
        cases += [np.full(shape, value) for shape, value in
                  [((1, 1), 0.5), ((4, 4), 0.7), ((3, 9), 0.0),
                   ((12, 5), 1.0), ((1, 6), 0.3), ((6, 1), 0.9)]]
        for scores in cases:
            plan, residual = sinkhorn_assign(scores, dustbin, iterations, tau)
            want_plan, want_residual = full_sinkhorn(scores, dustbin,
                                                     iterations, tau)
            assert plan.tobytes() == want_plan.tobytes()
            assert residual.hex() == want_residual.hex()

    def test_early_exit_fires(self, monkeypatch):
        calls = count_lse_calls(monkeypatch)
        scores = np.random.default_rng(5).uniform(0.0, 1.0, size=(6, 8))
        sinkhorn_assign(scores)
        assert 0 < len(calls) < 200

    def test_parameter_validation(self):
        s = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            sinkhorn_assign(s, iterations=0)
        with pytest.raises(ValueError):
            sinkhorn_assign(s, tau=0.0)


class TestFrameScore:
    def test_identity_assignment_of_perfect_scores(self):
        plan = np.zeros((4, 4))
        plan[:3, :3] = np.eye(3)
        assert frame_match_score(np.eye(3), plan) == 1.0

    def test_all_dustbin_scores_zero(self):
        plan = np.zeros((3, 4))
        plan[:2, 3] = 1.0
        plan[2, :3] = 1.0
        assert frame_match_score(np.full((2, 3), 0.9), plan) == 0.0

    def test_monotone_in_scores(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0.0, 0.9, size=(3, 4))
        plan, _ = sinkhorn_assign(scores)
        base = frame_match_score(scores, plan)
        for i in range(3):
            for j in range(4):
                bumped = scores.copy()
                bumped[i, j] = min(1.0, bumped[i, j] + 0.05)
                assert frame_match_score(bumped, plan) >= base

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            frame_match_score(np.full((2, 2), 0.5), np.zeros((4, 4)))


class TestPlaceLabels:
    def test_nearby_frames_same_place(self):
        rng = np.random.default_rng(6)
        fa = make_frame("f0", 1, (0.0, 0.0, 0.0), rng)
        fb = make_frame("f1", 1, (5.0, 0.0, 0.0), rng)
        assert same_place_label(fa, fb) == 1

    def test_distant_frames_different_place(self):
        rng = np.random.default_rng(7)
        fa = make_frame("f0", 1, (0.0, 0.0, 0.0), rng)
        fb = make_frame("f1", 1, (50.0, 0.0, 0.0), rng)
        assert same_place_label(fa, fb) == 0

    def test_boundary_is_strict(self):
        rng = np.random.default_rng(8)
        fa = make_frame("f0", 1, (0.0, 0.0, 0.0), rng)
        fb = make_frame("f1", 1, (10.0, 0.0, 0.0), rng)
        assert same_place_label(fa, fb) == 0

    def test_missing_position_rejected(self):
        # a frame without a finite position cannot be built, so
        # same_place_label never sees one
        rng = np.random.default_rng(9)
        make_frame("f0", 1, (0.0, 0.0, 0.0), rng)
        with pytest.raises(ValueError, match="f1"):
            make_frame("f1", 1, (np.nan, 0.0, 0.0), rng)


class TestThresholdTuning:
    def test_perfect_separation(self):
        t = tune_threshold([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        decisions = [int(s > t) for s in [0.9, 0.8, 0.2, 0.1]]
        assert decisions == [1, 1, 0, 0]

    def test_prefers_higher_recall_on_ties(self):
        # t=0 (tp=2, fp=2) and t=0.5 (tp=1, fp=1) both give F1=2/3;
        # the lower threshold — the higher-recall operating point — wins
        t = tune_threshold([0.8, 0.8, 0.5, 0.5], [1, 0, 1, 0])
        assert t == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tune_threshold([], [])


# The counting routines as they were before ``confusion`` took scores and
# thresholds: the references that the sorted count must match bit for bit.
def reference_confusion(decisions, labels):
    counts = Counter((bool(d), bool(y)) for d, y in zip(decisions, labels))
    return (counts[True, True], counts[True, False], counts[False, True],
            counts[False, False])


def reference_roc_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    npos = int(np.sum(labels == 1))
    nneg = int(np.sum(labels == 0))
    if npos == 0 or nneg == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    auc = 0.0
    tp = fp = 0
    prev_tpr = prev_fpr = 0.0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            tp += int(labels[order[j]] == 1)
            fp += int(labels[order[j]] == 0)
            j += 1
        tpr, fpr = tp / npos, fp / nneg
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        prev_tpr, prev_fpr = tpr, fpr
        i = j
    return auc


def reference_f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def reference_tune_threshold(scores, labels):
    best_f1, best_t = -1.0, 0.5
    candidates = sorted({0.0, *scores})
    for t in candidates:
        tp, fp, fn, _ = reference_confusion([s > t for s in scores], labels)
        f1 = reference_f1(tp, fp, fn)
        if f1 > best_f1 + 1e-9 or (abs(f1 - best_f1) <= 1e-9 and t < best_t):
            best_f1, best_t = f1, t
    return best_t


# pools with heavy ties, both zeros, a tiny positive and two neighbouring
# floats
TIE_POOL = [0.0, -0.0, 1e-300, 0.25, 0.5, 0.5 + 2.0 ** -53, 0.75, 1.0]


def random_case(rng):
    # mostly small cases, where ties and one-class labels are common
    n = int(rng.integers(1, 401 if rng.random() < 0.3 else 41))
    kind = rng.integers(4)
    if kind == 0:
        scores = rng.choice(TIE_POOL, size=n)
    elif kind == 1:
        scores = rng.random(n)
    elif kind == 2:
        scores = np.round(rng.random(n), int(rng.integers(1, 3)))
    else:
        scores = np.where(rng.random(n) < 0.5, rng.choice(TIE_POOL, size=n),
                          rng.random(n))
    p = rng.choice([0.0, 1.0, 0.1, 0.5, 0.9])
    labels = (rng.random(n) < p).astype(int).tolist()
    return scores.tolist(), labels


@pytest.mark.parametrize("seed", range(4))
def test_sorted_count_matches_the_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        scores, labels = random_case(rng)
        want_auc = reference_roc_auc(scores, labels)
        got_auc = matching._roc_auc(scores, labels)
        if want_auc is None:
            assert got_auc is None
        else:
            assert float.hex(got_auc) == float.hex(want_auc)
        want_t = reference_tune_threshold(scores, labels)
        got_t = tune_threshold(scores, labels)
        assert got_t == want_t
        assert math.copysign(1.0, got_t) == math.copysign(1.0, want_t)
        thresholds = [0.0, *scores]
        counts = matching.confusion(scores, labels, thresholds)
        for i, t in enumerate(thresholds):
            want = reference_confusion([s > t for s in scores], labels)
            got = matching.confusion(scores, labels, t)
            assert got == want
            assert all(type(c) is int for c in got)
            assert tuple(int(c[i]) for c in counts) == want


class PlaceScorer:
    """Stub patch scorer driven by frame-position proximity."""

    def __init__(self, high=0.9, low=0.1):
        self.high, self.low = high, low

    def operands(self, index, slots):
        positions = ad.constant([index.patches[s][1].position for s in slots])
        return positions, positions

    def pair(self, x, y):
        return ad.constant(np.where(np.linalg.norm(x.data - y.data, axis=-1)
                                    < 10.0, self.high, self.low))


class TestPlaceRecognitionEval:
    def _pairs(self, rng):
        pairs = []
        for i in range(4):
            base = 100.0 * i
            fa = make_frame("a%d" % i, 3, (base, 0.0, 0.0), rng)
            fb = make_frame("b%d" % i, 3, (base + 4.0, 0.0, 0.0), rng)
            fc = make_frame("c%d" % i, 3, (base + 40.0, 0.0, 0.0), rng)
            pairs.append((fa, fb))   # same place
            pairs.append((fa, fc))   # different place
        return pairs

    def test_perfect_scorer_perfect_metrics(self):
        rng = np.random.default_rng(10)
        model = init_model(ModelConfig(n=4, k=2), seed=3)
        report = place_recognition_eval(self._pairs(rng), model,
                                        scorer=PlaceScorer(), seed=1)
        assert report.f1 == 1.0
        assert report.accuracy == 1.0
        assert len(report.rows) == 4  # half held out for tuning

    def test_explicit_threshold_skips_tuning(self):
        rng = np.random.default_rng(11)
        model = init_model(ModelConfig(n=4, k=2), seed=4)
        report = place_recognition_eval(self._pairs(rng), model,
                                        scorer=PlaceScorer(),
                                        threshold=0.5)
        assert len(report.rows) == 8
        assert report.threshold == 0.5

    def test_empty_rejected(self):
        model = init_model(ModelConfig(n=4, k=2), seed=5)
        with pytest.raises(ValueError):
            place_recognition_eval([], model)

    def test_tuning_needs_two_frame_pairs(self):
        rng = np.random.default_rng(13)
        model = init_model(ModelConfig(n=4, k=2), seed=5)
        one = self._pairs(rng)[:1]
        with pytest.raises(ValueError, match="place.tune=false"):
            place_recognition_eval(one, model, scorer=PlaceScorer())
        report = place_recognition_eval(one, model, scorer=PlaceScorer(),
                                        threshold=0.5)
        assert len(report.rows) == 1

    def test_each_patch_embedded_once_per_run(self, monkeypatch):
        rng = np.random.default_rng(12)
        model = init_model(ModelConfig(n=4, k=2), seed=6)
        frames = [make_frame("f%d" % i, 2 + i, (6.0 * i, 0.0, 0.0), rng)
                  for i in range(4)]
        pairs = [(a, b) for i, a in enumerate(frames) for b in frames[i + 1:]]
        expected = []
        for fa, fb in pairs:
            s = score_matrix(fa, fb, matching.VariantScorer(model))
            value = frame_match_score(s, sinkhorn_assign(s)[0])
            expected.append((fa.frame_id, fb.frame_id, value,
                             int(value > 0.5), same_place_label(fa, fb)))
        embedded = []
        original = matching.graph_for_patch

        def counted(patch, frame, k):
            embedded.append((frame.frame_id, patch.patch_id))
            return original(patch, frame, k=k)

        monkeypatch.setattr(matching, "graph_for_patch", counted)
        report = place_recognition_eval(pairs, model, threshold=0.5)
        assert len(embedded) == len(set(embedded)) == sum(
            len(f.patches) for f in frames)
        assert report.rows == expected

    def test_featurizes_and_tables_each_frame_once(self, monkeypatch):
        """Over every pair of 4 frames, each patch is featurized once, and
        the discriminator products are made once for the whole run, one row
        per patch, not once per frame or per pair."""
        rng = np.random.default_rng(15)
        model = init_model(ModelConfig(n=8, k=3, featurizer="tiny_conv"),
                           seed=9)
        frames = [make_frame("f%d" % i, 3 + i, (6.0 * i, 0.0, 0.0), rng)
                  for i in range(4)]
        pairs = [(a, b) for i, a in enumerate(frames) for b in frames[i + 1:]]
        featurized, products = [], []
        featurize, row_products = matching.featurize, matching._row_products

        def counted_featurize(patch, params):
            featurized.append(patch.patch_id)
            return featurize(patch, params)

        def counted_row_products(a, m):
            products.append(a.data.shape[0])
            return row_products(a, m)

        monkeypatch.setattr(matching, "featurize", counted_featurize)
        monkeypatch.setattr(matching, "_row_products", counted_row_products)
        place_recognition_eval(pairs, model, threshold=0.5)
        patches = [p.patch_id for f in frames for p in f.patches]
        assert sorted(featurized) == sorted(patches)
        assert products == [len(patches)]

    @pytest.mark.parametrize("dustbin", [DUSTBIN_DEFAULT, -5.0])
    def test_report_carries_largest_sinkhorn_residual(self, dustbin):
        rng = np.random.default_rng(14)
        model = init_model(ModelConfig(n=4, k=2), seed=8)
        pairs = self._pairs(rng)[:3]
        for iterations in (2, 100):
            want, rows = 0.0, []
            for fa, fb in pairs:
                s = score_matrix(fa, fb, matching.VariantScorer(model))
                plan, residual = sinkhorn_assign(s, dustbin=dustbin,
                                                 iterations=iterations)
                want = max(want, residual)
                value = frame_match_score(s, plan)
                rows.append((fa.frame_id, fb.frame_id, value,
                             int(value > 0.5), same_place_label(fa, fb)))
            report = place_recognition_eval(pairs, model, threshold=0.5,
                                            dustbin=dustbin,
                                            iterations=iterations)
            assert report.sinkhorn_max_residual == want
            assert report.rows == rows
        # 100 iterations converge at the default dustbin; at -5.0 they
        # leave a residual of about 5e-3, which ``place`` warns about
        if dustbin == DUSTBIN_DEFAULT:
            assert want < 1e-6

    def test_iterations_cap_binds_when_unconverged(self, monkeypatch):
        # at dustbin -5.0 these frames' plans reach no fixed point within
        # 100 iterations, so each pair runs all of them and stops short of
        # where 200 iterations take it
        rng = np.random.default_rng(14)
        model = init_model(ModelConfig(n=4, k=2), seed=8)
        calls = count_lse_calls(monkeypatch)
        for fa, fb in self._pairs(rng)[:3]:
            s = score_matrix(fa, fb, matching.VariantScorer(model))
            calls.clear()
            plan, residual = sinkhorn_assign(s, dustbin=-5.0, iterations=100)
            assert len(calls) == 200
            assert residual > 1e-3
            longer, _ = full_sinkhorn(s, -5.0, 200, placerec.SINKHORN_TAU)
            assert plan.tobytes() != longer.tobytes()

    def test_radius_sets_the_same_place_label(self):
        rng = np.random.default_rng(13)
        model = init_model(ModelConfig(n=4, k=2), seed=7)
        fa = make_frame("f0", 1, (0.0, 0.0, 0.0), rng)
        fb = make_frame("f1", 1, (15.0, 0.0, 0.0), rng)
        labels = [place_recognition_eval([(fa, fb)], model, threshold=0.5,
                                         scorer=PlaceScorer(),
                                         radius=r).rows[0][4]
                  for r in (10.0, 20.0)]
        assert labels == [0, 1]
