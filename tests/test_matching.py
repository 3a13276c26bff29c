import json
import math
import os
import pathlib
from collections import Counter

import numpy as np
import pytest

import patchgraph.autodiff as ad
import patchgraph.matching as matching
from patchgraph.matching import (
    DISCRIMINATORS,
    PAIRINGS,
    DiscriminatorParams,
    FrameIndex,
    MatchModel,
    ModelConfig,
    PairCorpus,
    TrainConfig,
    VariantScorer,
    _cosine_score,
    _l2_score,
    assemble_embeddings,
    discriminate,
    evaluate,
    full_bilinear_score,
    init_discriminator,
    init_model,
    load_model,
    loss_emp_id,
    loss_from_scores,
    match_score,
    save_model,
    symmetric_scores,
    train,
)
from patchgraph.config import SCHEMA, ConfigError, default_config
from patchgraph.scene import Frame, Patch, PairEntry, standard_camera
from patchgraph.seeds import rng_for

GOLDEN = pathlib.Path(__file__).parent / "golden" / "matcher_case.json"


def make_patch(pid, fid, loc, feature=None, pixels=None, rng=None):
    if pixels is None:
        if rng is None:
            pixels = np.zeros((2, 2), dtype=np.uint8)
        else:
            pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    return Patch(pid, fid, (0.0, 0.0, 4.0, 4.0), pixels,
                 loc3d=np.asarray(loc, dtype=np.float64), feature=feature)


def make_frame(fid, patches):
    cam = standard_camera(position=(0.0, 0.0, 0.0))
    return Frame(fid, cam, np.zeros(3), patches)


def feature_corpus(n=8, landmarks=6, noise=0.0, seed=0, unmatched=None):
    """Two frames that see the same landmarks; features come from fixed
    per-landmark prototypes (optionally jittered), so pairs are separable
    in feature space by construction."""
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((landmarks, n))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    frames = []
    for fi in range(2):
        patches = []
        for li in range(landmarks):
            feat = protos[li] + noise * rng.standard_normal(n)
            patches.append(make_patch("f%d/p%03d" % (fi, li), "f%d" % fi,
                                      (3.0 * li, 0.0, 10.0), feature=feat))
        frames.append(make_frame("f%d" % fi, patches))
    entries = [PairEntry("f0/p%03d" % i, "f1/p%03d" % i, 1)
               for i in range(landmarks)]
    count = landmarks if unmatched is None else unmatched
    for j in range(count):
        a = j % landmarks
        b = (j + 1 + j // landmarks) % landmarks
        entries.append(PairEntry("f0/p%03d" % a, "f1/p%03d" % b, 0))
    return PairCorpus.from_frames(frames, entries), frames


def small_pixel_model(seed=0):
    config = ModelConfig(n=4, k=2, featurizer="tiny_conv",
                         architecture="gcn")
    return init_model(config, seed)


class TestAssembleEmbeddings:
    def test_singleton_graph_pools_to_center(self):
        model = init_model(ModelConfig(n=8, k=3), seed=0)
        rng = np.random.default_rng(0)
        patch = make_patch("f0/p000", "f0", (0, 0, 10), rng=rng)
        frame = make_frame("f0", [patch])
        emb = assemble_embeddings(patch, frame, model)
        np.testing.assert_allclose(emb.g.data, emb.rho.data, atol=1e-15)
        np.testing.assert_allclose(
            emb.psi.data, np.concatenate([emb.g.data, emb.rho.data,
                                          emb.f.data]), atol=1e-15)

    def test_lengths_are_2n_and_3n(self):
        rng = np.random.default_rng(1)
        for n in (4, 8):
            model = init_model(ModelConfig(n=n, k=2), seed=1)
            patches = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                                  rng=rng) for i in range(4)]
            frame = make_frame("f0", patches)
            emb = assemble_embeddings(patches[0], frame, model)
            assert emb.phi.data.shape == (2 * n,)
            assert emb.psi.data.shape == (3 * n,)

    def test_concatenation_order(self):
        model = init_model(ModelConfig(n=4, k=2), seed=2)
        rng = np.random.default_rng(2)
        patches = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                              rng=rng) for i in range(3)]
        frame = make_frame("f0", patches)
        emb = assemble_embeddings(patches[1], frame, model)
        np.testing.assert_array_equal(emb.phi.data[:4], emb.rho.data)
        np.testing.assert_array_equal(emb.phi.data[4:], emb.f.data)
        np.testing.assert_array_equal(emb.psi.data[:4], emb.g.data)
        np.testing.assert_array_equal(emb.psi.data[4:8], emb.rho.data)
        np.testing.assert_array_equal(emb.psi.data[8:], emb.f.data)


class TestDiscriminator:
    def test_zero_blocks_score_half(self):
        disc = init_discriminator(4, seed=0)
        for t in disc.blocks().values():
            t.data[...] = 0.0
        phi = ad.constant(np.ones(8))
        psi = ad.constant(np.ones(12))
        assert float(discriminate(phi, psi, disc).data) == 0.5

    def test_expansion_matches_full_matrix_on_random_inputs(self):
        rng = np.random.default_rng(3)
        disc = init_discriminator(6, seed=1)
        worst = 0.0
        for _ in range(100):
            phi = ad.constant(rng.standard_normal(12))
            psi = ad.constant(rng.standard_normal(18))
            a = float(discriminate(phi, psi, disc).data)
            b = full_bilinear_score(phi, psi, disc)
            worst = max(worst, abs(a - b))
        assert worst < 1e-12

    def test_leading_axes_broadcast_bit_for_bit(self):
        # (A, 1, 2n) phi against (1, B, 3n) psi: one score per pair, each
        # with the bits of its own 1-d call
        rng = np.random.default_rng(5)
        disc = init_discriminator(8, seed=6)
        phi = rng.standard_normal((5, 16))
        psi = rng.standard_normal((3, 24))
        got = discriminate(ad.constant(phi[:, None]),
                           ad.constant(psi[None]), disc).data
        want = [[float(discriminate(ad.constant(p), ad.constant(q),
                                    disc).data) for q in psi] for p in phi]
        assert got.shape == (5, 3)
        assert got.tobytes() == np.array(want).tobytes()

    def test_full_matrix_zero_blocks_are_zero(self):
        disc = init_discriminator(5, seed=2)
        full = disc.full_matrix()
        assert np.all(full[:5, :5] == 0.0)
        assert np.all(full[:5, 10:] == 0.0)
        assert np.any(full[:5, 5:10] != 0.0)

    def test_scaling_blocks_saturates_score_monotonically(self):
        rng = np.random.default_rng(4)
        disc = init_discriminator(4, seed=3)
        for _ in range(20):
            phi = ad.constant(rng.standard_normal(8))
            psi = ad.constant(rng.standard_normal(12))
            scores = []
            for scale in (1.0, 10.0, 1000.0):
                scaled = DiscriminatorParams(
                    *[ad.constant(t.data * scale)
                      for t in (disc.m12, disc.m21, disc.m22, disc.m23)])
                scores.append(float(discriminate(phi, psi, scaled).data))
            if scores[0] > 0.5:
                assert scores[0] <= scores[1] <= scores[2]
                assert scores[2] > 0.999
            elif scores[0] < 0.5:
                assert scores[0] >= scores[1] >= scores[2]
                assert scores[2] < 0.001

    def test_dimension_mismatch_rejected(self):
        disc = init_discriminator(4, seed=4)
        with pytest.raises(ValueError):
            discriminate(ad.constant(np.ones(7)), ad.constant(np.ones(12)),
                         disc)
        with pytest.raises(ValueError):
            discriminate(ad.constant(np.ones(8)), ad.constant(np.ones(11)),
                         disc)

    def test_flagship_tables_are_phi_m_and_psi(self):
        # x = phi M and y = psi, both 3n wide, one row per slot
        rng = np.random.default_rng(11)
        frames = [make_frame(fid, [make_patch("%s/p%d" % (fid, i), fid,
                                              (2.0 * i, 0.0, 10.0), rng=rng)
                                   for i in range(4 + j)])
                  for j, fid in enumerate(("f0", "f1"))]
        model = init_model(ModelConfig(n=8, k=3), seed=4)
        tables = FrameIndex(frames).frame_tables(VariantScorer(model))
        xy = np.concatenate([tables[f.frame_id] for f in frames], axis=1)
        assert xy.shape == (2, 9, 24)
        with ad.no_grad():
            emb = [assemble_embeddings(p, f, model)
                   for f in frames for p in f.patches]
        phi = np.stack([e.phi.data for e in emb])
        psi = np.stack([e.psi.data for e in emb])
        assert xy[1].tobytes() == psi.tobytes()
        np.testing.assert_allclose(xy[0], phi @ model.disc.full_matrix(),
                                   rtol=0.0, atol=1e-12)

    def test_matrix_gradients_reach_the_four_blocks_only(self):
        disc = init_discriminator(3, seed=5)
        m = disc.matrix()
        weights = np.random.default_rng(6).standard_normal((6, 9))
        grads = ad.gradients(ad.tsum(m * weights), disc.trainable())
        blocks = {"m12": weights[:3, 3:6], "m21": weights[3:, :3],
                  "m22": weights[3:, 3:6], "m23": weights[3:, 6:]}
        assert [id(t) for t in disc.trainable()] == [
            id(t) for t in disc.blocks().values()]
        for name, g in zip(disc.blocks(), grads):
            assert g.tobytes() == blocks[name].tobytes()
        # the tape's leaves: the four blocks, and zero blocks as constants
        leaves, stack = [], [m]
        while stack:
            t = stack.pop()
            stack.extend(t._parents)
            if not t._parents:
                leaves.append(t)
        trained = [t for t in leaves if t.requires_grad]
        assert sorted(map(id, trained)) == sorted(
            map(id, disc.blocks().values()))
        zeros = [t for t in leaves if not t.requires_grad]
        assert zeros and all(not np.any(t.data) for t in zeros)
        assert not np.any(m.data[:3, :3]) and not np.any(m.data[:3, 6:])

    def test_mismatched_blocks_rejected(self):
        with pytest.raises(ValueError):
            DiscriminatorParams(ad.parameter(np.zeros((3, 3))),
                                ad.parameter(np.zeros((3, 3))),
                                ad.parameter(np.zeros((3, 3))),
                                ad.parameter(np.zeros((3, 4))))


class TestLoss:
    def test_uninformative_scores_give_ln2(self):
        half = ad.constant(np.full(4, 0.5))
        loss = loss_from_scores(ad.stack_rows([half, half]), [1, 0, 1, 0])
        assert abs(float(loss.data) - math.log(2.0)) < 1e-15

    def test_perfect_scores_drive_loss_to_zero(self):
        d = ad.constant([1.0, 0.0])
        loss = float(loss_from_scores(ad.stack_rows([d, d]), [1, 0]).data)
        assert 0.0 < loss < 1e-6

    def test_hand_batch_value(self):
        d = ad.constant([0.8, 0.3])
        loss = float(loss_from_scores(ad.stack_rows([d, d]), [1, 0]).data)
        expected = (-math.log(0.8) - math.log(0.7)) / 2.0
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.2899092476264711) < 1e-12

    def test_zero_model_loss_is_ln2(self):
        corpus, _ = feature_corpus(n=4, landmarks=3, seed=5)
        model = init_model(ModelConfig(n=4, k=2), seed=5)
        for t in model.disc.blocks().values():
            t.data[...] = 0.0
        loss = loss_emp_id(corpus.rows, model)
        assert abs(float(loss.data) - math.log(2.0)) < 1e-12

    def test_empty_batch_rejected(self):
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        with pytest.raises(ValueError):
            loss_emp_id([], model)
        with pytest.raises(ValueError):
            loss_from_scores(ad.stack_rows([ad.constant([]),
                                            ad.constant([])]), [])

    def test_vector_loss_matches_per_pair_reference(self):
        rng = np.random.default_rng(22)
        raw = rng.uniform(0.0, 1.0, size=(7, 2))
        raw[0] = (0.0, 1.0)  # both clamp edges
        labels = [1, 0, 0, 1, 1, 0, 1]
        d_xy, d_yx = ad.parameter(raw[:, 0]), ad.parameter(raw[:, 1])
        loss = loss_from_scores(ad.stack_rows([d_xy, d_yx]), labels)
        lo, hi = 1e-7, 1.0 - 1e-7
        d = np.clip(raw, lo, hi)
        y = np.asarray(labels, dtype=np.float64)[:, None]
        terms = y * np.log(d) + (1.0 - y) * np.log(1.0 - d)
        assert abs(float(loss.data) + terms.sum() / (2 * len(labels))) < 1e-14
        grads = ad.gradients(loss, [d_xy, d_yx])
        inside = (raw >= lo) & (raw <= hi)
        expected = -(y / d - (1.0 - y) / (1.0 - d)) * inside / (2 * len(labels))
        np.testing.assert_allclose(np.stack(grads, axis=1), expected,
                                   rtol=1e-12, atol=0.0)

    def test_bad_label_rejected(self):
        half = ad.constant([0.5])
        with pytest.raises(ValueError):
            loss_from_scores(ad.stack_rows([half, half]), [2])
        with pytest.raises(ValueError):
            loss_from_scores(ad.stack_rows([half, half]), [0, 1])

    def test_one_direction_alone_rejected(self):
        # an (N,) tensor would broadcast against the N labels unnoticed
        for shape in ((3,), (2, 4)):
            with pytest.raises(ValueError,
                               match="score/label count mismatch"):
                loss_from_scores(ad.constant(np.full(shape, 0.5)), [1, 0, 1])

    def test_gradients_reach_every_component(self):
        rng = np.random.default_rng(6)
        model = small_pixel_model(seed=6)
        patches_a = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                                rng=rng) for i in range(3)]
        patches_b = [make_patch("f1/p%03d" % i, "f1", (2.0 * i, 0.5, 10),
                                rng=rng) for i in range(3)]
        fa, fb = make_frame("f0", patches_a), make_frame("f1", patches_b)
        batch = [(patches_a[0], fa, patches_b[0], fb, 1),
                 (patches_a[1], fa, patches_b[2], fb, 0)]
        loss = loss_emp_id(batch, model)
        for group in (model.featurizer, model.gnn, model.disc):
            grads = ad.gradients(loss, group.trainable())
            assert any(np.any(g != 0.0) for g in grads)

    def test_full_pipeline_grad_check(self):
        rng = np.random.default_rng(7)
        model = small_pixel_model(seed=7)
        patches_a = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                                rng=rng) for i in range(3)]
        patches_b = [make_patch("f1/p%03d" % i, "f1", (2.0 * i, 0.5, 10),
                                rng=rng) for i in range(3)]
        fa, fb = make_frame("f0", patches_a), make_frame("f1", patches_b)
        batch = [(patches_a[0], fa, patches_b[0], fb, 1),
                 (patches_a[1], fa, patches_b[2], fb, 0)]

        def f():
            return loss_emp_id(batch, model)

        assert ad.grad_check(f, model.trainable()) < 1e-4


class TestMatchScore:
    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(8)
        model = init_model(ModelConfig(n=8, k=2), seed=8)
        patches_a = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                                rng=rng) for i in range(3)]
        patches_b = [make_patch("f1/p%03d" % i, "f1", (2.0 * i, 1, 11),
                                rng=rng) for i in range(3)]
        fa, fb = make_frame("f0", patches_a), make_frame("f1", patches_b)
        r1 = match_score(patches_a[0], fa, patches_b[1], fb, model)
        r2 = match_score(patches_b[1], fb, patches_a[0], fa, model)
        assert r1.score == r2.score
        assert r1.score_xy == r2.score_yx

    def test_zero_discriminator_rejects_at_half_threshold(self):
        rng = np.random.default_rng(9)
        model = init_model(ModelConfig(n=4, k=2, gamma=0.5), seed=9)
        for t in model.disc.blocks().values():
            t.data[...] = 0.0
        patches = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                              rng=rng) for i in range(2)]
        frame = make_frame("f0", patches)
        result = match_score(patches[0], frame, patches[1], frame, model)
        assert result.score == 0.5
        assert result.decision == 0  # strict inequality at the threshold
        assert match_score(patches[0], frame, patches[1], frame, model,
                           gamma=0.49).decision == 1

    def test_score_is_mean_of_directions(self):
        rng = np.random.default_rng(10)
        model = init_model(ModelConfig(n=4, k=2), seed=10)
        patches = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                              rng=rng) for i in range(3)]
        frame = make_frame("f0", patches)
        r = match_score(patches[0], frame, patches[2], frame, model)
        assert r.score == 0.5 * (r.score_xy + r.score_yx)
        assert 0.0 < r.score < 1.0


class TestTraining:
    def test_zero_learning_rate_keeps_parameters(self):
        corpus, _ = feature_corpus(n=4, landmarks=3, seed=11)
        model = init_model(ModelConfig(n=4, k=2), seed=11)
        before = {k: v.data.copy() for k, v in model.named_tensors().items()}
        train(corpus, model, TrainConfig(epochs=3, lr=0.0, seed=0))
        after = model.named_tensors()
        for k in before:
            assert np.array_equal(before[k], after[k].data)

    def test_same_seed_reproduces_checkpoint(self):
        results = []
        for _ in range(2):
            corpus, _ = feature_corpus(n=4, landmarks=4, seed=12)
            model = init_model(ModelConfig(n=4, k=2), seed=12)
            _, history = train(corpus, model,
                               TrainConfig(epochs=3, lr=0.01, seed=3))
            results.append((history,
                            {k: v.data.tobytes()
                             for k, v in model.named_tensors().items()}))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_separable_features_reach_low_loss(self):
        corpus, _ = feature_corpus(n=8, landmarks=6, seed=13)
        model = init_model(ModelConfig(n=8, k=2), seed=13)
        _, history = train(corpus, model,
                           TrainConfig(epochs=200, lr=0.05, batch_size=32,
                                       seed=0))
        assert history[-1] < 0.1
        assert history[-1] < history[0]

    def test_single_class_warns_but_runs(self):
        corpus, frames = feature_corpus(n=4, landmarks=3, seed=14,
                                        unmatched=0)
        model = init_model(ModelConfig(n=4, k=2), seed=14)
        with pytest.warns(UserWarning):
            _, history = train(corpus, model,
                               TrainConfig(epochs=1, lr=0.01, seed=0))
        assert len(history) == 1

    def test_empty_corpus_rejected(self):
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        with pytest.raises(ValueError):
            train(PairCorpus([]), model, TrainConfig(epochs=1))

    def test_unknown_pair_id_rejected(self):
        _, frames = feature_corpus(n=4, landmarks=2, seed=15)
        with pytest.raises(KeyError):
            PairCorpus.from_frames(frames, [PairEntry("f0/p000", "nope", 1)])


    @pytest.mark.parametrize("balance", [False, True])
    def test_epoch_resamples_the_minority_only_when_balancing(
            self, monkeypatch, balance):
        """One epoch over 3 matched and 6 unmatched rows visits each row
        exactly once with ``balance`` off; with it on, it visits every
        unmatched row once and matched rows 6 times in all, each at least
        once."""
        corpus, _ = feature_corpus(n=4, landmarks=3, seed=16, unmatched=6)
        seen = []
        real = matching.loss_emp_id

        def recording(batch, *args, **kwargs):
            seen.extend((r[0].patch_id, r[2].patch_id, r[4]) for r in batch)
            return real(batch, *args, **kwargs)

        monkeypatch.setattr(matching, "loss_emp_id", recording)
        model = init_model(ModelConfig(n=4, k=2), seed=16)
        train(corpus, model, TrainConfig(epochs=1, lr=0.01, batch_size=4,
                                         seed=0, balance=balance))
        rows = [(r[0].patch_id, r[2].patch_id, r[4]) for r in corpus.rows]
        assert len(set(rows)) == 9
        counts = Counter(seen)
        if not balance:
            assert counts == Counter(rows)
            return
        assert set(counts) == set(rows)
        assert all(counts[r] == 1 for r in rows if r[2] == 0)
        assert sum(counts[r] for r in rows if r[2] == 1) == 6


class FixedScorer:
    """Evaluation stub returning canned symmetric scores: a slot's x row is
    its row of the (P, P) canned score matrix, filled in both directions,
    and its y row picks its column, so ``pair`` reads the canned score."""

    def __init__(self, table):
        self.table = table

    def operands(self, index, slots):
        slot = {patch.patch_id: s
                for s, (patch, _) in enumerate(index.patches)}
        scores = np.zeros((len(slot), len(slot)))
        for (a, b), s in self.table.items():
            scores[slot[a], slot[b]] = scores[slot[b], slot[a]] = s
        slots = list(slots)
        return (ad.constant(scores[slots]),
                ad.constant(np.eye(len(slot))[slots]))

    def pair(self, x, y):
        return ad.tsum(x * y, axis=-1)


class TestEvaluate:
    def _corpus_with_scores(self, scores, labels):
        patches = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10))
                   for i in range(len(scores) + 1)]
        frame = make_frame("f0", patches)
        entries, table = [], {}
        for i, (s, y) in enumerate(zip(scores, labels)):
            a, b = patches[i].patch_id, patches[i + 1].patch_id
            entries.append(PairEntry(a, b, y))
            table[(a, b)] = s
        return PairCorpus.from_frames([frame], entries), FixedScorer(table)

    def test_perfect_separation(self):
        corpus, scorer = self._corpus_with_scores(
            [0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        metrics = evaluate(corpus, model, gamma=0.5, scorer=scorer)
        assert metrics["auc"] == 1.0
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0
        assert metrics["f1"] == 1.0
        assert metrics["undefined"] == []

    def test_confusion_count_oracle(self):
        corpus, scorer = self._corpus_with_scores(
            [0.9, 0.9, 0.9, 0.9, 0.2, 0.1], [1, 1, 1, 0, 1, 0])
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        metrics = evaluate(corpus, model, gamma=0.5, scorer=scorer)
        assert (metrics["tp"], metrics["fp"], metrics["fn"]) == (3, 1, 1)
        assert metrics["precision"] == 0.75
        assert metrics["recall"] == 0.75
        assert metrics["f1"] == 0.75

    def test_identical_scores_auc_half(self):
        corpus, scorer = self._corpus_with_scores(
            [0.7, 0.7, 0.7, 0.7], [1, 0, 1, 0])
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        metrics = evaluate(corpus, model, gamma=0.5, scorer=scorer)
        assert abs(metrics["auc"] - 0.5) < 1e-15

    def test_single_class_flags_undefined(self):
        corpus, scorer = self._corpus_with_scores([0.2, 0.3], [0, 0])
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        metrics = evaluate(corpus, model, gamma=0.5, scorer=scorer)
        assert metrics["auc"] == 0.0
        assert "auc" in metrics["undefined"]
        assert "recall" in metrics["undefined"]

    def test_empty_test_set_rejected(self):
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        with pytest.raises(ValueError):
            evaluate(PairCorpus([]), model)

    def test_tiny_conv_featurizes_each_patch_once(self, monkeypatch):
        # 100 rows run as two inference chunks, and the second chunk's
        # cliques share vertices with the first's
        rng = np.random.default_rng(8)
        frames = [make_frame(fid, [make_patch("%s/p%d" % (fid, i), fid,
                                              (2.0 * i, 0.0, 10.0), rng=rng)
                                   for i in range(10)])
                  for fid in ("f0", "f1")]
        entries = [PairEntry(a.patch_id, b.patch_id, int(i == j))
                   for i, a in enumerate(frames[0].patches)
                   for j, b in enumerate(frames[1].patches)]
        corpus = PairCorpus.from_frames(frames, entries)
        assert len(corpus.rows) > matching.INFERENCE_CHUNK
        model = init_model(ModelConfig(n=8, k=3, featurizer="tiny_conv"),
                           seed=8)
        calls, featurize = [], matching.featurize

        def counted(patch, params):
            calls.append(patch.patch_id)
            return featurize(patch, params)

        monkeypatch.setattr(matching, "featurize", counted)
        evaluate(corpus, model)
        assert sorted(calls) == sorted(p.patch_id for f in frames
                                       for p in f.patches)

    def test_trained_featurizer_is_recomputed_at_every_read(self,
                                                            monkeypatch):
        # outside a tape too: a kept index featurizes only what a read
        # asks for, and scores with the featurizer's current weights
        rng = np.random.default_rng(10)
        frames = [make_frame(fid, [make_patch("%s/p%d" % (fid, i), fid,
                                              (2.0 * i, 0.0, 10.0), rng=rng)
                                   for i in range(10)])
                  for fid in ("f0", "f1")]
        model = init_model(ModelConfig(n=8, k=2, featurizer="tiny_conv"),
                           seed=10)
        row = [(frames[0].patches[3], frames[0],
                frames[1].patches[6], frames[1])]
        index = FrameIndex(frames)
        calls, featurize = [], matching.featurize

        def counted(patch, params):
            calls.append(patch.patch_id)
            return featurize(patch, params)

        monkeypatch.setattr(matching, "featurize", counted)
        with ad.no_grad():
            VariantScorer(model).score_rows(row, index)
        slots, _ = index.row_slots(row)
        vertices = {index.patches[v][0].patch_id
                    for s in slots for v in index.clique(s, 2)}
        assert len(vertices) == 6
        assert sorted(calls) == sorted(vertices)

        model.featurizer.tensors["head.b"].data += 0.5
        with ad.no_grad():
            kept = VariantScorer(model).score_rows(row, index)
            fresh = VariantScorer(model).score_rows(row, FrameIndex(frames))
        assert kept.data.tobytes() == fresh.data.tobytes()

    def test_evaluate_embeds_only_the_slots_its_rows_name(self,
                                                          monkeypatch):
        # 3 rows name 4 of the 20 patches: the graph network embeds those
        # 4, and a trained featurizer reads only their cliques' vertices
        rng = np.random.default_rng(12)
        frames = [make_frame(fid, [make_patch("%s/p%d" % (fid, i), fid,
                                              (2.0 * i, 0.0, 10.0), rng=rng)
                                   for i in range(10)])
                  for fid in ("f0", "f1")]
        a, b = frames[0].patches, frames[1].patches
        corpus = PairCorpus.from_frames(frames, [
            PairEntry(a[1].patch_id, b[2].patch_id, 1),
            PairEntry(a[1].patch_id, b[7].patch_id, 0),
            PairEntry(a[5].patch_id, b[2].patch_id, 0)])
        model = init_model(ModelConfig(n=8, k=2, featurizer="tiny_conv"),
                           seed=12)
        embedded, calls = [], []
        embed_graph, featurize = matching.embed_graph, matching.featurize

        def counted_embed(x, params, pool):
            embedded.append(x.data.shape[0])
            return embed_graph(x, params, pool=pool)

        def counted_featurize(patch, params):
            calls.append(patch.patch_id)
            return featurize(patch, params)

        monkeypatch.setattr(matching, "embed_graph", counted_embed)
        monkeypatch.setattr(matching, "featurize", counted_featurize)
        evaluate(corpus, model)
        assert sum(embedded) == 4
        index = FrameIndex(frames)
        slots, _ = index.row_slots(corpus.rows)
        vertices = {index.patches[v][0].patch_id
                    for s in slots for v in index.clique(s, 2)}
        assert sorted(calls) == sorted(vertices)

    def test_frame_tables_follow_the_current_weights(self):
        # an index kept across a weight update makes its tables anew
        rng = np.random.default_rng(13)
        frames = [make_frame(fid, [make_patch("%s/p%d" % (fid, i), fid,
                                              (2.0 * i, 0.0, 10.0), rng=rng)
                                   for i in range(5)])
                  for fid in ("f0", "f1")]
        model = init_model(ModelConfig(n=8, k=2), seed=13)
        scorer = VariantScorer(model)
        index = FrameIndex(frames)
        before = index.frame_tables(scorer)
        model.disc.m12.data += 0.5
        after = index.frame_tables(scorer)
        fresh = FrameIndex(frames).frame_tables(scorer)
        assert list(after) == list(fresh) == ["f0", "f1"]
        for fid in after:
            assert after[fid].tobytes() == fresh[fid].tobytes()
            assert after[fid].tobytes() != before[fid].tobytes()

    def test_discriminator_products_made_once(self, monkeypatch):
        # 100 rows run as two inference chunks; the flagship's products
        # phi M are made once, one row per patch, not once per chunk.  A
        # training batch makes one per distinct patch, not one per row end
        rng = np.random.default_rng(9)
        frames = [make_frame(fid, [make_patch("%s/p%d" % (fid, i), fid,
                                              (2.0 * i, 0.0, 10.0), rng=rng)
                                   for i in range(10)])
                  for fid in ("f0", "f1")]
        entries = [PairEntry(a.patch_id, b.patch_id, int(i == j))
                   for i, a in enumerate(frames[0].patches)
                   for j, b in enumerate(frames[1].patches)]
        corpus = PairCorpus.from_frames(frames, entries)
        assert len(corpus.rows) > matching.INFERENCE_CHUNK
        model = init_model(ModelConfig(n=8, k=3), seed=9)
        products, row_products = [], matching._row_products

        def counted(a, m):
            products.append(a.data.shape[0])
            return row_products(a, m)

        monkeypatch.setattr(matching, "_row_products", counted)
        evaluate(corpus, model)
        assert products == [20]

        # 4 rows over 5 distinct patches: a[0] named twice, b[0] three times
        a, b = frames[0].patches, frames[1].patches
        rows = [(a[0], frames[0], b[0], frames[1], 1),
                (a[0], frames[0], b[1], frames[1], 0),
                (a[1], frames[0], b[0], frames[1], 0),
                (a[2], frames[0], b[0], frames[1], 1)]
        products.clear()
        loss_emp_id(rows, model)
        assert products == [5]


class TestAblation:
    def test_cosine_identical_vectors(self):
        v = ad.constant(np.array([0.3, -1.2, 0.7]))
        assert abs(float(_cosine_score(v, v).data) - 1.0) < 1e-12

    def test_cosine_opposite_vectors(self):
        v = ad.constant(np.array([1.0, 2.0]))
        w = ad.constant(np.array([-1.0, -2.0]))
        assert abs(float(_cosine_score(v, w).data)) < 1e-12

    def test_cosine_zero_vector_falls_back_to_half(self):
        z = ad.constant(np.zeros(3))
        v = ad.constant(np.ones(3))
        assert float(_cosine_score(z, v).data) == 0.5

    def test_l2_identical_vectors(self):
        v = ad.constant(np.array([0.5, -0.25, 2.0]))
        assert float(_l2_score(v, v).data) == 1.0

    def test_l2_known_distance(self):
        a = ad.constant(np.array([0.0, 0.0]))
        b = ad.constant(np.array([3.0, 4.0]))
        assert abs(float(_l2_score(a, b).data) - math.exp(-5.0)) < 1e-15

    def test_unknown_variant_rejected(self):
        model = init_model(ModelConfig(n=4, k=2), seed=0)
        with pytest.raises(ValueError):
            VariantScorer(model, "g_g", "bilinear")
        with pytest.raises(ValueError):
            VariantScorer(model, "f_f", "dot")

    def test_feature_only_variant_ignores_graph_params(self):
        rng = np.random.default_rng(16)
        model = init_model(ModelConfig(n=8, k=2), seed=16)
        patches_a = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                                rng=rng) for i in range(3)]
        patches_b = [make_patch("f1/p%03d" % i, "f1", (2.0 * i, 1, 10),
                                rng=rng) for i in range(3)]
        fa, fb = make_frame("f0", patches_a), make_frame("f1", patches_b)
        scorer = VariantScorer(model, "f_f", "bilinear", seed=1)
        rows = [(patches_a[0], fa, patches_b[0], fb)]
        before = [float(d) for d in scorer.score_rows(rows).data[:, 0]]
        for t in model.gnn.tensors.values():
            t.data[...] += 10.0
        after = [float(d) for d in scorer.score_rows(rows).data[:, 0]]
        assert before == after

    def test_feature_only_variant_builds_no_graphs(self, monkeypatch):
        corpus, _ = feature_corpus(n=4, landmarks=4, seed=24)
        model = init_model(ModelConfig(n=4, k=2, architecture="gcn"), seed=24)
        scorer = VariantScorer(model, "f_f", "bilinear", seed=3)
        calls = []
        for name in ("graph_for_patch", "embed_graph"):
            monkeypatch.setattr(matching, name,
                                lambda *a, name=name, **kw: calls.append(name))
        train(corpus, model, TrainConfig(epochs=2, lr=0.01, batch_size=4),
              scorer=scorer)
        evaluate(corpus, model, scorer=scorer)
        loss = loss_emp_id(corpus.rows, model, scorer=scorer)
        assert calls == []
        for g in ad.gradients(loss, model.gnn.trainable()):
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("pairing", PAIRINGS)
    @pytest.mark.parametrize("disc", DISCRIMINATORS)
    def test_every_variant_scores_in_unit_interval(self, pairing, disc):
        rng = np.random.default_rng(17)
        model = init_model(ModelConfig(n=8, k=2), seed=17)
        patches_a = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                                rng=rng) for i in range(3)]
        patches_b = [make_patch("f1/p%03d" % i, "f1", (2.0 * i, 1, 10),
                                rng=rng) for i in range(3)]
        fa, fb = make_frame("f0", patches_a), make_frame("f1", patches_b)
        scorer = VariantScorer(model, pairing, disc, seed=2)
        d1, d2 = scorer.score_rows([(patches_a[0], fa, patches_b[1], fb)]).data
        for d in (d1, d2):
            assert 0.0 <= float(d[0]) <= 1.0
        if disc != "bilinear":
            assert scorer.trainable() == []

    def test_metric_flagship_pairing_compares_psi(self):
        rng = np.random.default_rng(18)
        model = init_model(ModelConfig(n=8, k=2), seed=18)
        patches = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                              rng=rng) for i in range(3)]
        frame = make_frame("f0", patches)
        a = VariantScorer(model, "phi_psi", "cosine")
        b = VariantScorer(model, "psi_psi", "cosine")
        rows = [(patches[0], frame, patches[1], frame)]
        sa = a.score_rows(rows)
        sb = b.score_rows(rows)
        assert float(sa.data[0, 0]) == float(sb.data[0, 0])


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = small_pixel_model(seed=19)
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        orig, rest = model.named_tensors(), back.named_tensors()
        assert set(orig) == set(rest)
        for k in orig:
            assert orig[k].data.tobytes() == rest[k].data.tobytes()
        assert vars(back.config) == vars(model.config)

    def test_checkpoint_stores_only_nonzero_blocks(self, tmp_path):
        model = small_pixel_model(seed=20)
        path = tmp_path / "model.json"
        save_model(path, model)
        stored = json.loads(path.read_text())
        disc_keys = {k for k in stored if k.startswith("disc.")}
        assert disc_keys == {"disc.m12", "disc.m21", "disc.m22", "disc.m23"}

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
        old, new = small_pixel_model(seed=23), small_pixel_model(seed=24)
        path = tmp_path / "model.json"
        save_model(path, old)

        def torn_write(target, tensors):
            with open(target, "w") as fh:
                fh.write('{"featurizer.')
            raise OSError("disk full")

        monkeypatch.setattr(ad, "save_named_tensors", torn_write)
        with pytest.raises(OSError):
            save_model(path, new)
        back = load_model(path)
        for name, tensor in old.named_tensors().items():
            assert (back.named_tensors()[name].data.tobytes()
                    == tensor.data.tobytes())
        assert sorted(os.listdir(tmp_path)) == ["model.json",
                                                "model.json.config.json"]

    def test_per_head_checkpoint_loads_and_scores_as_its_source(self,
                                                                tmp_path):
        # gat checkpoints keep one entry per head and layer; build one from
        # a {name: array} dict, each head drawn (w, al, ar) in turn as the
        # model's initialisation draws them
        config = ModelConfig(n=16, k=2, architecture="gat", heads=4)
        source = init_model(config, seed=5)
        arrays = {name: t.data for name, t in source.named_tensors().items()
                  if not name.startswith("gnn.")}
        rng = rng_for(5, "gnn/gat")
        bound = 1.0 / math.sqrt(16)
        for layer in (1, 2):
            for h in range(4):
                for part, shape in (("w", (16, 4)), ("al", (4,)),
                                    ("ar", (4,))):
                    arrays["gnn.layer%d.head%d.%s" % (layer, h, part)] = (
                        rng.uniform(-bound, bound, size=shape))
        path = str(tmp_path / "model.json")
        ad.save_named_tensors(path, arrays)
        with open(path + ".config.json", "w") as fh:
            json.dump(vars(config), fh)

        back = load_model(path)
        stacks = back.gnn.tensors
        for layer in (1, 2):
            heads = ["gnn.layer%d.head%d." % (layer, h) for h in range(4)]
            assert np.array_equal(stacks["layer%d.w" % layer].data,
                                  np.hstack([arrays[h + "w"] for h in heads]))
            assert np.array_equal(stacks["layer%d.a_left" % layer].data,
                                  [arrays[h + "al"] for h in heads])
            assert np.array_equal(stacks["layer%d.a_right" % layer].data,
                                  [arrays[h + "ar"] for h in heads])
        corpus, _ = feature_corpus(n=16, seed=5)
        assert np.array_equal(
            symmetric_scores(corpus.rows, VariantScorer(back)),
            symmetric_scores(corpus.rows, VariantScorer(source)))

    def test_save_load_save_writes_the_same_bytes(self, tmp_path):
        model = init_model(ModelConfig(n=16, k=2, heads=4), seed=6)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(first, model)
        save_model(second, load_model(first))
        for suffix in ("", ".config.json"):
            assert (pathlib.Path(str(first) + suffix).read_bytes()
                    == pathlib.Path(str(second) + suffix).read_bytes())

    def test_dimension_consistency_enforced(self):
        model = small_pixel_model(seed=21)
        with pytest.raises(ValueError):
            MatchModel(model.featurizer, model.gnn,
                       init_discriminator(8, seed=0), model.config)


class TestModelConfig:
    def test_defaults_come_from_the_schema(self):
        assert ModelConfig.from_config(default_config()) == ModelConfig()

    def test_model_keys_and_fields_map_one_to_one(self):
        # a non-default value for every model.* key changes one field each
        other = {"model.n": 16, "model.k": 3, "model.gamma": 0.25,
                 "model.featurizer": "tiny_conv", "model.arch": "gcn",
                 "model.heads": 2, "model.pool": "max"}
        assert sorted(other) == sorted(k for k in SCHEMA
                                       if k.startswith("model."))
        base = vars(ModelConfig())
        changed = []
        for key, value in other.items():
            got = vars(ModelConfig.from_config(dict(default_config(),
                                                    **{key: value})))
            changed += [f for f in got if got[f] != base[f]]
        assert sorted(changed) == sorted(base)

    def test_every_problem_is_listed(self):
        with pytest.raises(ConfigError) as exc:
            ModelConfig(k=0, gamma=2.0, pool="sum")
        assert len(exc.value.problems) == 3

    def test_float_field_takes_an_int(self):
        assert ModelConfig(gamma=1).gamma == 1


class TestTrainConfig:
    def test_defaults_come_from_the_schema(self):
        assert TrainConfig.from_config(default_config(), 0) == TrainConfig()

    # each of these used to reach train(): a zero step in range(), an
    # empty history, an uphill run, non-finite embeddings
    @pytest.mark.parametrize("field, value, key", [
        ("batch_size", 0, "train.batch"),
        ("epochs", 0, "train.epochs"),
        ("lr", -1.0, "train.lr"),
        ("lr", float("nan"), "train.lr"),
    ])
    def test_invalid_value_names_its_key(self, field, value, key):
        with pytest.raises(ConfigError) as exc:
            TrainConfig(**{field: value})
        assert [p.split(":")[0] for p in exc.value.problems] == [key]


class TestGolden:
    def test_golden_embeddings_and_score(self):
        golden = json.loads(GOLDEN.read_text())
        rng = np.random.default_rng(20260401)
        model = init_model(ModelConfig(n=8, k=3, architecture="gat"),
                           seed=314)
        patches_a = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0, 10),
                                rng=rng) for i in range(4)]
        patches_b = [make_patch("f1/p%03d" % i, "f1", (2.0 * i, 1, 11),
                                rng=rng) for i in range(4)]
        fa, fb = make_frame("f0", patches_a), make_frame("f1", patches_b)
        emb = assemble_embeddings(patches_a[0], fa, model)
        np.testing.assert_allclose(emb.phi.data, golden["phi"], atol=1e-12)
        np.testing.assert_allclose(emb.psi.data, golden["psi"], atol=1e-12)
        r = match_score(patches_a[0], fa, patches_b[0], fb, model)
        assert abs(r.score - golden["score"]) < 1e-12
        batch = [(patches_a[0], fa, patches_b[0], fb, 1),
                 (patches_a[1], fa, patches_b[3], fb, 0)]
        loss = float(loss_emp_id(batch, model).data)
        assert abs(loss - golden["loss"]) < 1e-12
