"""The batched scoring path against the per-pair reference.

Training and inference share one scorer protocol.
``VariantScorer.operands(index, slots)`` embeds the slots, running each
group of equal-size cliques through the graph network as one stack, and
returns each slot's x and y rows (x = a M for a bilinear form); ``pair``
scores such rows.  ``score_rows`` runs ``operands`` once over a batch's
distinct patches, gathers both directions of every row on axis 0 of one
stack and scores them in one ``pair`` pass.  The reference takes each
patch through ``assemble_embeddings`` on its own, scores each pair with
the paper's 1-d ``discriminate`` (or the variant's bilinear form), and sums
the loss one directed score at a time.  Scores, loss and gradients must
agree to 1e-12.

Inference runs the same ``operands`` and ``pair``: over the rows' slots
for a pair list (``symmetric_scores``), over every slot of the call's
frames for frame pairs (``FrameIndex.frame_tables``); for every pairing
and discriminator its scores must equal those of ``score_rows`` bit for
bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchgraph.autodiff as ad
from patchgraph.gnn import gat_layer, init_gnn
from patchgraph.matching import (
    DISCRIMINATORS,
    PAIRINGS,
    SCORE_CLAMP,
    FrameIndex,
    ModelConfig,
    VariantScorer,
    assemble_embeddings,
    discriminate,
    init_model,
    loss_emp_id,
    symmetric_scores,
)
from patchgraph.placerec import score_matrix
from patchgraph.scene import Frame, Patch, standard_camera

ARCHITECTURES = ("gcn", "gat", "sage")
TOL = 1e-12


def make_frames(sizes, rng, features, width=4):
    """Frames of the given patch counts with random locations, pixels and
    (optionally) precomputed descriptors of the given width."""
    frames = []
    for fi, count in enumerate(sizes):
        fid = "f%d" % fi
        patches = [Patch("%s/p%d" % (fid, i), fid, (0.0, 0.0, 8.0, 8.0),
                         rng.integers(0, 256, size=(8, 8), dtype=np.uint8),
                         loc3d=rng.uniform(-5.0, 5.0, size=3),
                         feature=(rng.standard_normal(width) if features
                                  else None))
                   for i in range(count)]
        frames.append(Frame(fid, standard_camera(position=(0.0, 0.0, 0.0)),
                            np.zeros(3), patches))
    return frames


def reference(rows, model, scorer):
    """Per-pair directed scores and the loss summed score by score."""
    embedded = {}

    def embed(patch, frame):
        key = (frame.frame_id, patch.patch_id)
        if key not in embedded:
            embedded[key] = assemble_embeddings(patch, frame, model)
        return embedded[key]

    def directed(ex, ey):
        if scorer.pairing == "phi_psi":
            return discriminate(ex.phi, ey.psi, model.disc)
        field_x, field_y = scorer.pairing.split("_")
        a, b = getattr(ex, field_x), getattr(ey, field_y)
        return ad.sigmoid(a @ (scorer.matrix @ b))

    lo, hi = SCORE_CLAMP
    scores, loss = [], ad.constant(0.0)
    for px, fx, py, fy, label in rows:
        ex, ey = embed(px, fx), embed(py, fy)
        pair = (directed(ex, ey), directed(ey, ex))
        scores.append(pair)
        for d in pair:
            d = ad.clamp(d, lo, hi)
            loss = loss + ad.log(d if label else 1.0 - d)
    return scores, loss * (-0.5 / len(rows))


def assert_matches_reference(rows, model, scorer):
    ref_scores, ref_loss = reference(rows, model, scorer)
    d_xy, d_yx = scorer.score_rows(rows).data
    np.testing.assert_allclose(d_xy, [float(a.data) for a, _ in ref_scores],
                               rtol=0, atol=TOL)
    np.testing.assert_allclose(d_yx, [float(b.data) for _, b in ref_scores],
                               rtol=0, atol=TOL)

    loss = loss_emp_id(rows, model, scorer=scorer)
    assert abs(float(loss.data) - float(ref_loss.data)) <= TOL
    params = scorer.trainable()
    for got, want in zip(ad.gradients(loss, params),
                         ad.gradients(ref_loss, params)):
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    # inference: the operands of the rows' slots, made without a tape
    want = [0.5 * (float(a.data) + float(b.data)) for a, b in ref_scores]
    np.testing.assert_allclose(symmetric_scores(rows, scorer), want,
                               rtol=0, atol=TOL)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_score_rows_matches_per_pair_reference(data):
    arch = data.draw(st.sampled_from(ARCHITECTURES), label="arch")
    pool = data.draw(st.sampled_from(("mean", "max")), label="pool")
    descriptors = data.draw(st.sampled_from(
        ("feature", "fixed_hist", "tiny_conv")), label="descriptors")
    pairing = data.draw(st.sampled_from(PAIRINGS), label="pairing")
    k = data.draw(st.integers(1, 3), label="k")
    # frame sizes from a single patch up to more than K+1 patches
    sizes = data.draw(st.lists(st.integers(1, k + 2), min_size=1,
                               max_size=3), label="sizes")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    rng = np.random.default_rng(seed)
    frames = make_frames(sizes, rng, features=descriptors == "feature")
    patches = [(p, f) for f in frames for p in f.patches]
    # rows may repeat a patch, pair a patch with itself or stay in a frame
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(patches) - 1),
                  st.integers(0, len(patches) - 1), st.integers(0, 1)),
        min_size=1, max_size=8), label="rows")
    rows = [(*patches[i], *patches[j], label) for i, j, label in picks]
    model = init_model(ModelConfig(
        n=4, k=k, heads=2, architecture=arch, pool=pool,
        featurizer="tiny_conv" if descriptors == "tiny_conv"
        else "fixed_hist"), seed)
    assert_matches_reference(rows, model, VariantScorer(model, pairing,
                                                        seed=seed))


@pytest.mark.parametrize("arch,pool",
                         itertools.product(ARCHITECTURES, ("mean", "max")))
def test_ragged_frames_and_repeated_patches(arch, pool):
    """Frames of 1, 2 and 5 patches at K=3 (cliques of 1, 2 and 4
    vertices), with rows that repeat a patch, pair a patch with itself and
    stay inside one frame."""
    rng = np.random.default_rng(7)
    single, pair, full = make_frames([1, 2, 5], rng, features=False)
    model = init_model(ModelConfig(n=4, k=3, heads=2, architecture=arch,
                                   pool=pool), 7)
    p, q = full.patches[0], full.patches[3]
    rows = [(single.patches[0], single, p, full, 1),
            (p, full, q, full, 0),                       # within one frame
            (pair.patches[1], pair, p, full, 1),
            (q, full, q, full, 1),                       # a patch and itself
            (p, full, q, full, 1),                       # a repeated row
            (pair.patches[0], pair, pair.patches[1], pair, 0)]
    assert_matches_reference(rows, model, VariantScorer(model))


def row_route(rows, scorer):
    """Symmetric inference scores through ``score_rows``, the tape route of
    training and ``match_score``."""
    with ad.no_grad():
        d_xy, d_yx = scorer.score_rows(rows).data
    return 0.5 * (d_xy + d_yx)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_score_tables_match_the_row_route_bit_for_bit(data):
    """``score_matrix``, with and without the ``frame_tables`` of an index
    over every frame, and ``symmetric_scores``, for each of the 15
    pairings x discriminators, must give the bytes of the ``score_rows``
    route, and a frame pair's matrix must be the exact transpose of the
    swapped pair's."""
    pairing, discriminator = data.draw(st.sampled_from(
        list(itertools.product(PAIRINGS, DISCRIMINATORS))), label="scorer")
    arch = data.draw(st.sampled_from(ARCHITECTURES), label="arch")
    pool = data.draw(st.sampled_from(("mean", "max")), label="pool")
    descriptors = data.draw(st.sampled_from(
        ("feature", "fixed_hist", "tiny_conv")), label="descriptors")
    n = data.draw(st.sampled_from((4, 32)), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=3),
                      label="sizes")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    rng = np.random.default_rng(seed)
    frames = make_frames(sizes, rng, features=descriptors == "feature",
                         width=n)
    model = init_model(ModelConfig(
        n=n, k=k, heads=2, architecture=arch, pool=pool,
        featurizer="tiny_conv" if descriptors == "tiny_conv"
        else "fixed_hist"), seed)
    scorer = VariantScorer(model, pairing, discriminator, seed=seed)
    index = FrameIndex(frames)
    for fa, fb in itertools.combinations(frames, 2):
        rows = [(pa, fa, pb, fb) for pa in fa.patches for pb in fb.patches]
        want = row_route(rows, scorer).reshape(len(fa.patches),
                                               len(fb.patches))
        for tables in (None, index.frame_tables(scorer)):
            ab = score_matrix(fa, fb, model, scorer, tables)
            assert ab.tobytes() == want.tobytes()
            assert ab.tobytes() == score_matrix(fb, fa, model, scorer,
                                                tables).T.tobytes()
    patches = [(p, f) for f in frames for p in f.patches]
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(patches) - 1),
                  st.integers(0, len(patches) - 1)),
        min_size=1, max_size=80), label="rows")
    rows = [(*patches[i], *patches[j]) for i, j in picks]
    got = np.asarray(symmetric_scores(rows, scorer))
    assert got.tobytes() == row_route(rows, scorer).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_one_is_the_swapped_rows_row_zero(data):
    """Row 1 of ``score_rows`` is each pair read y -> x: for each of the 15
    pairings x discriminators it equals row 0 of the swapped rows bit for
    bit."""
    pairing, discriminator = data.draw(st.sampled_from(
        list(itertools.product(PAIRINGS, DISCRIMINATORS))), label="scorer")
    arch = data.draw(st.sampled_from(ARCHITECTURES), label="arch")
    descriptors = data.draw(st.sampled_from(
        ("feature", "fixed_hist", "tiny_conv")), label="descriptors")
    k = data.draw(st.integers(1, 3), label="k")
    sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3),
                      label="sizes")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    rng = np.random.default_rng(seed)
    frames = make_frames(sizes, rng, features=descriptors == "feature")
    model = init_model(ModelConfig(
        n=4, k=k, heads=2, architecture=arch,
        featurizer="tiny_conv" if descriptors == "tiny_conv"
        else "fixed_hist"), seed)
    scorer = VariantScorer(model, pairing, discriminator, seed=seed)
    patches = [(p, f) for f in frames for p in f.patches]
    picks = data.draw(st.lists(
        st.tuples(st.integers(0, len(patches) - 1),
                  st.integers(0, len(patches) - 1)),
        min_size=1, max_size=8), label="rows")
    rows = [(*patches[i], *patches[j]) for i, j in picks]
    swapped = [(*patches[j], *patches[i]) for i, j in picks]
    with ad.no_grad():
        d = scorer.score_rows(rows).data
        e = scorer.score_rows(swapped).data
    assert d.shape == e.shape == (2, len(rows))
    assert d[1].tobytes() == e[0].tobytes()
    assert d[0].tobytes() == e[1].tobytes()


def per_head_gat_layer(x, w, a_left, a_right):
    """The gat layer as one tape branch per head, each head reading its
    column block of ``w`` and its rows of the attention vectors, with the
    heads' outputs concatenated: the reference for the stacked layer.  A
    head's column block is ``w`` times a 0/1 selection matrix, a product
    that is exact in floating point."""
    heads, dh = a_left.data.shape
    eye = np.eye(w.data.shape[1])
    outs = []
    for h in range(heads):
        wx = x @ (w @ ad.constant(eye[:, h * dh:(h + 1) * dh]))
        s = wx @ ad.row(a_left, h)
        t = wx @ ad.row(a_right, h)
        alpha = ad.softmax(ad.leaky_relu(ad.add_outer(s, t), slope=0.2))
        outs.append(alpha @ wx)
    return ad.elu(ad.concat(outs))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_stacked_gat_matches_per_head_reference(seed):
    """Two stacked gat layers at the default width n = 32, over one clique
    and stacks of 1 and 7 cliques of 1 to 6 vertices: the forward pass
    agrees bit for bit, and the gradients of every stack and of the input
    agree to 1e-12, relative to max(1, |gradient|) as in ``grad_check``,
    since only the order of summation over heads and cliques differs.
    The heads are 8, 16 or 32 wide: BLAS may round a column block of the
    one wide projection differently from a narrower per-head product when
    the head width is not a multiple of 8."""
    n = 32
    rng = np.random.default_rng(seed)
    for heads, v, stack in itertools.product((1, 2, 4), range(1, 7),
                                             (None, 1, 7)):
        params = init_gnn("gat", n, seed, heads=heads)
        layers = [[params.tensors["layer%d.%s" % (layer, k)]
                   for k in ("w", "a_left", "a_right")] for layer in (1, 2)]
        x = ad.parameter(rng.standard_normal(
            (v, n) if stack is None else (stack, v, n)))
        coef = ad.constant(rng.standard_normal(x.data.shape))
        outputs = []
        for layer in (gat_layer, per_head_gat_layer):
            out = x
            for tensors in layers:
                out = layer(out, *tensors)
            outputs.append(out)
        assert np.array_equal(outputs[0].data, outputs[1].data)

        wrt = [x] + params.trainable()
        got, want = (ad.gradients(ad.tsum(out * coef), wrt)
                     for out in outputs)
        for g, w in zip(got, want):
            scale = max(1.0, np.max(np.abs(w)))
            assert np.max(np.abs(g - w)) <= 1e-12 * scale
