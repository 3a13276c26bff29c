"""Acceptance gate: ten release criteria, one test (one verdict line under
``pytest -v``) per criterion.

Criteria, tolerances, and budgets:

 1. gradient suite          max rel. error < 1e-4 across 100 seeds, < 60 s
 2. bilinear equivalence    block route == assembled matrix, 1e-12, 100 trials
 3. divergence lower bound  margin >= -1e-9 on 100 models, equality 1e-9, <10 s
 4. perturbation scaling    log-log slopes in [0.9,1.1] / [1.8,2.2], 20 models
 5. mixture-distance bound  holds on 100 corruption models; ideal case TV == 1
 6. benchmark ordering      context model beats vertex-only by >= 0.02 mean AUC
                            over 5 seeds; learnable >= L2 on every seed, <10 min
 7. score symmetry          exact; decision at the threshold itself is 0
 8. assignment quality      residuals < 1e-6 at 100 iterations; >= 95% of
                            planted matches on 20 random 10x10 instances
 9. stereo depth            exact pairs < 1e-9 m; +-0.5 px uniform disparity
                            noise at 5-20 m -> RMSE within 1.25x analytic
10. loss calibration        zeroed bilinear blocks -> ln 2 +- 1e-9; separable
                            toy set < 0.1 within 200 epochs on 5/5 seeds

Criterion 6 trains twelve models and dominates the runtime (a few minutes);
everything else finishes in seconds.
"""
import dataclasses
import math
import time

import numpy as np

import patchgraph.autodiff as ad
from patchgraph.cli import OracleScorer
from patchgraph.features import extract_conv, init_featurizer
from patchgraph.gnn import embed_graph, init_gnn
from patchgraph.infotheory import (
    DiscretePairModel,
    check_kl_lower_bound,
    check_tv_lower_bound,
    ideal_pair_model,
    perturbation_scaling,
    random_pair_model,
)
from patchgraph.matching import (
    ModelConfig,
    PairCorpus,
    TrainConfig,
    VariantScorer,
    discriminate,
    evaluate,
    full_bilinear_score,
    init_discriminator,
    init_model,
    loss_emp_id,
    match_score,
    train,
)
from patchgraph.placerec import sinkhorn_assign
from patchgraph.scene import (
    Frame,
    Landmark3D,
    NoiseConfig,
    PairEntry,
    Patch,
    SceneConfig,
    generate_scene,
    render_views,
    standard_camera,
)
from patchgraph.seeds import rng_for
from patchgraph.stereo import StereoGeometry, depth_noise_bound, estimate_depths

MASTER_SEED = 20260819

LANDMARK_CLASS_CYCLE = ("traffic_light", "traffic_sign", "pole", "window")


# -- shared builders ---------------------------------------------------------

def make_patch(pid, fid, loc, rng=None, feature=None):
    pixels = (np.zeros((2, 2), dtype=np.uint8) if rng is None
              else rng.integers(0, 256, size=(8, 8), dtype=np.uint8))
    return Patch(pid, fid, (0.0, 0.0, 4.0, 4.0), pixels,
                 loc3d=np.asarray(loc, dtype=np.float64), feature=feature)


def make_frame(fid, patches):
    return Frame(fid, standard_camera(position=(0.0, 0.0, 0.0)),
                 np.zeros(3), patches)


def two_pair_batch(rng, seed, featurizer):
    model = init_model(ModelConfig(n=4, k=2, featurizer=featurizer,
                                   architecture="gcn"), seed)
    pa = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0.0, 10.0), rng)
          for i in range(3)]
    pb = [make_patch("f1/p%03d" % i, "f1", (2.0 * i, 0.5, 10.0), rng)
          for i in range(3)]
    fa, fb = make_frame("f0", pa), make_frame("f1", pb)
    batch = [(pa[0], fa, pb[0], fb, 1), (pa[1], fa, pb[2], fb, 0)]
    return model, batch


# -- criterion 1: gradient fidelity ------------------------------------------

def test_criterion_01_gradient_suite():
    """Reverse-mode gradients match central differences to < 1e-4 relative
    error for the featurizer, every graph-layer type, the discriminator,
    and the full loss on n=4 two-pair batches; 100 seeds in under a minute."""
    master = np.random.default_rng(MASTER_SEED)
    seeds = [int(s) for s in master.integers(0, 2 ** 31, size=100)]
    t0 = time.perf_counter()
    worst = {}

    def track(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for seed in seeds[:20]:                      # conv featurizer
        rng = np.random.default_rng(seed)
        params = init_featurizer("tiny_conv", 4, seed)
        patch = make_patch("f0/p000", "f0", (0.0, 0.0, 10.0), rng)
        track("featurizer", ad.grad_check(
            lambda: ad.tsum(extract_conv(patch, params)), params.trainable()))

    for base, arch in ((20, "gcn"), (35, "gat"), (50, "sage")):
        for seed in seeds[base:base + 15]:
            rng = np.random.default_rng(seed)
            x = ad.constant(rng.standard_normal((4, 4)))
            params = init_gnn(arch, 4, seed, heads=2)
            track(arch, ad.grad_check(
                lambda: ad.tsum(embed_graph(x, params).graph),
                params.trainable()))

    for seed in seeds[65:85]:                    # discriminator alone
        rng = np.random.default_rng(seed)
        disc = init_discriminator(4, seed)
        phi = ad.constant(rng.standard_normal(8))
        psi = ad.constant(rng.standard_normal(12))
        track("discriminator", ad.grad_check(
            lambda: discriminate(phi, psi, disc), disc.trainable()))

    # full loss: histogram descriptors leave the graph + discriminator
    # trainable; two conv seeds close the loop through every stage
    for seed in seeds[85:98]:
        model, batch = two_pair_batch(np.random.default_rng(seed), seed,
                                      "fixed_hist")
        track("loss", ad.grad_check(lambda: loss_emp_id(batch, model),
                                    model.trainable()))
    for seed in seeds[98:100]:
        model, batch = two_pair_batch(np.random.default_rng(seed), seed,
                                      "tiny_conv")
        track("loss_conv", ad.grad_check(lambda: loss_emp_id(batch, model),
                                         model.trainable()))

    elapsed = time.perf_counter() - t0
    for name, err in sorted(worst.items()):
        assert err < 1e-4, "%s gradient error %.3e" % (name, err)
    assert elapsed < 60.0, "gradient suite took %.1fs" % elapsed


# -- criterion 2: block bilinear identity -------------------------------------

def test_criterion_02_block_bilinear_equivalence():
    """The four-term blockwise score and the fully assembled bilinear
    matrix agree within 1e-12 on 100 random inputs."""
    rng = np.random.default_rng(MASTER_SEED + 2)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        disc = init_discriminator(n, int(rng.integers(0, 2 ** 31)))
        phi = ad.constant(rng.standard_normal(2 * n))
        psi = ad.constant(rng.standard_normal(3 * n))
        via_blocks = float(discriminate(phi, psi, disc).data)
        via_matrix = full_bilinear_score(phi, psi, disc)
        assert abs(via_blocks - via_matrix) < 1e-12


# -- criterion 3: divergence lower bound ---------------------------------------

def test_criterion_03_kl_lower_bound():
    """The matched/unmatched divergence dominates its objective-based lower
    bound (margin >= -1e-9) on 100 random discrete models with support
    2-10 and flat Dirichlet masses; identical distributions give equality
    within 1e-9.  Budget: 10 s."""
    rng = rng_for(MASTER_SEED, "acceptance/kl")
    t0 = time.perf_counter()
    for _ in range(100):
        report = check_kl_lower_bound(random_pair_model(rng))
        assert report["pass"]
        assert report["margin"] >= -1e-9

    for k in (2, 3, 5, 10):
        p = rng.dirichlet(np.ones(k))
        model = DiscretePairModel(p, p.copy(), float(rng.uniform(0.2, 0.8)))
        report = check_kl_lower_bound(model)
        assert report["lhs_kl"] == 0.0
        assert abs(report["margin"]) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, "bound checks took %.1fs" % elapsed


# -- criterion 4: perturbation scaling ----------------------------------------

def test_criterion_04_perturbation_scaling():
    """Shifting a generic score table moves the objective linearly
    (log-log slope in [0.9, 1.1]); at the optimal table the linear term
    vanishes and the response is quadratic (slope in [1.8, 2.2]) and
    non-increasing.  20 random models."""
    rng = rng_for(MASTER_SEED, "acceptance/scaling")
    for _ in range(20):
        report = perturbation_scaling(random_pair_model(rng))
        assert 0.9 <= report["slope_generic"] <= 1.1
        assert 1.8 <= report["slope_optimal"] <= 2.2
        assert report["optimal_changes_nonpositive"]


# -- criterion 5: corruption-mixture distance bound ----------------------------

def test_criterion_05_tv_bound():
    """The total-variation distance between the corruption mixtures clears
    its agreement-rate bound on 100 random models; the noiseless
    disjoint-support model yields a distance of exactly 1.0."""
    rng = rng_for(MASTER_SEED, "acceptance/tv")
    for _ in range(100):
        report = check_tv_lower_bound(random_pair_model(rng, corruption=True))
        assert report["pass"]
        assert report["margin"] >= -1e-9

    ideal = check_tv_lower_bound(ideal_pair_model())
    assert ideal["lhs_tv"] == 1.0      # dyadic masses make the sum exact
    assert ideal["rhs_bound"] == 1.0
    assert ideal["pass"]


# -- criterion 6: benchmark ablation ordering ----------------------------------
#
# 60 scenes x 2 views, ~9 visible landmarks per frame, location noise 0.2 m,
# occlusion 0.1, K=4 neighbors, n=32, 50 epochs.  Patch descriptors are
# supplied through the precomputed-feature path: a shared class vector plus
# one of two per-class appearance prototypes (so distinct landmarks in
# different scenes can look alike), a per-landmark jitter, per-view noise,
# and isotropic nuisance dimensions that an unweighted metric cannot
# discount.  Cross-scene negatives are mined hard -- training mixes
# same-class lookalikes, the held-out split leads with exact aliases (same
# class, same prototype), which only neighborhood context can separate.

BENCH_SCENES = 60
BENCH_TRAIN_SCENES = 40
BENCH_N = 32
BENCH_SIGNAL_DIMS = 16
BENCH_PROTOTYPES = 2
BENCH_MATCHED_PER_SCENE = 6
BENCH_WITHIN_NEG = 3
BENCH_CROSS_NEG = 3


def _signal(rng, std, dims=BENCH_SIGNAL_DIMS):
    return rng.normal(0.0, std, size=dims)


def benchmark_corpora(seed):
    """Train/test pair corpora over disjoint scene blocks (40/20)."""
    scfg = SceneConfig(class_counts={"traffic_light": 2, "traffic_sign": 3,
                                     "pole": 3, "window": 2},
                       x_range=(-8.0, 8.0))
    noise = NoiseConfig(sigma_loc=0.2, occlusion_prob=0.1, sigma_pixel=8.0)
    master = rng_for(seed, "bench/master")
    frng = rng_for(seed, "bench/features")
    classes = sorted(scfg.class_counts)
    cls_vec = {c: _signal(frng, 0.25) for c in classes}
    protos = {c: [_signal(frng, 0.25) for _ in range(BENCH_PROTOTYPES)]
              for c in classes}

    views, meta = [], []   # meta: per scene {patch_id: (class, proto index)}
    for s in range(BENCH_SCENES):
        scene_seed = int(master.integers(0, 2 ** 31))
        lms = generate_scene(scfg, scene_seed)
        by_id = {lm.landmark_id: lm for lm in lms}
        fa, fb = render_views(lms, standard_camera(position=(-2.0, 1.5, 0.0)),
                              standard_camera(position=(2.0, 1.5, 0.0)),
                              noise, scene_seed,
                              frame_ids=("s%02da" % s, "s%02db" % s))
        lm_proto = {lid: int(frng.integers(0, BENCH_PROTOTYPES))
                    for lid in by_id}
        lm_jit = {lid: _signal(frng, 0.03) for lid in by_id}
        kinds = {}
        for f in (fa, fb):
            for p in f.patches:
                lm = by_id[p.landmark_id]
                sig = (cls_vec[lm.landmark_class]
                       + protos[lm.landmark_class][lm_proto[p.landmark_id]]
                       + lm_jit[p.landmark_id]
                       + _signal(frng, 0.08))
                p.feature = np.concatenate(
                    [sig, frng.normal(0.0, 0.35,
                                      size=BENCH_N - BENCH_SIGNAL_DIMS)])
                kinds[p.patch_id] = (lm.landmark_class,
                                     lm_proto[p.landmark_id])
        views.append((fa, fb))
        meta.append(kinds)

    rng = rng_for(seed, "bench/pairs")
    corpora = []
    for lo, hi in ((0, BENCH_TRAIN_SCENES), (BENCH_TRAIN_SCENES,
                                             BENCH_SCENES)):
        is_test = lo > 0
        n_match = 10 if is_test else BENCH_MATCHED_PER_SCENE
        n_within = 4 if is_test else BENCH_WITHIN_NEG
        n_cross = 4 if is_test else BENCH_CROSS_NEG
        frames, entries = [], []
        block = views[lo:hi]
        for bi, (fa, fb) in enumerate(block):
            frames += [fa, fb]
            kinds = meta[lo + bi]
            matched = [(pa, pb) for pa in fa.patches for pb in fb.patches
                       if pa.landmark_id == pb.landmark_id]
            within = [(pa, pb) for pa in fa.patches for pb in fb.patches
                      if pa.landmark_id != pb.landmark_id]
            fo = block[(bi + 1) % len(block)][1]
            ko = meta[lo + (bi + 1) % len(block)]
            if is_test:
                key = lambda ab: (kinds[ab[0].patch_id] != ko[ab[1].patch_id],
                                  kinds[ab[0].patch_id][0]
                                  != ko[ab[1].patch_id][0])
            else:
                key = lambda ab: (kinds[ab[0].patch_id][0]
                                  != ko[ab[1].patch_id][0])
            cross = sorted(
                ((pa, pb) for pa in fa.patches for pb in fo.patches), key=key)
            for pool, label, take in ((matched, 1, n_match),
                                      (within, 0, n_within)):
                take = min(take, len(pool))
                idx = (rng.choice(len(pool), size=take, replace=False)
                       if take else [])
                entries += [PairEntry(pool[i][0].patch_id,
                                      pool[i][1].patch_id, label)
                            for i in idx]
            ncross = min(n_cross, len(cross))
            pick = rng.choice(max(1, 2 * ncross), size=ncross, replace=False)
            entries += [PairEntry(cross[i][0].patch_id,
                                  cross[i][1].patch_id, 0)
                        for i in sorted(pick)]
        corpora.append(PairCorpus.from_frames(frames, entries))
    return corpora[0], corpora[1]


def benchmark_aucs(seed):
    """Test AUC of the context model, the vertex-only model, and the
    untrained L2 metric on the context embeddings."""
    corpus_tr, corpus_te = benchmark_corpora(seed)
    mc = ModelConfig(n=BENCH_N, k=4, featurizer="fixed_hist",
                     architecture="gcn")
    tc = TrainConfig(epochs=50, lr=0.02, batch_size=16, seed=seed)

    context = init_model(mc, seed)
    train(corpus_tr, context, tc)
    auc_context = evaluate(corpus_te, context)["auc"]

    vertex_base = init_model(mc, seed)
    vertex_only = VariantScorer(vertex_base, "f_f", "bilinear", seed=seed)
    train(corpus_tr, vertex_base, tc, scorer=vertex_only)
    auc_vertex = evaluate(corpus_te, vertex_base, scorer=vertex_only)["auc"]

    auc_l2 = evaluate(corpus_te, context,
                      scorer=VariantScorer(context, "phi_psi", "l2"))["auc"]
    return auc_context, auc_vertex, auc_l2


def test_criterion_06_ablation_ordering():
    """Over 5 seeds of the synthetic benchmark, the context-aware model
    beats the vertex-only model by >= 0.02 mean test AUC, and the learnable
    discriminator matches or beats the L2 metric on every seed.  Budget:
    10 minutes."""
    t0 = time.perf_counter()
    results = [benchmark_aucs(seed) for seed in range(5)]
    elapsed = time.perf_counter() - t0

    margins = [ctx - vtx for ctx, vtx, _ in results]
    mean_margin = sum(margins) / len(margins)
    assert mean_margin >= 0.02, (
        "context over vertex-only margin %.4f (per seed: %s)"
        % (mean_margin, ["%.4f" % m for m in margins]))
    for seed, (ctx, vtx, l2) in enumerate(results):
        assert ctx >= l2, ("seed %d: learnable %.4f under L2 %.4f"
                           % (seed, ctx, l2))
    assert elapsed < 600.0, "benchmark took %.0fs" % elapsed


# -- criterion 7: symmetric score, strict threshold ----------------------------

def test_criterion_07_symmetry_and_threshold():
    """Swapping the two patches never changes the pair score, and a score
    exactly at the threshold yields decision 0 (strictly-above semantics)."""
    rng = np.random.default_rng(MASTER_SEED + 7)
    for trial in range(20):
        model = init_model(ModelConfig(n=4, k=2, featurizer="fixed_hist",
                                       architecture="gcn"), trial)
        pa = [make_patch("f0/p%03d" % i, "f0", (2.0 * i, 0.0, 10.0), rng)
              for i in range(3)]
        pb = [make_patch("f1/p%03d" % i, "f1", (2.0 * i, 1.0, 11.0), rng)
              for i in range(3)]
        fa, fb = make_frame("f0", pa), make_frame("f1", pb)
        fwd = match_score(pa[0], fa, pb[1], fb, model)
        rev = match_score(pb[1], fb, pa[0], fa, model)
        assert fwd.score == rev.score
        assert {fwd.score_xy, fwd.score_yx} == {rev.score_xy, rev.score_yx}

        at = match_score(pa[0], fa, pb[1], fb, model, gamma=fwd.score)
        assert at.decision == 0
        below = math.nextafter(fwd.score, 0.0)
        assert match_score(pa[0], fa, pb[1], fb, model,
                           gamma=below).decision == 1


# -- criterion 8: assignment residuals and planted recovery --------------------

def test_criterion_08_sinkhorn():
    """After 100 iterations the transport plan meets both marginals to
    < 1e-6, and diagonal-dominant score matrices give back >= 95% of the
    planted matches over 20 random 10x10 instances."""
    rng = rng_for(MASTER_SEED, "acceptance/sinkhorn")
    recovered = 0
    for _ in range(20):
        perm = rng.permutation(10)
        scores = 0.05 + 0.10 * rng.uniform(size=(10, 10))
        scores[np.arange(10), perm] = 0.85 + 0.10 * rng.uniform(size=10)
        plan, residual = sinkhorn_assign(scores, dustbin=0.2,
                                         iterations=100, tau=0.1)
        assert residual < 1e-6
        recovered += sum(int(np.argmax(plan[i]) == perm[i])
                         for i in range(10))
    assert recovered >= 0.95 * 200, "recovered %d/200" % recovered


# -- criterion 9: stereo depth ---------------------------------------------

def _stereo_frames(landmarks=60, seed=11):
    """Rectified pair with every landmark visible in both views."""
    rng = rng_for(seed, "acceptance/stereo")
    lms = []
    for i in range(landmarks):
        pos = (rng.uniform(-2.5, 2.5), rng.uniform(0.3, 2.5),
               rng.uniform(5.0, 20.0))
        lms.append(Landmark3D("lm%03d" % i,
                              LANDMARK_CLASS_CYCLE[i % 4], pos,
                              appearance_seed=i))
    quiet = NoiseConfig(sigma_loc=0.0, occlusion_prob=0.0, sigma_pixel=0.0)
    left, right = render_views(lms, standard_camera(position=(0.0, 0.0, 0.0)),
                               standard_camera(position=(0.5, 0.0, 0.0)),
                               quiet, seed, frame_ids=("left", "right"))
    assert len(left.patches) == len(right.patches) == landmarks
    return left, right, {lm.landmark_id: lm.position[2] for lm in lms}


def test_criterion_09_stereo_depth():
    """Noise-free rectified pairs reconstruct depth to < 1e-9 m.  Under
    +-0.5 px uniform disparity noise at 5-20 m (fx=700, baseline=0.5) the
    empirical RMSE stays within 1.25x the first-order propagation value,
    and every error respects the worst-case bound."""
    geom = StereoGeometry(fx=700.0, baseline=0.5)
    left, right, true_depth = _stereo_frames()
    oracle = OracleScorer()

    estimates = estimate_depths(left, right, None, geom, threshold=0.5,
                                scorer=oracle)
    assert len(estimates) == len(left.patches)
    by_left = {p.patch_id: p.landmark_id for p in left.patches}
    for est in estimates:
        assert est.valid
        assert abs(est.depth - true_depth[by_left[est.left_id]]) < 1e-9

    rng = rng_for(MASTER_SEED, "acceptance/stereo-noise")
    sq_errors = []
    sq_predicted = []
    for _ in range(40):
        shifted = [dataclasses.replace(
            p, bbox=(p.bbox[0] + d, p.bbox[1], p.bbox[2] + d, p.bbox[3]))
            for p, d in zip(right.patches,
                            rng.uniform(-0.5, 0.5, len(right.patches)))]
        noisy = Frame(right.frame_id, right.camera, right.position, shifted)
        for est in estimate_depths(left, noisy, None, geom, threshold=0.5,
                                   scorer=oracle):
            z = true_depth[by_left[est.left_id]]
            err = est.depth - z
            true_disp = geom.fx * geom.baseline / z
            assert abs(err) <= depth_noise_bound(geom, true_disp,
                                                 0.5) + 1e-12
            sq_errors.append(err * err)
            # first-order propagation: dZ = Z^2 / (fx B) * dd
            sigma = z * z * (0.5 / math.sqrt(3.0)) / (geom.fx * geom.baseline)
            sq_predicted.append(sigma * sigma)

    rmse = math.sqrt(sum(sq_errors) / len(sq_errors))
    analytic = math.sqrt(sum(sq_predicted) / len(sq_predicted))
    assert 0.8 * analytic <= rmse <= 1.25 * analytic, (
        "RMSE %.4f m vs analytic %.4f m" % (rmse, analytic))


# -- criterion 10: loss calibration ------------------------------------------

def _toy_corpus(n, landmarks, seed):
    """Unit-norm per-landmark prototypes seen from two frames: matched
    pairs share a descriptor, unmatched pairs never do."""
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((landmarks, n))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    frames = []
    for fi in range(2):
        patches = [make_patch("f%d/p%03d" % (fi, li), "f%d" % fi,
                              (3.0 * li, 0.0, 10.0), feature=protos[li])
                   for li in range(landmarks)]
        frames.append(make_frame("f%d" % fi, patches))
    entries = [PairEntry("f0/p%03d" % i, "f1/p%03d" % i, 1)
               for i in range(landmarks)]
    entries += [PairEntry("f0/p%03d" % (j % landmarks),
                          "f1/p%03d" % ((j + 1) % landmarks), 0)
                for j in range(landmarks)]
    return PairCorpus.from_frames(frames, entries)


def test_criterion_10_loss_calibration():
    """All-zero bilinear blocks pin every score at 1/2, so the loss must be
    ln 2 to within 1e-9; training on the separable toy set drives it under
    0.1 within 200 epochs for five out of five seeds."""
    rng = np.random.default_rng(MASTER_SEED + 10)
    model, batch = two_pair_batch(rng, 0, "fixed_hist")
    for block in (model.disc.m12, model.disc.m21, model.disc.m22,
                  model.disc.m23):
        block.data[:] = 0.0
    loss = float(loss_emp_id(batch, model).data)
    assert abs(loss - math.log(2.0)) <= 1e-9

    for seed in range(5):
        corpus = _toy_corpus(8, 6, seed)
        toy_model = init_model(ModelConfig(n=8, k=2), seed=seed)
        _, history = train(corpus, toy_model,
                           TrainConfig(epochs=200, lr=0.05, batch_size=32,
                                       seed=seed))
        assert min(history) < 0.1, ("seed %d floor %.4f"
                                    % (seed, min(history)))
