"""The benchmark's workloads.

Each workload makes its inputs from the seed in ``setup``, then runs whole
rounds of the same operations through the entry points a user calls:
``patchgraph.cli.main`` or ``matching.train``, ``matching.evaluate`` and
``placerec.place_recognition_eval``.  Every round trains a matcher, scores
held-out pairs and runs place recognition, in proportions that differ by
workload.  A round reports, per stage, the work it did and the wall time of
the program calls.  Round 0 is checked in full (see ``checks``); every later
round must reproduce round 0's outputs exactly, since a fixed (config, seed)
reproduces a run.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import time
import traceback

import numpy as np

import patchgraph.autodiff as ad
from patchgraph import cli, matching, placerec, scene

import checks

STAGES = ("train", "eval", "place")


def balanced_rows(labels):
    """Rows ``matching.train`` steps through per epoch: the minority class is
    resampled up to the majority's size."""
    pos = sum(1 for y in labels if y == 1)
    neg = len(labels) - pos
    return 2 * max(pos, neg) if pos and neg else len(labels)


def place_patch_pairs(sizes):
    """Patch pairs compared when every pair of frames with these patch counts
    is scored."""
    return (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


_PROBE_A = np.linspace(-1.0, 1.0, 8 * 32).reshape(8, 32)
_PROBE_W = np.linspace(-0.5, 0.5, 32 * 32).reshape(32, 32)

# The probe's duration on this machine when nothing else loads it.  Stage
# times are scaled to that speed (see ``Round``).
PROBE_REFERENCE_S = 0.012


def speed_probe():
    """Seconds taken by a fixed mix of interpreter and small-array work, the
    kind the program spends its time on."""
    start = time.perf_counter()
    total = 0
    for i in range(100000):
        total += i * i
    for _ in range(2000):
        np.tanh(_PROBE_A @ _PROBE_W)
    return time.perf_counter() - start


class Round:
    """One round's program calls: their outputs and per-stage wall time.

    The machine this runs on shares its cores, and its speed drifts by tens
    of percent over seconds to minutes.  So a speed probe runs between
    calls, outside the timed regions, and each call's wall time is also
    given scaled to the reference speed: ``seconds * PROBE_REFERENCE_S /
    mean(probe before, probe after)``.

    After a call raises (or a CLI command exits non-zero) the rest of the
    round is not run, and those operations count as failed.
    """

    def __init__(self, probe=True):
        self.probe = probe
        self.wall = dict.fromkeys(STAGES, 0.0)
        self.out = {}
        self.failed = []
        self.probes = []
        self._calls = []    # (stage, seconds, index of the probe before)

    def call(self, op, stage, fn, *args, **kwargs):
        if self.failed:
            self.failed.append(op)
            return None
        if self.probe:
            self.probes.append(speed_probe())
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            result = None
            self.failed.append(op)
        seconds = time.perf_counter() - start
        self.wall[stage] += seconds
        self._calls.append((stage, seconds, len(self.probes) - 1))
        self.out[op] = result
        return result

    def close(self):
        """Probe once more after the last call; return the scaled seconds
        per stage, or None without probes."""
        if not self.probe:
            return None
        self.probes.append(speed_probe())
        scaled = dict.fromkeys(STAGES, 0.0)
        for stage, seconds, i in self._calls:
            speed = 0.5 * (self.probes[i] + self.probes[i + 1])
            scaled[stage] += seconds * PROBE_REFERENCE_S / speed
        return scaled


# -- ablation-gcn -------------------------------------------------------------

# The paper's headline comparison (acceptance criterion 6 at one seed):
# 60 scenes x 2 views, 40 train / 20 held-out scenes, K=4, n=32, GCN, and
# descriptors supplied through the precomputed-feature path.  A descriptor is
# a class vector plus one of two per-class prototypes, a per-landmark jitter
# and per-view noise, padded with nuisance dimensions.  Cross-scene negatives
# are hard: same-class lookalikes in training, exact aliases when held out.
ABL_SCENES, ABL_TRAIN_SCENES = 60, 40
ABL_N, ABL_SIGNAL, ABL_PROTOTYPES = 32, 16, 2
ABL_EPOCHS = 2
ABL_PLACE_SCENES = 8        # held-out scenes paired for place recognition
ABL_SCENE_SPACING = 30.0    # meters; frames of different scenes are apart
ABL_SWAP_SAMPLES = 24


def ablation_data(seed):
    """(train corpus, held-out corpus, place frames) for one seed."""
    scfg = scene.SceneConfig(class_counts={
        "traffic_light": 2, "traffic_sign": 3, "pole": 3, "window": 2},
        x_range=(-8.0, 8.0))
    noise = scene.NoiseConfig(sigma_loc=0.2, occlusion_prob=0.1,
                              sigma_pixel=8.0)
    rng = np.random.default_rng([seed, 60])
    classes = sorted(scfg.class_counts)
    class_vec = {c: rng.normal(0.0, 0.25, ABL_SIGNAL) for c in classes}
    protos = {c: rng.normal(0.0, 0.25, (ABL_PROTOTYPES, ABL_SIGNAL))
              for c in classes}
    views = []
    for s in range(ABL_SCENES):
        scene_seed = int(rng.integers(0, 2 ** 31))
        landmarks = scene.generate_scene(scfg, scene_seed)
        origin = np.array([s * ABL_SCENE_SPACING, 0.0, 0.0])
        for lm in landmarks:
            lm.position = lm.position + origin
        fa, fb = scene.render_views(
            landmarks,
            scene.standard_camera(position=origin + [-2.0, 1.5, 0.0]),
            scene.standard_camera(position=origin + [2.0, 1.5, 0.0]),
            noise, scene_seed, frame_ids=("s%02da" % s, "s%02db" % s))
        by_id = {lm.landmark_id: lm for lm in landmarks}
        proto = {lid: int(rng.integers(0, ABL_PROTOTYPES)) for lid in by_id}
        jitter = {lid: rng.normal(0.0, 0.03, ABL_SIGNAL) for lid in by_id}
        kind = {}
        for frame in (fa, fb):
            for p in frame.patches:
                cls = by_id[p.landmark_id].landmark_class
                signal = (class_vec[cls] + protos[cls][proto[p.landmark_id]]
                          + jitter[p.landmark_id]
                          + rng.normal(0.0, 0.08, ABL_SIGNAL))
                p.feature = np.concatenate(
                    [signal, rng.normal(0.0, 0.35, ABL_N - ABL_SIGNAL)])
                kind[p.patch_id] = (cls, proto[p.landmark_id])
        views.append((fa, fb, kind))

    corpora = []
    for lo, hi, held_out in ((0, ABL_TRAIN_SCENES, False),
                             (ABL_TRAIN_SCENES, ABL_SCENES, True)):
        n_match, n_within, n_cross = (10, 4, 4) if held_out else (6, 3, 3)
        block = views[lo:hi]
        frames, entries = [], []
        for i, (fa, fb, kind) in enumerate(block):
            frames += [fa, fb]
            _, other, other_kind = block[(i + 1) % len(block)]
            matched = [(a, b) for a in fa.patches for b in fb.patches
                       if a.landmark_id == b.landmark_id]
            within = [(a, b) for a in fa.patches for b in fb.patches
                      if a.landmark_id != b.landmark_id]
            if held_out:    # exact aliases first, then same-class pairs
                hard = lambda ab: (kind[ab[0].patch_id]
                                   != other_kind[ab[1].patch_id],
                                   kind[ab[0].patch_id][0]
                                   != other_kind[ab[1].patch_id][0])
            else:           # same-class lookalikes first
                hard = lambda ab: (kind[ab[0].patch_id][0]
                                   != other_kind[ab[1].patch_id][0])
            cross = sorted(((a, b) for a in fa.patches
                            for b in other.patches), key=hard)
            for pool, label, take in ((matched, 1, n_match),
                                      (within, 0, n_within)):
                take = min(take, len(pool))
                for j in rng.choice(len(pool), size=take, replace=False):
                    entries.append(scene.PairEntry(pool[j][0].patch_id,
                                                   pool[j][1].patch_id, label))
            take = min(n_cross, len(cross))
            for j in sorted(rng.choice(max(1, 2 * take), size=take,
                                       replace=False)):
                entries.append(scene.PairEntry(cross[j][0].patch_id,
                                               cross[j][1].patch_id, 0))
        corpora.append(matching.PairCorpus.from_frames(frames, entries))
    place_frames = [f for fa, fb, _ in views[ABL_TRAIN_SCENES:ABL_TRAIN_SCENES
                                             + ABL_PLACE_SCENES]
                    for f in (fa, fb)]
    return corpora[0], corpora[1], place_frames


def _corpus_digest(corpus):
    return _digest([(px.patch_id, py.patch_id, y, px.feature.tobytes(),
                     py.feature.tobytes(), px.loc3d.tobytes())
                    for px, _, py, _, y in corpus.rows])


class AblationGcn:
    """Context model and vertex-only variant trained through
    ``matching.train``; both plus the L2 metric scored through
    ``matching.evaluate``; place recognition over held-out frame pairs
    through ``placerec.place_recognition_eval``."""

    name = "ablation-gcn"
    ops = ("train_context", "train_vertex_only", "eval_context",
           "eval_vertex_only", "eval_l2", "place")

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.train_set, self.test_set, self.frames = ablation_data(self.seed)
        self.frame_pairs = [(self.frames[i], self.frames[j])
                            for i in range(len(self.frames))
                            for j in range(i + 1, len(self.frames))]
        self.work = {
            "train": 2 * ABL_EPOCHS * balanced_rows(self.train_set.labels()),
            "eval": 3 * len(self.test_set.rows),
            "place": place_patch_pairs([len(f.patches) for f in self.frames]),
        }
        return _digest(_corpus_digest(self.train_set),
                       _corpus_digest(self.test_set),
                       [(f.frame_id, f.position.tobytes())
                        for f in self.frames])

    def run_round(self, index, probe=True):
        mc = matching.ModelConfig(n=ABL_N, k=4, featurizer="fixed_hist",
                                  architecture="gcn")
        tc = matching.TrainConfig(epochs=ABL_EPOCHS, lr=0.02, batch_size=16,
                                  seed=self.seed)
        r = Round(probe)
        context = matching.init_model(mc, self.seed)
        r.call("train_context", "train", matching.train, self.train_set,
               context, tc)
        base = matching.init_model(mc, self.seed)
        vertex_only = matching.VariantScorer(base, "f_f", "bilinear",
                                             seed=self.seed)
        r.call("train_vertex_only", "train", matching.train, self.train_set,
               base, tc, scorer=vertex_only)
        r.call("eval_context", "eval", matching.evaluate, self.test_set,
               context)
        r.call("eval_vertex_only", "eval", matching.evaluate, self.test_set,
               base, scorer=vertex_only)
        r.call("eval_l2", "eval", matching.evaluate, self.test_set, context,
               scorer=matching.VariantScorer(context, "phi_psi", "l2"))
        r.call("place", "place", placerec.place_recognition_eval,
               self.frame_pairs, context, seed=self.seed)
        r.models = (context, base, vertex_only)
        r.seconds = r.close()
        return r

    def fingerprints(self, r):
        out = {}
        for op, result in r.out.items():
            if result is None:
                continue
            if op.startswith("train"):
                out[op] = _digest(result[1], [p.data.tobytes() for p in
                                              result[0].trainable()])
            elif op.startswith("eval"):
                out[op] = _digest(result["scores"], result["auc"])
            else:
                out[op] = _digest(result.rows, result.threshold)
        return out

    def check(self, r, rng):
        context, base, vertex_only = r.models
        test_rows = self.test_set.rows
        labels = self.test_set.labels()
        problems = {op: [] for op in self.ops}
        problems["train_context"] += checks.check_history(
            r.out["train_context"][1])
        problems["train_context"] += gradient_check(
            context, self.train_set.rows, rng)
        problems["train_vertex_only"] += checks.check_history(
            r.out["train_vertex_only"][1])
        for op in ("eval_context", "eval_vertex_only", "eval_l2"):
            m = r.out[op]
            problems[op] += checks.check_auc(m["scores"], m["labels"], labels,
                                             m["auc"])
        scores = r.out["eval_context"]["scores"]
        problems["eval_context"] += check_bilinear_scores(
            context, test_rows, scores)
        problems["eval_context"] += check_swap(
            context, test_rows, scores, rng.choice(
                len(test_rows), size=ABL_SWAP_SAMPLES, replace=False))
        problems["eval_vertex_only"] += checks.check_close(
            "f_f scores", r.out["eval_vertex_only"]["scores"],
            checks.vertex_only_scores(
                [row[0].feature for row in test_rows],
                [row[2].feature for row in test_rows],
                vertex_only.matrix.data))
        report = r.out["place"]
        problems["place"] += checks.check_place(
            report.rows, {"threshold": report.threshold, "f1": report.f1,
                          "accuracy": report.accuracy,
                          "total_pairs": len(self.frame_pairs)},
            {f.frame_id: f.position for f in self.frames},
            placerec.SAME_PLACE_RADIUS_M,
            reference_frame_scores(context, self.frames, report.rows))
        return problems


def _embed(model, patch, frame):
    with ad.no_grad():
        return matching.assemble_embeddings(patch, frame, model)


def check_bilinear_scores(model, rows, scores):
    """Each pair score against the mean of both directed scores taken
    through the assembled 2n x 3n matrix."""
    cache = {}

    def emb(patch, frame):
        if patch.patch_id not in cache:
            cache[patch.patch_id] = _embed(model, patch, frame)
        return cache[patch.patch_id]

    want = []
    for px, fx, py, fy, _ in rows:
        ex, ey = emb(px, fx), emb(py, fy)
        want.append(0.5 * (matching.full_bilinear_score(ex.phi, ey.psi,
                                                        model.disc)
                           + matching.full_bilinear_score(ey.phi, ex.psi,
                                                          model.disc)))
    return checks.check_close("pair scores against the assembled matrix",
                              scores, want)


def check_swap(model, rows, scores, sample):
    """``match_score`` with the two patches swapped gives the same score."""
    got = [matching.match_score(rows[i][2], rows[i][3], rows[i][0],
                                rows[i][1], model).score for i in sample]
    return checks.check_close("scores with the patches swapped", got,
                              [scores[i] for i in sample], tol=1e-12)


def gradient_check(model, rows, rng, batch=16):
    """On one minibatch, a central-difference directional derivative of
    ``loss_emp_id`` against ``autodiff.gradients`` along the same random
    direction."""
    params = model.trainable()
    picks = rng.choice(len(rows), size=min(batch, len(rows)), replace=False)
    minibatch = [rows[i] for i in picks]
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]
    grads = ad.gradients(matching.loss_emp_id(minibatch, model), params)
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
    start = [p.data for p in params]

    def loss_at(t):
        for p, x0, d in zip(params, start, direction):
            p.data = x0 + t * d
        try:
            return float(matching.loss_emp_id(minibatch, model).data)
        finally:
            for p, x0 in zip(params, start):
                p.data = x0

    return checks.check_directional_derivative(loss_at, analytic)


def reference_frame_scores(model, frames, rows):
    """Frame scores of the reported frame pairs, from patch scores taken
    through the assembled matrix and the benchmark's own Sinkhorn."""
    by_id = {f.frame_id: f for f in frames}
    full = model.disc.full_matrix()
    embedded = {}

    def phi_psi(frame):
        if frame.frame_id not in embedded:
            embs = [_embed(model, p, frame) for p in frame.patches]
            embedded[frame.frame_id] = (np.array([e.phi.data for e in embs]),
                                        np.array([e.psi.data for e in embs]))
        return embedded[frame.frame_id]

    out = {}
    for row in rows:
        phi_a, psi_a = phi_psi(by_id[row[0]])
        phi_b, psi_b = phi_psi(by_id[row[1]])
        scores = 0.5 * (checks.sigmoid(phi_a @ full @ psi_b.T)
                        + checks.sigmoid(psi_a @ full.T @ phi_b.T))
        out[(row[0], row[1])] = checks.frame_score(
            scores, placerec.DUSTBIN_DEFAULT, placerec.SINKHORN_TAU,
            placerec.SINKHORN_ITERS)
    return out


# -- CLI workloads ------------------------------------------------------------

def run_cli(argv):
    """``patchgraph <argv>`` in this process, its stdout kept quiet; raises on
    a non-zero exit status."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError("patchgraph %s exited %r" % (argv[0], status))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_manifest(data_dir):
    with open(os.path.join(data_dir, "manifest.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _file_digest(*paths):
    parts = []
    for path in paths:
        with open(path, "rb") as fh:
            parts.append(fh.read())
    return _digest(*parts)


class CliFlow:
    """``patchgraph synth`` in set-up, then rounds of ``patchgraph train``,
    ``eval`` and ``place`` with the default configuration (GAT, fixed_hist
    descriptors on rendered pixels), all in-process through ``cli.main``.

    ``scenes`` gives the synth size of the train, held-out and place
    datasets; a place size of None runs ``place`` on the held-out dataset.
    """

    ops = ("train", "eval", "place")
    epochs = 1
    gamma = 0.5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.data = {}
        for offset, role in enumerate(("train", "eval", "place")):
            scenes = self.scenes[offset]
            if scenes is None:
                self.data[role] = self.data["eval"]
                continue
            self.data[role] = os.path.join(self.workdir, "data-" + role)
            run_cli(["synth", "--seed", str(self.seed + offset),
                     "--out", self.data[role],
                     "--set", "synth.scenes=%d" % scenes])
        self.pair_rows = {role: [(a, b, int(y)) for a, b, y in
                                 read_csv(os.path.join(d, "pairs.csv"))]
                      for role, d in self.data.items()}
        self.manifest = read_manifest(self.data["place"])
        self.work = {
            "train": self.epochs * balanced_rows(
                [y for _, _, y in self.pair_rows["train"]]),
            "eval": len(self.pair_rows["eval"]),
            "place": place_patch_pairs([len(rec["patches"])
                                        for rec in self.manifest]),
        }
        return _file_digest(*[os.path.join(d, name)
                              for d in sorted(set(self.data.values()))
                              for name in ("manifest.jsonl", "pairs.csv")])

    def run_round(self, index, probe=True):
        out = os.path.join(self.workdir, "round-%d" % index)
        ckpt = os.path.join(out, "train", "model.json")
        seed = str(self.seed)
        r = Round(probe)
        r.dirs = {op: os.path.join(out, op) for op in self.ops}
        r.call("train", "train", run_cli,
               ["train", "--data", self.data["train"], "--seed", seed,
                "--out", r.dirs["train"],
                "--set", "train.epochs=%d" % self.epochs])
        r.call("eval", "eval", run_cli,
               ["eval", "--data", self.data["eval"], "--checkpoint", ckpt,
                "--seed", seed, "--out", r.dirs["eval"]])
        r.call("place", "place", run_cli,
               ["place", "--data", self.data["place"], "--checkpoint", ckpt,
                "--seed", seed, "--out", r.dirs["place"]])
        r.seconds = r.close()
        return r

    OUTPUTS = {"train": ("model.json", "model.json.config.json",
                         "loss_history.csv"),
               "eval": ("eval_pairs.csv", "metrics.csv"),
               "place": ("place_pairs.csv",)}

    def fingerprints(self, r):
        return {op: _file_digest(*[os.path.join(r.dirs[op], name)
                                   for name in self.OUTPUTS[op]])
                for op in self.ops if op not in r.failed}

    def check(self, r, rng):
        problems = {op: [] for op in self.ops}
        ckpt = os.path.join(r.dirs["train"], "model.json")
        history = [float(loss) for _, loss in
                   read_csv(os.path.join(r.dirs["train"], "loss_history.csv"))]
        problems["train"] += checks.check_history(history)
        if len(history) != self.epochs:
            problems["train"].append("%d epochs in the loss history"
                                     % len(history))
        model = matching.load_model(ckpt)
        problems["train"] += check_checkpoint(ckpt, model)

        rows = [(a, b, int(y), float(s), int(d)) for a, b, y, s, d in
                read_csv(os.path.join(r.dirs["eval"], "eval_pairs.csv"))]
        metrics = {k: float(v) for k, v in
                   read_csv(os.path.join(r.dirs["eval"], "metrics.csv"))}
        problems["eval"] += checks.check_eval_rows(
            rows, self.pair_rows["eval"], self.gamma)
        problems["eval"] += checks.check_metrics(rows, metrics)
        patches = {p.patch_id: (p, f) for f in self._frames("eval")
                   for p in f.patches}
        problems["eval"] += checks.check_close(
            "eval scores against the reference route",
            [row[3] for row in rows],
            reference_pair_scores(model, [patches[a] + patches[b]
                                          for a, b, _, _, _ in rows]))

        place_dir = r.dirs["place"]
        place_rows = [(a, b, float(s), int(d), int(y)) for a, b, s, d, y in
                      read_csv(os.path.join(place_dir, "place_pairs.csv"))]
        report = read_json(os.path.join(place_dir, "place_report.json"))
        place_frames = self._frames("place")
        problems["place"] += checks.check_place(
            place_rows, report,
            {rec["frame_id"]: rec["position"] for rec in self.manifest},
            placerec.SAME_PLACE_RADIUS_M,
            reference_frame_scores(model, place_frames, place_rows))
        return problems

    def _frames(self, role):
        loaded = scene.load_dataset(os.path.join(self.data[role],
                                                 "manifest.jsonl"))
        return loaded.frames


def check_checkpoint(path, model):
    """The loaded model holds exactly the arrays written to the checkpoint."""
    stored = read_json(path)
    tensors = model.named_tensors()
    if set(stored) != set(tensors):
        return ["checkpoint names %r, model names %r"
                % (sorted(stored), sorted(tensors))]
    for name, rec in stored.items():
        if list(tensors[name].data.reshape(-1)) != rec["data"]:
            return ["tensor %s differs from the checkpoint" % name]
    return []


def reference_pair_scores(model, quads):
    """Symmetric scores of (patch_x, frame_x, patch_y, frame_y) through the
    assembled 2n x 3n matrix."""
    full = model.disc.full_matrix()
    cache = {}

    def emb(patch, frame):
        key = (frame.frame_id, patch.patch_id)
        if key not in cache:
            e = _embed(model, patch, frame)
            cache[key] = (e.phi.data, e.psi.data)
        return cache[key]

    out = []
    for px, fx, py, fy in quads:
        (phi_x, psi_x), (phi_y, psi_y) = emb(px, fx), emb(py, fy)
        out.append(0.5 * float(checks.sigmoid(phi_x @ full @ psi_y)
                               + checks.sigmoid(phi_y @ full @ psi_x)))
    return out


class CliGatPixels(CliFlow):
    """What a CLI user runs: train on the default 10-scene set, evaluate on a
    held-out 10-scene set, place recognition on a 5-scene third set."""

    name = "cli-gat-pixels"
    scenes = (10, 10, 5)


class PlaceAllPairs(CliFlow):
    """Inference-heavy: ``place`` over every frame pair of a 6-scene set,
    with the checkpoint from one epoch on a 3-scene set, evaluated on the
    place set."""

    name = "place-all-pairs"
    scenes = (3, 6, None)


WORKLOADS = {w.name: w for w in (AblationGcn, CliGatPixels, PlaceAllPairs)}
