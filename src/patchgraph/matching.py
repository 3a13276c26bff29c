"""Patch matching: ensemble embeddings, bilinear scoring, training, eval.

A patch x inside a frame yields three vectors of shared width n:

  f(x)    raw descriptor of the patch itself,
  rho(x)  its vertex embedding from the neighborhood graph network,
  g(G^x)  the pooled embedding of its whole neighborhood graph,

combined into the ensemble embeddings

  phi(x)   = rho(x) | f(x)            (length 2n)
  psi(G^x) = g(G^x) | rho(x) | f(x)   (length 3n)

A learnable block bilinear form scores directed pairs,
d(phi, psi) = sigmoid(phi^T M psi), with M the 2n x 3n matrix

      [ 0    M12  0   ]
  M = [ M21  M22  M23 ]

whose zero blocks are structural (never trained, never stored).  A score
is the dot product of x = phi M with y = psi, both of length 3n.  The
match score averages both directions; training minimizes a
binary-information loss over labeled pairs.
"""

import json
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .config import SCHEMA, ConfigError, check_value, model_problems
from .features import FeaturizerParams, featurize, init_featurizer
from .gnn import GnnParams, embed_graph, init_gnn
from .neighbors import graph_for_patch
from .scene import staged
from .seeds import rng_for

SCORE_CLAMP = (1e-7, 1.0 - 1e-7)
# flagship first: the ablation grid, and so ablation.csv, follow this order
PAIRINGS = ("phi_psi", "f_f", "rho_rho", "phi_phi", "psi_psi")
DISCRIMINATORS = ("bilinear", "cosine", "l2")


def _config_key(field):
    return "model.arch" if field == "architecture" else "model." + field


@dataclass
class ModelConfig:
    """Each field is the ``model.*`` config key of its name (``architecture``
    is ``model.arch``), checked against config.SCHEMA."""
    n: int = SCHEMA["model.n"][0]
    k: int = SCHEMA["model.k"][0]
    gamma: float = SCHEMA["model.gamma"][0]
    featurizer: str = SCHEMA["model.featurizer"][0]
    architecture: str = SCHEMA["model.arch"][0]
    heads: int = SCHEMA["model.heads"][0]
    pool: str = SCHEMA["model.pool"][0]

    def __post_init__(self):
        problems = model_problems({_config_key(f): v
                                   for f, v in vars(self).items()})
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_config(cls, cfg):
        return cls(**{f.name: cfg[_config_key(f.name)] for f in fields(cls)})


@dataclass
class DiscriminatorParams:
    m12: object
    m21: object
    m22: object
    m23: object

    def __post_init__(self):
        shapes = {name: t.data.shape for name, t in self.blocks().items()}
        first = next(iter(shapes.values()))
        if any(s != first or s[0] != s[1] for s in shapes.values()):
            raise ValueError("discriminator blocks must share one square "
                             "shape, got %r" % shapes)

    def blocks(self):
        return {"m12": self.m12, "m21": self.m21,
                "m22": self.m22, "m23": self.m23}

    @property
    def n(self):
        return self.m12.data.shape[0]

    def trainable(self):
        return [t for t in self.blocks().values() if t.requires_grad]

    def named_tensors(self):
        return {"disc." + k: v for k, v in self.blocks().items()}

    def matrix(self):
        """The 2n x 3n M as one tensor built from the four blocks; its zero
        blocks are constants, so only the blocks receive gradients."""
        zero = ad.constant(np.zeros((self.n, self.n)))
        return ad.concat([ad.concat([zero, self.m12, zero]),
                          ad.concat([self.m21, self.m22, self.m23])], axis=0)

    def full_matrix(self):
        """``matrix()`` as an array."""
        return self.matrix().data


def init_discriminator(n, seed):
    """Blocks uniform in +-1/n: initial logits are small, scores near 0.5."""
    rng = rng_for(seed, "discriminator")
    bound = 1.0 / n
    blocks = [ad.parameter(rng.uniform(-bound, bound, size=(n, n)))
              for _ in range(4)]
    return DiscriminatorParams(*blocks)


@dataclass
class MatchModel:
    featurizer: FeaturizerParams
    gnn: GnnParams
    disc: DiscriminatorParams
    config: ModelConfig

    def __post_init__(self):
        dims = (self.featurizer.n, self.gnn.n, self.disc.n, self.config.n)
        if len(set(dims)) != 1:
            raise ValueError("inconsistent embedding dims %r across "
                             "featurizer/gnn/discriminator/config" % (dims,))

    def trainable(self):
        return (self.featurizer.trainable() + self.gnn.trainable()
                + self.disc.trainable())

    def named_tensors(self):
        out = {}
        out.update(self.featurizer.named_tensors())
        out.update(self.gnn.named_tensors())
        out.update(self.disc.named_tensors())
        return out


def init_model(config, seed):
    return MatchModel(
        featurizer=init_featurizer(config.featurizer, config.n, seed),
        gnn=init_gnn(config.architecture, config.n, seed, heads=config.heads),
        disc=init_discriminator(config.n, seed),
        config=config,
    )


def save_model(path, model):
    """Tensor checkpoint plus a JSON config sidecar at <path>.config.json,
    both renamed into place only after both writes succeed."""
    path = str(path)
    with staged(path, path + ".config.json") as (tensors_tmp, config_tmp):
        ad.save_named_tensors(tensors_tmp, {k: v.data for k, v in
                                            model.named_tensors().items()})
        with open(config_tmp, "w") as fh:
            json.dump(vars(model.config), fh, indent=1, sort_keys=True)


def load_model(path):
    with open(str(path) + ".config.json") as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ValueError("checkpoint config is not a JSON object")
    if entries.get("channels") == 1:  # older checkpoints carry it
        del entries["channels"]
    names = {f.name for f in fields(ModelConfig)}
    for what, keys in (("unknown", set(entries) - names),
                       ("missing", names - set(entries))):
        if keys:
            raise ValueError("checkpoint config has %s keys: %s"
                             % (what, ", ".join(sorted(keys))))
    config = ModelConfig(**entries)
    model = init_model(config, seed=0)
    stored = ad.load_named_tensors(path)
    expected = model.named_tensors()
    if set(stored) != set(expected):
        raise ValueError("checkpoint tensors %r do not match model %r"
                         % (sorted(stored), sorted(expected)))
    for name, tensor in expected.items():
        if stored[name].shape != tensor.data.shape:
            raise ValueError("checkpoint tensor %s has shape %r, expected %r"
                             % (name, stored[name].shape, tensor.data.shape))
        tensor.data[...] = stored[name]  # a view writes into its stack
    return model


# -- embeddings ---------------------------------------------------------------

@dataclass
class EnsembleEmbedding:
    f: object
    rho: object
    g: object
    phi: object   # rho | f, length 2n
    psi: object   # g | rho | f, length 3n

    def __post_init__(self):
        n = self.f.data.shape[0]
        if self.phi.data.shape != (2 * n,) or self.psi.data.shape != (3 * n,):
            raise ValueError("ensemble embedding lengths must be 2n and 3n")


def assemble_embeddings(patch, frame, model):
    """Featurize every vertex of the patch's neighborhood graph, embed the
    graph, and concatenate the ensemble vectors."""
    vertices = graph_for_patch(patch, frame, k=model.config.k)
    feats = ad.stack_rows([featurize(v, model.featurizer) for v in vertices])
    emb = embed_graph(feats, model.gnn, pool=model.config.pool)
    f = ad.row(feats, 0)
    rho = emb.center()
    g = emb.graph
    return EnsembleEmbedding(f=f, rho=rho, g=g,
                             phi=ad.concat([rho, f]),
                             psi=ad.concat([g, rho, f]))


def _row_products(a, m):
    """a^T M for each row of a stack of vectors (..., w).  Each row meets M
    in a one-row product of its own, (..., 1, w) @ (w, w'), never in one
    (rows, w) product, which BLAS may round differently, so a row's bits do
    not depend on the rest of the stack."""
    lead, width = a.data.shape[:-1], a.data.shape[-1]
    return ad.reshape(ad.reshape(a, lead + (1, width)) @ m,
                      lead + (m.data.shape[-1],))


def _sigmoid_dot(x, y):
    """sigmoid(a^T M b) of a bilinear form's operands x = a M and y = b."""
    return ad.sigmoid(ad.tsum(x * y, axis=-1))


def discriminate(phi, psi, disc):
    """The paper's directed score d = sigmoid(phi^T M psi), ``_sigmoid_dot``
    of phi M against psi: the reference for the flagship ``VariantScorer``.

    ``phi`` (..., 2n) and ``psi`` (..., 3n) are single vectors or stacks of
    them whose leading axes broadcast; one score per stacked pair.
    """
    n = disc.n
    if phi.data.shape[-1:] != (2 * n,) or psi.data.shape[-1:] != (3 * n,):
        raise ValueError("expected phi of length %d and psi of length %d, "
                         "got %r and %r" % (2 * n, 3 * n, phi.data.shape,
                                            psi.data.shape))
    return _sigmoid_dot(_row_products(phi, disc.matrix()), psi)


def full_bilinear_score(phi, psi, disc):
    """Reference route through the fully assembled matrix (zero blocks and
    all); must agree with ``discriminate`` to machine precision."""
    logit = float(phi.data @ disc.full_matrix() @ psi.data)
    return 1.0 / (1.0 + math.exp(-logit)) if logit >= 0 else \
        math.exp(logit) / (1.0 + math.exp(logit))


# -- frame index --------------------------------------------------------------

class FrameIndex:
    """What one scoring call (``train``, ``evaluate``,
    ``place_recognition_eval``, ...) computes once over its frames and
    reuses in every batch.  Each frame's patches hold consecutive slots, in
    frame order, from ``start[frame id]``.

    The index keeps only what no parameter shapes: each patch's clique as
    the slots of its vertices (center first), and a fixed featurizer's
    descriptors ``f`` as one (P, n) array.  A trained featurizer's
    descriptors, the embeddings and the scorers' operands are recomputed
    at every read, so a kept index never scores with stale weights.

    The keys are frame and patch ids, which repeat across datasets (``synth``
    names frames ``s000/a`` at every seed), so an index serves one call on
    one dataset and one model, and rejects two different frames with one id.
    """

    def __init__(self, frames):
        self.start = {}        # frame id -> its first slot
        self.patches = []      # slot -> (patch, frame)
        first = {}             # frame id -> the frame given first
        for frame in frames:
            if first.setdefault(frame.frame_id, frame) is not frame:
                raise ValueError("two different frames share the id %r"
                                 % (frame.frame_id,))
            if frame.frame_id not in self.start:
                self.start[frame.frame_id] = len(self.patches)
                self.patches.extend((patch, frame) for patch in frame.patches)
        self.slots = {(frame.frame_id, patch.patch_id): slot
                      for slot, (patch, frame) in enumerate(self.patches)}
        self.cliques = {}      # slot -> vertex slots, center first
        self.f = None          # (P, n) descriptors, once made

    @classmethod
    def for_rows(cls, rows):
        """The index over the frames of rows that start with (patch_x,
        frame_x, patch_y, frame_y)."""
        return cls(frame for row in rows for frame in (row[1], row[3]))

    def row_slots(self, rows):
        """(slots, at) for N rows that start with (patch_x, frame_x,
        patch_y, frame_y): the rows' distinct slots in order of first
        appearance, and the (2, N) places in ``slots`` of each row's x
        (``at[0]``) and of its y (``at[1]``)."""
        ends = [self.slots[frame.frame_id, patch.patch_id]
                for px, fx, py, fy, *_ in rows
                for patch, frame in ((px, fx), (py, fy))]
        slots = list(dict.fromkeys(ends))
        place = {slot: i for i, slot in enumerate(slots)}
        at = np.array([place[s] for s in ends], dtype=np.intp)
        return slots, at.reshape(-1, 2).T

    def clique(self, slot, k):
        vertices = self.cliques.get(slot)
        if vertices is None:
            patch, frame = self.patches[slot]
            vertices = self.cliques[slot] = [
                self.slots[frame.frame_id, v.patch_id]
                for v in graph_for_patch(patch, frame, k=k)]
        return vertices

    def descriptors(self, slots, featurizer):
        """(len(slots), n) descriptors: recomputed for ``slots`` if the
        featurizer trains, otherwise rows of the kept ``f``."""
        if featurizer.trainable():
            return ad.stack_rows([featurize(self.patches[s][0], featurizer)
                                  for s in slots])
        if self.f is None:
            self.f = np.stack([featurize(patch, featurizer).data
                               for patch, _ in self.patches])
        return ad.constant(self.f[slots])

    def embed(self, slots, model, fields):
        """{field: tensor with one row per slot} for the ensemble ``fields``,
        with ``f``, ``rho`` and ``g`` too unless ``fields`` read only ``f``,
        which skips the graphs.  The cliques are grouped by size, and each
        group runs through ``embed_graph`` as one stack."""
        if set(fields) == {"f"}:
            return {"f": self.descriptors(slots, model.featurizer)}
        groups = {}
        for slot in slots:
            vertices = self.clique(slot, model.config.k)
            groups.setdefault(len(vertices), []).append((slot, vertices))
        members = [m for group in groups.values() for m in group]
        vertex_rows = {}
        for _, vertices in members:
            for v in vertices:
                vertex_rows.setdefault(v, len(vertex_rows))
        table = self.descriptors(list(vertex_rows), model.featurizer)
        rho, g = [], []
        for group in groups.values():
            x = ad.take(table, [[vertex_rows[v] for v in vertices]
                                for _, vertices in group])
            emb = embed_graph(x, model.gnn, pool=model.config.pool)
            rho.append(emb.center())
            g.append(emb.graph)
        # back from group order to the order of ``slots``
        at = {slot: i for i, (slot, _) in enumerate(members)}
        back = [at[slot] for slot in slots]
        t = {"f": ad.take(table, [vertex_rows[s] for s in slots]),
             "rho": ad.take(ad.concat(rho, axis=0), back),
             "g": ad.take(ad.concat(g, axis=0), back)}
        if "phi" in fields:
            t["phi"] = ad.concat([t["rho"], t["f"]])
        if "psi" in fields:
            t["psi"] = ad.concat([t["g"], t["rho"], t["f"]])
        return t

    def frame_tables(self, scorer):
        """{frame id: (2, A, w) array}: ``scorer.operands`` of every slot,
        made in one pass without a tape and cut into each frame's rows, the
        x rows then the y rows.  Trained weights shape them, so the index
        does not keep them: the caller holds them for its own call."""
        with ad.no_grad():
            x, y = scorer.operands(self, range(len(self.patches)))
        xy = np.stack([x.data, y.data])
        ends = list(self.start.values())[1:] + [len(self.patches)]
        return {frame_id: xy[:, start:end] for (frame_id, start), end
                in zip(self.start.items(), ends)}


# -- scoring ------------------------------------------------------------------

@dataclass
class MatchResult:
    score: float
    decision: int
    score_xy: float   # d(phi_x, psi_{G_y})
    score_yx: float   # d(phi_y, psi_{G_x})


def _cosine_score(a, b):
    """Cosine similarity mapped to [0, 1] for matching rows of two stacks;
    the norms are constants, and a zero vector scores exactly 0.5."""
    norms = (np.sqrt(np.sum(a.data * a.data, axis=-1))
             * np.sqrt(np.sum(b.data * b.data, axis=-1)))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms),
                      where=norms != 0.0)
    return ad.tsum(a * b, axis=-1) * scale * 0.5 + 0.5


def _l2_score(a, b):
    # exp(-||a-b||); exact 1.0 for identical vectors.  Metric variants are
    # never trained, so the sqrt kink at 0 never sees a backward pass.
    diff = a - b
    return ad.exp(-ad.sqrt(ad.tsum(diff * diff, axis=-1)))


class VariantScorer:
    """Directed scores for one embedding pairing x one discriminator family.

    The defaults (phi_psi, bilinear) are the flagship: the model's block
    discriminator between phi and the partner's psi.  The other pairings
    are the ablation variants; their bilinear form is a plain square
    matrix.  The cosine and L2 discriminators need equal-length operands,
    so the phi_psi pairing falls back to comparing the two psi vectors.

    A scorer is two methods, which training and inference share:
    ``operands(index, slots)`` embeds the slots into x and y tape rows
    (x = a M, y = b for every bilinear form, the flagship's 2n x 3n M
    included), and ``pair(x, y)`` scores such rows, whose leading axes
    broadcast, into directed scores.  Both directions of a pair travel on
    axis 0 of one stack: row 0 is x -> y, row 1 is y -> x.  A pair list
    (``score_rows`` in training, ``symmetric_scores`` at inference)
    gathers them from the operands of the slots its rows name; a frame
    pair (``placerec.score_matrix``) reads them from
    ``FrameIndex.frame_tables``, the operands of every slot.
    """

    def __init__(self, model, pairing="phi_psi", discriminator="bilinear",
                 seed=0):
        if pairing not in PAIRINGS:
            raise ValueError("unknown pairing %r" % pairing)
        if discriminator not in DISCRIMINATORS:
            raise ValueError("unknown discriminator %r" % discriminator)
        self.model = model
        self.pairing = pairing
        self.discriminator = discriminator
        self.matrix = None
        if discriminator == "bilinear" and pairing != "phi_psi":
            n = model.config.n
            width = {"f_f": n, "rho_rho": n,
                     "phi_phi": 2 * n, "psi_psi": 3 * n}[pairing]
            rng = rng_for(seed, "ablation/" + pairing)
            self.matrix = ad.parameter(
                rng.uniform(-1.0 / width, 1.0 / width, size=(width, width)))
        self.pair = {"cosine": _cosine_score, "l2": _l2_score}.get(
            discriminator, _sigmoid_dot)
        if discriminator != "bilinear" and pairing == "phi_psi":
            pairing = "psi_psi"
        self.fields = tuple(pairing.split("_"))

    def operands(self, index, slots):
        """Tape rows (x, y) for ``slots`` of ``index``, one of each per slot:
        x = a M and y = b for a bilinear form, x = a and y = b otherwise."""
        t = index.embed(slots, self.model, self.fields)
        a, b = (t[field] for field in self.fields)
        if self.discriminator != "bilinear":
            return a, b
        m = self.model.disc.matrix() if self.matrix is None else self.matrix
        return _row_products(a, m), b

    def score_rows(self, rows, index=None):
        """The (2, N) tensor of directed scores, d_xy then d_yx, for N rows
        that start with (patch_x, frame_x, patch_y, frame_y).  ``index`` is
        the call's ``FrameIndex``; each distinct patch's operands are made
        once."""
        index = FrameIndex.for_rows(rows) if index is None else index
        slots, at = index.row_slots(rows)
        x, y = self.operands(index, slots)
        return self.pair(ad.take(x, at), ad.take(y, at[::-1]))

    def trainable(self):
        if self.discriminator != "bilinear":
            return []
        if self.pairing == "phi_psi":
            return self.model.trainable()
        return (self.model.featurizer.trainable()
                + self.model.gnn.trainable() + [self.matrix])


# Rows per batched pass at inference, and INFERENCE_CHUNK**2 patch pairs per
# block of a frame pair's broadcast: it bounds the pair scores' temporaries.
INFERENCE_CHUNK = 64


def symmetric_scores(rows, scorer):
    """Inference scores (d_xy + d_yx) / 2 for rows that start with
    (patch_x, frame_x, patch_y, frame_y): ``scorer.operands`` of the rows'
    distinct slots, made once without a tape, then both directions per
    chunk of INFERENCE_CHUNK rows, gathered as ``score_rows`` gathers
    them."""
    index = FrameIndex.for_rows(rows)
    slots, at = index.row_slots(rows)
    scores = []
    with ad.no_grad():
        x, y = scorer.operands(index, slots)
        for start in range(0, len(rows), INFERENCE_CHUNK):
            c = at[:, start:start + INFERENCE_CHUNK]
            d = scorer.pair(ad.take(x, c), ad.take(y, c[::-1])).data
            scores.extend((0.5 * (d[0] + d[1])).tolist())
    return scores


def match_score(patch_x, frame_x, patch_y, frame_y, model, gamma=None):
    """Symmetric score S = (d(phi_x,psi_y) + d(phi_y,psi_x)) / 2 and the
    strict-threshold decision."""
    gamma = model.config.gamma if gamma is None else gamma
    with ad.no_grad():
        d = VariantScorer(model).score_rows(
            [(patch_x, frame_x, patch_y, frame_y)])
    s_xy, s_yx = d.data[:, 0].tolist()
    s = 0.5 * (s_xy + s_yx)
    return MatchResult(score=s, decision=int(s > gamma),
                       score_xy=s_xy, score_yx=s_yx)


# -- loss ---------------------------------------------------------------------

def loss_from_scores(d, labels):
    """-(1/2N) sum over all 2N directed scores d of y log d + (1-y) log(1-d);
    ``d`` is the (2, N) tensor of ``score_rows``, d_xy then d_yx, clamped
    to [1e-7, 1-1e-7] before the log."""
    if len(labels) == 0:
        raise ValueError("empty batch")
    if d.data.shape != (2, len(labels)):
        raise ValueError("score/label count mismatch")
    bad = [label for label in labels if label not in (0, 1)]
    if bad:
        raise ValueError("labels must be 0 or 1, got %r" % (bad[0],))
    lo, hi = SCORE_CLAMP
    d = ad.clamp(d, lo, hi)
    y = np.asarray(labels, dtype=np.float64)
    # d where y = 1 and 1 - d where y = 0, both exact in floating point
    picked = d * (2.0 * y - 1.0) + (1.0 - y)
    return ad.tsum(ad.log(picked)) * (-0.5 / len(labels))


def loss_emp_id(batch, model, scorer=None, index=None):
    """Information-distance loss over labeled patch pairs.

    ``batch`` rows are (patch_x, frame_x, patch_y, frame_y, label);
    ``index`` is the calling ``train``'s ``FrameIndex``.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    scorer = VariantScorer(model) if scorer is None else scorer
    return loss_from_scores(scorer.score_rows(batch, index),
                            [row[4] for row in batch])


# -- datasets of labeled pairs ------------------------------------------------

@dataclass
class PairCorpus:
    """Labeled pairs resolved against their frames."""
    rows: list  # (patch_x, frame_x, patch_y, frame_y, label)

    @classmethod
    def from_frames(cls, frames, entries):
        index = {}
        for frame in frames:
            for patch in frame.patches:
                index[patch.patch_id] = (patch, frame)
        rows = []
        for e in entries:
            if e.patch_a not in index or e.patch_b not in index:
                raise KeyError("pair references unknown patch %r"
                               % (e.patch_a if e.patch_a not in index
                                  else e.patch_b))
            (px, fx), (py, fy) = index[e.patch_a], index[e.patch_b]
            rows.append((px, fx, py, fy, e.label))
        return cls(rows)

    def labels(self):
        return [r[4] for r in self.rows]


# -- training -----------------------------------------------------------------

_TRAIN_KEYS = {"epochs": "train.epochs", "lr": "train.lr",
               "batch_size": "train.batch", "balance": "train.balance"}


@dataclass
class TrainConfig:
    """Each field but ``seed`` is the config key that _TRAIN_KEYS names,
    checked against config.SCHEMA; ``seed`` is the command's --seed."""
    epochs: int = SCHEMA["train.epochs"][0]
    lr: float = SCHEMA["train.lr"][0]
    batch_size: int = SCHEMA["train.batch"][0]
    seed: int = 0
    balance: bool = SCHEMA["train.balance"][0]

    def __post_init__(self):
        problems = [p for p in (check_value(key, getattr(self, f))
                                for f, key in _TRAIN_KEYS.items()) if p]
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_config(cls, cfg, seed):
        return cls(seed=seed,
                   **{f: cfg[key] for f, key in _TRAIN_KEYS.items()})


def _balanced_order(rows, rng, balance):
    """Epoch ordering; the minority class is resampled up to 1:1."""
    pos = [r for r in rows if r[4] == 1]
    neg = [r for r in rows if r[4] == 0]
    if not balance or not pos or not neg:
        order = list(rows)
        rng.shuffle(order)
        return order
    big, small = (pos, neg) if len(pos) >= len(neg) else (neg, pos)
    extra = [small[int(i)] for i in
             rng.integers(0, len(small), size=len(big) - len(small))]
    order = list(rows) + extra
    rng.shuffle(order)
    return order


def train(corpus, model, train_config, scorer=None):
    """Minibatch Adam on the information-distance loss.

    Returns (model, history) where history holds one mean loss per epoch.
    The model is mutated in place; pass a fresh one to keep the original.
    """
    rows = corpus.rows
    if not rows:
        raise ValueError("training corpus is empty")
    labels = {r[4] for r in rows}
    if len(labels) == 1:
        warnings.warn("training corpus has a single class (%s); the loss "
                      "is still defined but cannot contrast pairs"
                      % ("matched" if 1 in labels else "unmatched"))
    scorer = VariantScorer(model) if scorer is None else scorer
    params = scorer.trainable()
    state = ad.AdamState(lr=train_config.lr)
    rng = rng_for(train_config.seed, "train")
    history = []
    index = FrameIndex.for_rows(rows)
    for _ in range(train_config.epochs):
        order = _balanced_order(rows, rng, train_config.balance)
        epoch_losses = []
        for start in range(0, len(order), train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            loss = loss_emp_id(batch, model, scorer=scorer, index=index)
            grads = ad.gradients(loss, params)
            ad.adam_step(params, grads, state)
            epoch_losses.append(float(loss.data))
        history.append(float(np.mean(epoch_losses)))
    return model, history


# -- evaluation ---------------------------------------------------------------

def confusion(scores, labels, thresholds):
    """Counts (tp, fp, fn, tn) of the decisions ``score > t`` against 0/1
    labels: Python ints for one threshold ``t``, int arrays for an array
    of them.  One stable sort serves every threshold: the labels'
    cumulative positive count, read where each threshold cuts the sorted
    scores, gives the positives decided negative."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    pos_below = np.concatenate(
        [[0], np.cumsum(np.asarray(labels, dtype=bool)[order])])
    cut = np.searchsorted(scores[order], thresholds, side="right")
    fn = pos_below[cut]
    tp = pos_below[-1] - fn
    fp = len(scores) - cut - tp
    tn = cut - fn
    if np.ndim(cut) == 0:
        return int(tp), int(fp), int(fn), int(tn)
    return tp, fp, fn, tn


def _roc_auc(scores, labels):
    """Trapezoidal area under the ROC curve, or None with one class only.

    The curve's points are the counts at the cut just below each distinct
    score, highest first, so tied scores move together (Fawcett 2006).
    The trapezoids add up one at a time in curve order: the pairwise sum
    of ``np.sum`` can move the last bit."""
    if all(labels) or not any(labels):
        return None
    ordered = np.sort(np.asarray(scores, dtype=np.float64))
    distinct = ordered[np.append(ordered[1:] != ordered[:-1], True)][::-1]
    tp, fp, _, _ = confusion(scores, labels, np.nextafter(distinct, -np.inf))
    tpr = np.append(0.0, tp / tp[-1])
    fpr = np.append(0.0, fp / fp[-1])
    return float(np.cumsum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0)[-1])


def evaluate(corpus, model, gamma=None, scorer=None):
    """Precision/recall/F1 at the decision threshold plus ROC AUC.

    Undefined ratios (zero denominators) come back as 0.0 and are named in
    the ``undefined`` list.
    """
    if not corpus.rows:
        raise ValueError("empty test set")
    gamma = model.config.gamma if gamma is None else gamma
    scorer = VariantScorer(model) if scorer is None else scorer
    scores = symmetric_scores(corpus.rows, scorer)
    labels = corpus.labels()
    tp, fp, fn, tn = confusion(scores, labels, gamma)
    undefined = []

    def ratio(num, den, name):
        if den == 0:
            undefined.append(name)
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp, "precision")
    recall = ratio(tp, tp + fn, "recall")
    f1 = ratio(2.0 * precision * recall, precision + recall, "f1")
    auc = _roc_auc(scores, labels)
    if auc is None:
        undefined.append("auc")
        auc = 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "auc": auc,
            "tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "undefined": undefined, "gamma": gamma,
            "scores": scores, "labels": labels}
