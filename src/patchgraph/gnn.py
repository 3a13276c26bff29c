"""Two-layer graph networks over patch neighborhood graphs.

Three interchangeable layer families — spectral convolution (gcn),
multi-head attention (gat), and sampled-neighborhood aggregation (sage) —
each mapping per-vertex features (V, n) to per-vertex embeddings (V, n).
Every layer also takes a stack (B, V, n) of B graphs that share one (V, V)
adjacency, and runs them as one batched product; a single graph is the
stack without its leading axis.  ``embed_graph`` runs the configured stack
and pools the rows into a single graph embedding, so every graph yields:

  * vertex embeddings, one row per vertex (center is row 0), and
  * one pooled graph embedding summarizing the whole neighborhood.

All layers are permutation-equivariant and the pool is symmetric, so
relabeling vertices (center tracked) never changes the result.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .seeds import rng_for

ARCHITECTURES = ("gcn", "gat", "sage")
NUM_LAYERS = 2
DEFAULT_HEADS = 4


@dataclass
class GnnParams:
    architecture: str
    n: int
    tensors: dict  # name -> Tensor
    heads: int = DEFAULT_HEADS

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError("unknown architecture %r" % self.architecture)
        if self.architecture == "gat" and self.n % self.heads != 0:
            raise ValueError("embedding dim %d not divisible by %d heads"
                             % (self.n, self.heads))

    def trainable(self):
        return [t for t in self.tensors.values() if t.requires_grad]

    def named_tensors(self, prefix="gnn."):
        return {prefix + k: v for k, v in self.tensors.items()}


@dataclass
class GraphEmbeddings:
    vertex: object   # Tensor, (..., V, n); row 0 is the center vertex
    graph: object    # Tensor, (..., n)

    def __post_init__(self):
        if self.vertex.data.shape[-2] < 1:
            raise ValueError("embeddings need at least one vertex")
        if not (np.all(np.isfinite(self.vertex.data))
                and np.all(np.isfinite(self.graph.data))):
            raise ValueError("non-finite graph embeddings")

    def center(self):
        return ad.row(self.vertex, 0)


def init_gnn(architecture, n, seed, heads=DEFAULT_HEADS):
    """Fresh 2-layer parameters, uniform +-1/sqrt(fan_in), seeded."""
    rng = rng_for(seed, "gnn/" + architecture)
    tensors = {}

    def unif(name, shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        tensors[name] = ad.parameter(rng.uniform(-bound, bound, size=shape))

    for layer in range(1, NUM_LAYERS + 1):
        if architecture == "gcn":
            unif("layer%d.w" % layer, (n, n), n)
        elif architecture == "sage":
            unif("layer%d.w" % layer, (2 * n, n), 2 * n)
        elif architecture == "gat":
            if n % heads != 0:
                raise ValueError("embedding dim %d not divisible by %d heads"
                                 % (n, heads))
            dh = n // heads
            for h in range(heads):
                unif("layer%d.head%d.w" % (layer, h), (n, dh), n)
                unif("layer%d.head%d.al" % (layer, h), (dh,), n)
                unif("layer%d.head%d.ar" % (layer, h), (dh,), n)
        else:
            raise ValueError("unknown architecture %r" % architecture)
    return GnnParams(architecture, n, tensors, heads=heads)


def _check_adjacency(adj, vertices):
    adj = np.asarray(adj, dtype=np.float64)
    if adj.shape != (vertices, vertices):
        raise ValueError("adjacency shape %r does not match %d vertices"
                         % (adj.shape, vertices))
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diag(adj) != 0.0):
        raise ValueError("adjacency must be hollow (no self-loops)")
    if not np.all((adj == 0.0) | (adj == 1.0)):
        raise ValueError("adjacency must be binary")
    return adj


def gcn_layer(x, adj, w, activation=ad.relu):
    """act(Ahat @ X @ W) with Ahat the symmetrically normalized adjacency
    including self-loops; self-loops keep isolated vertices well-defined."""
    adj = _check_adjacency(adj, x.data.shape[-2])
    a_tilde = adj + np.eye(adj.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    a_hat = a_tilde * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    return activation(ad.constant(a_hat) @ x @ w)


def gat_attention(x, adj, w, a_left, a_right):
    """One head's attention matrix and projected features.

    Scores e_ij = LeakyReLU(a_left . Wx_i + a_right . Wx_j), normalized by
    softmax over the closed neighborhood N(i) + {i}.
    """
    adj = _check_adjacency(adj, x.data.shape[-2])
    wx = x @ w
    s = wx @ a_left
    t = wx @ a_right
    scores = ad.leaky_relu(ad.add_outer(s, t), slope=0.2)
    mask = adj + np.eye(adj.shape[0])
    return ad.masked_row_softmax(scores, mask), wx


def gat_head(x, adj, w, a_left, a_right):
    """One attention head: pre-activation weighted sums (..., V, n/heads)."""
    alpha, wx = gat_attention(x, adj, w, a_left, a_right)
    return alpha @ wx


def gat_layer(x, adj, head_params, activation=ad.elu):
    """Multi-head attention layer; heads concatenated then activated."""
    outs = [gat_head(x, adj, w, al, ar) for (w, al, ar) in head_params]
    merged = outs[0]
    for o in outs[1:]:
        merged = ad.hconcat(merged, o)
    return activation(merged)


def sage_layer(x, adj, w, activation=ad.relu):
    """act([x_i | mean of neighbor features] @ W); an isolated vertex
    aggregates a zero vector."""
    adj = _check_adjacency(adj, x.data.shape[-2])
    deg = adj.sum(axis=1)
    scale = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    mean_op = adj * scale[:, None]
    neigh = ad.constant(mean_op) @ x
    return activation(ad.hconcat(x, neigh) @ w)


def _run_layer(x, adj, params, layer):
    arch = params.architecture
    if arch == "gcn":
        return gcn_layer(x, adj, params.tensors["layer%d.w" % layer])
    if arch == "sage":
        return sage_layer(x, adj, params.tensors["layer%d.w" % layer])
    heads = [(params.tensors["layer%d.head%d.w" % (layer, h)],
              params.tensors["layer%d.head%d.al" % (layer, h)],
              params.tensors["layer%d.head%d.ar" % (layer, h)])
             for h in range(params.heads)]
    return gat_layer(x, adj, heads)


def embed_graph(graph, node_features, params, pool="mean"):
    """Run the 2-layer stack over one neighborhood graph, or over a stack of
    graphs that share its adjacency.

    ``node_features`` is a (V, n) tensor aligned with graph.vertices, or a
    (B, V, n) stack of B such graphs.  Returns vertex embeddings (last
    layer's rows) plus the pooled graph embedding; ``pool`` is "mean"
    (default) or "max".
    """
    shape = node_features.data.shape
    if len(shape) not in (2, 3) or shape[-2] != len(graph.vertices):
        raise ValueError("feature rows %r do not match vertex count %d"
                         % (shape[:-1], len(graph.vertices)))
    if pool not in ("mean", "max"):
        raise ValueError("unknown pooling %r" % pool)
    x = node_features
    for layer in range(1, NUM_LAYERS + 1):
        x = _run_layer(x, graph.adjacency, params, layer)
    g = ad.tmean(x, axis=-2) if pool == "mean" else ad.tmax(x, axis=-2)
    return GraphEmbeddings(vertex=x, graph=g)
