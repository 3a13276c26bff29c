"""Two-layer graph networks over patch neighborhood cliques.

Three interchangeable layer families — spectral convolution (gcn),
multi-head attention (gat), and sampled-neighborhood aggregation (sage) —
each mapping per-vertex features (V, n) to per-vertex embeddings (V, n).
A clique joins every vertex to every other, so each layer builds its
operator from the vertex count V alone.  Every layer also takes a stack
(B, V, n) of B cliques of one size and runs them as one batched product; a
single clique is the stack without its leading axis.  ``embed_graph`` runs
the configured stack and pools the rows into a single graph embedding, so
every clique yields:

  * vertex embeddings, one row per vertex (center is row 0), and
  * one pooled graph embedding summarizing the whole neighborhood.

All layers are permutation-equivariant and the pool is symmetric, so
relabeling vertices (center tracked) never changes the result.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import SCHEMA
from .seeds import rng_for

NUM_LAYERS = 2
DEFAULT_HEADS = SCHEMA["model.heads"][0]


@dataclass
class GnnParams:
    architecture: str
    n: int
    tensors: dict  # name -> Tensor

    def trainable(self):
        return [t for t in self.tensors.values() if t.requires_grad]

    def named_tensors(self):
        """Checkpoint entries.  A gat layer's stacked tensors appear per
        head, as ``layer{L}.head{h}.{w,al,ar}``: fresh views into the
        stacks, so writing into a view's data writes the stack.  Views are
        made anew on every call, since ``adam_step`` rebinds the stacks'
        data."""
        if self.architecture != "gat":
            return {"gnn." + k: v for k, v in self.tensors.items()}
        out = {}
        for layer in range(1, NUM_LAYERS + 1):
            w, al, ar = (self.tensors["layer%d.%s" % (layer, k)].data
                         for k in ("w", "a_left", "a_right"))
            heads, dh = al.shape
            for h in range(heads):
                head = "gnn.layer%d.head%d." % (layer, h)
                out[head + "w"] = ad.constant(w[:, h * dh:(h + 1) * dh])
                out[head + "al"] = ad.constant(al[h])
                out[head + "ar"] = ad.constant(ar[h])
        return out


@dataclass
class GraphEmbeddings:
    vertex: object   # Tensor, (..., V, n); row 0 is the center vertex
    graph: object    # Tensor, (..., n)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.vertex.data))
                and np.all(np.isfinite(self.graph.data))):
            raise ValueError("non-finite graph embeddings")

    def center(self):
        return ad.row(self.vertex, 0)


def init_gnn(architecture, n, seed, heads=DEFAULT_HEADS):
    """Fresh 2-layer parameters, uniform +-1/sqrt(fan_in), seeded.  A gat
    layer draws each head's w (n, dh), al and ar (dh,) in turn, then
    stacks them: w side by side into (n, heads*dh), al and ar as rows of
    (heads, dh)."""
    rng = rng_for(seed, "gnn/" + architecture)
    tensors = {}

    def unif(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    for layer in range(1, NUM_LAYERS + 1):
        name = "layer%d." % layer
        if architecture == "gcn":
            tensors[name + "w"] = ad.parameter(unif((n, n), n))
        elif architecture == "sage":
            tensors[name + "w"] = ad.parameter(unif((2 * n, n), 2 * n))
        elif architecture == "gat":
            dh = n // heads
            w, al, ar = zip(*[(unif((n, dh), n), unif((dh,), n),
                               unif((dh,), n)) for _ in range(heads)])
            tensors[name + "w"] = ad.parameter(np.concatenate(w, axis=1))
            tensors[name + "a_left"] = ad.parameter(np.stack(al))
            tensors[name + "a_right"] = ad.parameter(np.stack(ar))
    return GnnParams(architecture, n, tensors)


def gcn_layer(x, w, activation=ad.relu):
    """act(Ahat @ X @ W) with Ahat the symmetrically normalized clique
    including self-loops; self-loops keep a lone vertex well-defined.  With
    self-loops every vertex of a V-clique has degree V, so every entry of
    Ahat is (1/sqrt(V))^2, squared rather than written 1/V, which can differ
    in the last bit."""
    v = x.data.shape[-2]
    d_inv_sqrt = 1.0 / np.sqrt(v)
    a_hat = np.full((v, v), d_inv_sqrt * d_inv_sqrt)
    return activation(ad.constant(a_hat) @ x @ w)


def gat_layer(x, w, a_left, a_right, activation=ad.elu):
    """Multi-head attention layer, every head in one pass.

    Head h projects with column block h of ``w`` (n, heads*dh) and scores
    e_ij = LeakyReLU(a_left[h] . Wx_i + a_right[h] . Wx_j), normalized by
    softmax over the closed neighborhood of i, which in a clique is every
    vertex.  The heads' weighted sums (..., V, dh) are concatenated in head
    order, then activated.
    """
    lead = x.data.shape[:-1]                        # (..., V)
    heads, dh = a_left.data.shape
    # every product runs per clique, as in a one-head layer, never on rows
    # flattened across cliques, which BLAS can round differently
    wx = ad.moveaxis(ad.reshape(x @ w, lead + (heads, dh)), -2, 0)
    column = (heads,) + (1,) * (len(lead) - 1) + (dh, 1)
    s = wx @ ad.reshape(a_left, column)             # (heads, ..., V, 1)
    t = wx @ ad.reshape(a_right, column)
    scores = s + ad.moveaxis(t, -1, -2)             # (heads, ..., V, V)
    alpha = ad.softmax(ad.leaky_relu(scores, slope=0.2))
    out = ad.moveaxis(alpha @ wx, 0, -2)            # (..., V, heads, dh)
    return activation(ad.reshape(out, lead + (heads * dh,)))


def sage_layer(x, w):
    """relu([x_i | mean of neighbor features] @ W); a lone vertex
    aggregates a zero vector."""
    v = x.data.shape[-2]
    mean_op = (1.0 - np.eye(v)) / max(v - 1, 1)
    neigh = ad.constant(mean_op) @ x
    return ad.relu(ad.concat([x, neigh]) @ w)


def _run_layer(x, params, layer):
    arch = params.architecture
    if arch == "gcn":
        return gcn_layer(x, params.tensors["layer%d.w" % layer])
    if arch == "sage":
        return sage_layer(x, params.tensors["layer%d.w" % layer])
    return gat_layer(x, *(params.tensors["layer%d.%s" % (layer, k)]
                          for k in ("w", "a_left", "a_right")))


def embed_graph(node_features, params, pool="mean"):
    """Run the 2-layer stack over one clique, or over a stack of cliques of
    one size.

    ``node_features`` is a (V, n) tensor, one row per clique vertex with the
    center first, or a (B, V, n) stack of B such cliques.  Returns vertex
    embeddings (last layer's rows) plus the pooled graph embedding;
    ``pool`` is "mean" (default) or "max".
    """
    shape = node_features.data.shape
    if len(shape) not in (2, 3) or shape[-2] < 1:
        raise ValueError("node features must be (V, n) or (B, V, n) with "
                         "at least one vertex, got shape %r" % (shape,))
    x = node_features
    for layer in range(1, NUM_LAYERS + 1):
        x = _run_layer(x, params, layer)
    g = ad.tmean(x, axis=-2) if pool == "mean" else ad.tmax(x, axis=-2)
    return GraphEmbeddings(vertex=x, graph=g)
