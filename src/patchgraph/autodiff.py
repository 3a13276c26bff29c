"""Small reverse-mode automatic differentiation engine on numpy arrays.

Everything downstream (featurizers, graph layers, the bilinear scorer and its
loss) is expressed in terms of the primitives here.  Each primitive records
its parents and a per-parent vector-Jacobian product; ``gradients`` replays
the recorded graph in reverse creation order, which is a valid reverse
topological order because an operation's output is always created after its
inputs.

All values are 64-bit floats.  Gradient replay is deterministic: the same
graph built twice yields bit-identical gradients.
"""

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

_ids = itertools.count()

# Global switch used to skip tape construction during pure inference.
_grad_enabled = True


class no_grad:
    """Context manager that disables gradient recording inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode gradients.

    Parameters
    ----------
    data : array-like
        Converted to a float64 ndarray (scalars become 0-d arrays).
    requires_grad : bool
        Leaf flag; interior nodes derive it from their parents.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjps", "_id")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjps = ()
        self._id = next(_ids)

    def __repr__(self):
        return "Tensor(%r, requires_grad=%r)" % (self.data, self.requires_grad)

    # -- operator sugar; the left operand is always a Tensor -------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x):
    return Tensor(x, requires_grad=False)


def parameter(x):
    return Tensor(x, requires_grad=True)


def _make(data, parents, vjps):
    """Build an interior node; collapses to a constant when grads are off."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjps = tuple(vjps)
    return out


def _backprop(root):
    """Walk the graph from ``root`` and return {node id: d(root)/d(node)}
    for every grad-requiring node it reaches, accumulating each node's
    contributions in reverse creation order."""
    nodes = []
    seen = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if n._id in seen or not n.requires_grad:
            continue
        seen.add(n._id)
        nodes.append(n)
        stack.extend(n._parents)
    nodes.sort(key=lambda n: n._id, reverse=True)

    grads = {root._id: np.ones_like(root.data)}
    for n in nodes:
        g = grads.get(n._id)
        if g is None:
            continue
        for parent, vjp in zip(n._parents, n._vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            if parent._id in grads:
                grads[parent._id] = grads[parent._id] + contrib
            else:
                grads[parent._id] = contrib
    return grads


def gradients(loss, params):
    """Gradients of a scalar ``loss`` w.r.t. each tensor in ``params``.

    Parameters never touched by the loss get exact zeros.
    """
    if loss.data.size != 1:
        raise ValueError("gradients() requires a scalar loss")
    grads = _backprop(loss)
    return [grads.get(p._id, np.zeros_like(p.data)) for p in params]


# -- arithmetic ----------------------------------------------------------

def _unbroadcast(g, shape):
    """Reduce a gradient back to ``shape`` after numpy broadcasting: sum the
    leading axes broadcasting added and the axes it stretched from size 1."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead < 0:
        raise ValueError("unsupported broadcast from %r to %r" % (shape, g.shape))
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    stretched = tuple(ax for ax, size in enumerate(shape)
                      if size == 1 and g.shape[ax] != 1)
    if stretched:
        g = g.sum(axis=stretched, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    return _make(a.data + b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(g, b.data.shape)))


def sub(a, b):
    return _make(a.data - b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(-g, b.data.shape)))


def neg(a):
    return _make(-a.data, (a,), (lambda g: -g,))


def mul(a, b):
    return _make(a.data * b.data, (a, b),
                 (lambda g: _unbroadcast(g * b.data, a.data.shape),
                  lambda g: _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b):
    """Matrix product with numpy semantics: 1-d operands are promoted to
    matrices, and stacks of matrices broadcast over their leading axes."""
    ad, bd = a.data, b.data
    a2 = ad[None, :] if ad.ndim == 1 else ad
    b2 = bd[:, None] if bd.ndim == 1 else bd

    def promoted(g):
        # put back the axes numpy drops from the product of a 1-d operand
        g = np.asarray(g)
        if bd.ndim == 1:
            g = np.expand_dims(g, -1)
        if ad.ndim == 1:
            g = np.expand_dims(g, -2)
        return g

    def grad_a(g):
        ga = np.matmul(promoted(g), np.swapaxes(b2, -1, -2))
        return _unbroadcast(ga, a2.shape).reshape(ad.shape)

    def grad_b(g):
        g = promoted(g)
        if b2.ndim == 2:
            # one product over every stacked row instead of a stack of them
            width = a2.shape[-1]
            rows = np.broadcast_to(a2, g.shape[:-1] + (width,))
            return np.matmul(rows.reshape(-1, width).T,
                             g.reshape(-1, g.shape[-1])).reshape(bd.shape)
        gb = np.matmul(np.swapaxes(a2, -1, -2), g)
        return _unbroadcast(gb, b2.shape).reshape(bd.shape)

    return _make(np.matmul(ad, bd), (a, b), (grad_a, grad_b))


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def tsum(a, axis=None):
    axes = _norm_axes(axis, a.data.ndim)
    out = np.sum(a.data, axis=axes if axes else None)

    def grad(g):
        ge = np.asarray(g)
        for ax in sorted(axes):
            ge = np.expand_dims(ge, ax)
        return np.broadcast_to(ge, a.data.shape).copy()

    return _make(out, (a,), (grad,))


def tmean(a, axis=None):
    axes = _norm_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    return tsum(a, axis) * (1.0 / count)


def tmax(a, axis=0):
    """Max over one axis; gradient flows to the first argmax per slice (ties
    broken by position, matching np.argmax)."""
    axis = axis % a.data.ndim
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
    out = np.max(a.data, axis=axis)

    def grad(g):
        z = np.zeros_like(a.data)
        np.put_along_axis(z, idx, np.expand_dims(g, axis), axis)
        return z

    return _make(out, (a,), (grad,))


def take(a, idx):
    """Rows of ``a`` gathered by an integer index array: the result has shape
    idx.shape + a.shape[1:].  Repeated indices accumulate their gradients."""
    idx = np.asarray(idx, dtype=np.intp)

    def grad(g):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
        return z

    return _make(a.data[idx], (a,), (grad,))


def concat(parts, axis=-1):
    """Concatenate tensors along one axis (the last by default)."""
    parts = [_wrap(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    vjps = []
    off = 0
    for p in parts:
        start, stop = off, off + p.data.shape[axis]
        index = [slice(None)] * data.ndim
        index[axis] = slice(start, stop)
        vjps.append(lambda g, ix=tuple(index): g[ix])
        off = stop
    return _make(data, tuple(parts), tuple(vjps))


def stack_rows(rows):
    """Stack 1-d tensors into a 2-d matrix, one tensor per row."""
    rows = [_wrap(r) for r in rows]
    data = np.stack([r.data for r in rows])
    vjps = [lambda g, i=i: g[i] for i in range(len(rows))]
    return _make(data, tuple(rows), tuple(vjps))


def row(a, i):
    """Row ``i`` of a matrix, or of every matrix in a stack (axis -2)."""

    def grad(g):
        full = np.zeros_like(a.data)
        full[..., i, :] = g
        return full

    return _make(a.data[..., i, :], (a,), (grad,))


def reshape(a, shape):
    return _make(a.data.reshape(shape), (a,),
                 (lambda g: g.reshape(a.data.shape),))


def moveaxis(a, source, destination):
    """``a`` with axis ``source`` moved to position ``destination``."""
    return _make(np.moveaxis(a.data, source, destination), (a,),
                 (lambda g: np.moveaxis(g, destination, source),))


# -- nonlinearities ------------------------------------------------------

def logistic(x):
    """The sigmoid of an array, the values of ``sigmoid``: with
    e = exp(-|x|), which cannot overflow, 1 / (1 + e) where x >= 0 and
    e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a):
    y = logistic(a.data)
    return _make(y, (a,), (lambda g: g * y * (1.0 - y),))


def relu(a):
    y = np.maximum(a.data, 0.0)
    return _make(y, (a,), (lambda g: g * (a.data > 0),))


def leaky_relu(a, slope=0.2):
    x = a.data
    y = np.where(x > 0, x, slope * x)
    return _make(y, (a,), (lambda g: g * np.where(x > 0, 1.0, slope),))


def elu(a):
    x = a.data
    neg_part = np.exp(np.minimum(x, 0.0)) - 1.0
    y = np.where(x > 0, x, neg_part)
    return _make(y, (a,),
                 (lambda g: g * np.where(x > 0, 1.0, neg_part + 1.0),))


def log(a):
    return _make(np.log(a.data), (a,), (lambda g: g / a.data,))


def exp(a):
    y = np.exp(a.data)
    return _make(y, (a,), (lambda g: g * y,))


def sqrt(a):
    y = np.sqrt(a.data)
    return _make(y, (a,), (lambda g: g / (2.0 * y),))


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes through only strictly inside."""
    y = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return _make(y, (a,), (lambda g: g * inside,))


def softmax(logits):
    """Softmax over the last axis."""
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    y = e / e.sum(axis=-1, keepdims=True)

    def grad(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - inner)

    return _make(y, (logits,), (grad,))


# -- convolution ---------------------------------------------------------

def conv2d(x, w, b, stride=2, padding=1):
    """2-d convolution with bias.

    x: (C_in, H, W), w: (C_out, C_in, kh, kw), b: (C_out,).
    """
    xd, wd = x.data, w.data
    cin, h, wid = xd.shape
    cout, cin2, kh, kw = wd.shape
    if cin != cin2:
        raise ValueError("conv2d: channel mismatch")
    xp = np.pad(xd, ((0, 0), (padding, padding), (padding, padding)))
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (wid + 2 * padding - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]            # (cin, hout, wout, kh, kw)
    cols = win.transpose(1, 2, 0, 3, 4).reshape(hout * wout, cin * kh * kw)
    w2 = wd.reshape(cout, cin * kh * kw)
    out = (cols @ w2.T).T.reshape(cout, hout, wout) + b.data[:, None, None]

    def grad_x(g):
        g2 = g.reshape(cout, -1)
        gcols = (g2.T @ w2).reshape(hout, wout, cin, kh, kw)
        gcols = gcols.transpose(2, 0, 1, 3, 4)
        gxp = np.zeros_like(xp)
        for di in range(kh):
            for dj in range(kw):
                gxp[:, di:di + stride * hout:stride,
                    dj:dj + stride * wout:stride] += gcols[:, :, :, di, dj]
        if padding:
            return gxp[:, padding:-padding, padding:-padding]
        return gxp

    def grad_w(g):
        g2 = g.reshape(cout, -1)
        return (g2 @ cols).reshape(wd.shape)

    def grad_b(g):
        return g.sum(axis=(1, 2))

    return _make(out, (x, w, b), (grad_x, grad_w, grad_b))


# -- optimizer -----------------------------------------------------------

@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators for Adam."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params, grads, state):
    """One Adam update, in place, with the standard bias correction."""
    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    if len(grads) != len(params) or len(state.m) != len(params):
        raise ValueError("adam_step: params/grads/state length mismatch")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data = p.data - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# -- gradient checking ---------------------------------------------------

def grad_check(f, params, h=1e-5):
    """Compare reverse-mode gradients of ``f()`` against central differences.

    ``f`` is a zero-argument callable returning a scalar Tensor and closing
    over ``params``.  Returns the maximum relative error
    |g_ad - g_fd| / max(1, |g_ad|, |g_fd|) over every coordinate.
    """
    loss = f()
    ad = gradients(loss, params)
    worst = 0.0
    for p, g in zip(params, ad):
        flat = p.data.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(f().data)
            flat[i] = keep - h
            down = float(f().data)
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]), abs(fd))
            if err > worst:
                worst = err
    return worst


# -- named-tensor checkpoints --------------------------------------------

def save_named_tensors(path, tensors):
    """Write a {name: array} mapping as JSON with shape + row-major data.

    JSON floats are IEEE doubles, so the round trip is exact.  The bytes
    are those of one ``json.dump`` of the whole mapping; each entry is
    encoded on its own by ``json.dumps``, which uses json's C encoder
    where ``json.dump`` never does.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for i, (name, t) in enumerate(tensors.items()):
            arr = (t.data if isinstance(t, Tensor)
                   else np.asarray(t, dtype=np.float64))
            entry = {"shape": list(arr.shape),
                     "data": arr.reshape(-1).tolist()}
            fh.write("%s%s: %s" % (", " if i else "", json.dumps(name),
                                   json.dumps(entry)))
        fh.write("}")


def load_named_tensors(path):
    """Inverse of save_named_tensors; returns {name: float64 ndarray}."""
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise ValueError("checkpoint tensors are not a JSON object")
    out = {}
    for name, rec in blob.items():
        try:
            shape = tuple(rec["shape"])
            data = rec["data"]
            # asarray would take null as NaN and "2.5" or true as numbers
            if not set(map(type, data)) <= {int, float}:
                raise ValueError("checkpoint entry %r has data that are not "
                                 "all numbers" % name)
            arr = np.asarray(data, dtype=np.float64)
            # json reads NaN, Infinity and -Infinity as floats
            if not np.all(np.isfinite(arr)):
                raise ValueError("checkpoint entry %r has values that are "
                                 "not finite" % name)
            if arr.size != (int(np.prod(shape)) if shape else 1):
                raise ValueError("checkpoint entry %r has %d values for "
                                 "shape %r" % (name, arr.size, shape))
            out[name] = arr.reshape(shape)
        except (TypeError, KeyError):
            raise ValueError("checkpoint entry %r is not an object of a "
                             "shape and data, each a list" % name) from None
    return out
