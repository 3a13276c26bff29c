"""Tests for the reverse-mode engine.

Oracles: hand-worked matrix products, central finite differences, and an
independent re-implementation of the Adam update inside the tests.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchgraph import autodiff as ad


def _fd_check(f, params, h=1e-5):
    return ad.grad_check(f, params, h=h)


def test_bilinear_hand_value():
    # a^T (M b) with a=[1,2], M=[[1,0,0],[0,1,0]], b=[3,4,5]:
    # M b = [3, 4], dot = 1*3 + 2*4 = 11
    a = ad.parameter([1.0, 2.0])
    m = ad.parameter([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = ad.parameter([3.0, 4.0, 5.0])
    out = ad.matmul(a, m @ b)
    assert out.item() == pytest.approx(11.0, abs=0.0)


def test_bilinear_hand_gradients():
    # d/da (a^T M b) = M b, d/dM = a b^T, d/db = M^T a
    a = ad.parameter([1.0, 2.0])
    m = ad.parameter([[1.0, -1.0, 2.0], [0.5, 1.0, 0.0]])
    b = ad.parameter([3.0, 4.0, 5.0])
    out = ad.matmul(a, m @ b)
    ga, gm, gb = ad.gradients(out, [a, m, b])
    np.testing.assert_allclose(ga, m.data @ b.data, rtol=0, atol=0)
    np.testing.assert_allclose(gm, np.outer(a.data, b.data), rtol=0, atol=0)
    np.testing.assert_allclose(gb, m.data.T @ a.data, rtol=0, atol=0)


@pytest.mark.parametrize("seed", range(20))
def test_elementwise_ops_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = ad.parameter(rng.uniform(-2.0, 2.0, size=7))
    y = ad.parameter(rng.uniform(0.5, 2.0, size=7))

    cases = {
        "add": lambda: (x + y).sum(),
        "sub": lambda: (x - y).sum(),
        "mul": lambda: (x * y).sum(),
        "neg": lambda: (-x).sum(),
        "sigmoid": lambda: ad.sigmoid(x).sum(),
        "relu": lambda: ad.relu(x + 0.05).sum(),
        "leaky": lambda: ad.leaky_relu(x + 0.05, 0.2).sum(),
        "elu": lambda: ad.elu(x).sum(),
        "exp": lambda: ad.exp(x).sum(),
        "log": lambda: ad.log(y).sum(),
        "sqrt": lambda: ad.sqrt(y).sum(),
        "scalar_mix": lambda: (2.0 * x - x * (1.0 / 3.0) + 1.0).sum(),
    }
    for name, f in cases.items():
        err = _fd_check(f, [x, y])
        assert err < 1e-4, "%s gradient off by %g" % (name, err)


@pytest.mark.parametrize("seed", range(10))
def test_matmul_shapes_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    a2 = ad.parameter(rng.standard_normal((3, 4)))
    b2 = ad.parameter(rng.standard_normal((4, 2)))
    v4 = ad.parameter(rng.standard_normal(4))
    v3 = ad.parameter(rng.standard_normal(3))

    cases = [
        (lambda: (a2 @ b2).sum(), [a2, b2]),
        (lambda: (a2 @ v4).sum(), [a2, v4]),
        (lambda: (v3 @ a2).sum(), [v3, a2]),
        (lambda: ad.matmul(v4, v4), [v4]),
    ]
    for f, params in cases:
        assert _fd_check(f, params) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_structural_ops_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    u = ad.parameter(rng.standard_normal(3))
    v = ad.parameter(rng.standard_normal(4))
    m = ad.parameter(rng.standard_normal((3, 4)))
    w = ad.parameter(rng.standard_normal((3, 2)))

    weights = ad.constant(rng.standard_normal(7))
    rowsel = ad.constant(rng.standard_normal(3))

    cases = [
        (lambda: ad.matmul(ad.concat([u, v]), weights), [u, v]),
        (lambda: ad.matmul(ad.row(ad.stack_rows([u, u * 2.0, u - 1.0]), 1), rowsel), [u]),
        (lambda: (ad.concat([m, w])).sum(), [m, w]),
        (lambda: ad.reshape(m, (12,)).mean(), [m]),
        (lambda: m.sum(axis=0).sum(), [m]),
        (lambda: m.mean(axis=1).sum(), [m]),
        (lambda: ad.add_outer(u, v).sum(), [u, v]),
        (lambda: ad.clamp(v, -0.5, 0.5).sum(), [v]),
        (lambda: ad.tmax(m, axis=0).sum(), [m]),
        (lambda: ad.tmax(m, axis=1).sum(), [m]),
    ]
    for f, params in cases:
        assert _fd_check(f, params) < 1e-4


def test_tmax_values_and_argmax_routing():
    m = ad.parameter([[1.0, 5.0], [3.0, 2.0]])
    out = ad.tmax(m, axis=0)
    assert np.array_equal(out.data, [3.0, 5.0])
    (g,) = ad.gradients(out.sum(), [m])
    assert np.array_equal(g, [[0.0, 1.0], [1.0, 0.0]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    logits = ad.parameter(rng.standard_normal((5, 5)) * 3)
    y = ad.softmax(logits)
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(5), atol=1e-12)
    assert np.all(y.data > 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_softmax_gradient(seed):
    rng = np.random.default_rng(300 + seed)
    logits = ad.parameter(rng.standard_normal((4, 4)))
    coef = ad.constant(rng.standard_normal((4, 4)))

    def f():
        return (ad.softmax(logits) * coef).sum()

    assert _fd_check(f, [logits]) < 1e-4


def test_conv2d_matches_direct_convolution():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    stride, pad = 2, 1

    out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b),
                    stride=stride, padding=pad).data

    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    hout = (6 + 2 * pad - 3) // stride + 1
    ref = np.zeros((3, hout, hout))
    for co in range(3):
        for i in range(hout):
            for j in range(hout):
                patch = xp[:, i * stride:i * stride + 3, j * stride:j * stride + 3]
                ref[co, i, j] = (patch * w[co]).sum() + b[co]
    np.testing.assert_allclose(out, ref, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_conv2d_gradient(seed):
    rng = np.random.default_rng(400 + seed)
    x = ad.parameter(rng.standard_normal((2, 5, 5)))
    w = ad.parameter(rng.standard_normal((2, 2, 3, 3)) * 0.5)
    b = ad.parameter(rng.standard_normal(2))
    coef = ad.constant(rng.standard_normal((2, 3, 3)))

    def f():
        return (ad.conv2d(x, w, b, stride=2, padding=1) * coef).sum()

    assert _fd_check(f, [x, w, b]) < 1e-4


def test_sigmoid_is_stable_and_bounded():
    x = ad.constant([-1000.0, -60.0, 0.0, 60.0, 1000.0])
    y = ad.sigmoid(x).data
    assert np.all(np.isfinite(y))
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    assert y[2] == 0.5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_forward_never_produces_nan_for_bounded_inputs(vals):
    x = ad.parameter(vals)
    y = ad.sigmoid(x) * ad.elu(x) + ad.relu(x)
    z = ad.log(ad.clamp(ad.sigmoid(y), 1e-7, 1.0 - 1e-7)).sum()
    assert np.isfinite(z.data)


def test_unused_parameter_gets_exact_zero_gradient():
    x = ad.parameter([1.0, 2.0])
    unused = ad.parameter([[3.0, 4.0]])
    loss = (x * x).sum()
    gx, gu = ad.gradients(loss, [x, unused])
    assert np.all(gu == 0.0)
    np.testing.assert_allclose(gx, 2 * x.data, atol=0)


def test_gradients_are_bit_identical_across_runs():
    rng = np.random.default_rng(42)
    w = rng.standard_normal((6, 6))
    v = rng.standard_normal(6)

    def run():
        wt = ad.parameter(w.copy())
        vt = ad.parameter(v.copy())
        loss = ad.sigmoid(ad.matmul(vt, wt @ vt)).sum()
        return ad.gradients(loss, [wt, vt])

    g1 = run()
    g2 = run()
    for a, b in zip(g1, g2):
        assert a.tobytes() == b.tobytes()


def test_no_grad_blocks_tape_construction():
    x = ad.parameter([1.0, 2.0])
    with ad.no_grad():
        y = (x * 3.0).sum()
    assert not y.requires_grad
    assert ad.gradients((x * 1.0).sum(), [x])[0] is not None


def test_adam_first_step_closed_form():
    # from zero state: m_hat = g, v_hat = g^2, step = lr * g / (|g| + eps)
    p = ad.parameter([1.0])
    state = ad.AdamState(lr=0.1)
    ad.adam_step([p], [np.array([2.0])], state)
    expected = 1.0 - 0.1 * (2.0 / (2.0 + 1e-8))
    assert p.data[0] == pytest.approx(expected, abs=1e-15)
    assert abs(p.data[0] - 0.9) < 1e-8


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(5)
    p0 = rng.standard_normal(4)
    grads = [rng.standard_normal(4) for _ in range(5)]
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8

    p = ad.parameter(p0.copy())
    state = ad.AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    for g in grads:
        ad.adam_step([p], [g], state)

    # reference: straight transcription of the update rule
    ref = p0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + eps)

    np.testing.assert_allclose(p.data, ref, atol=1e-15)


def test_grad_check_reports_large_error_for_wrong_gradient():
    # a deliberately wrong vjp must be caught by the checker
    x = ad.parameter([0.3, -0.4])

    def wrong_square(t):
        return ad._make(t.data ** 2, (t,), (lambda g: g * 3.0 * t.data,))

    err = ad.grad_check(lambda: wrong_square(x).sum(), [x])
    assert err > 1e-2


def test_checkpoint_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    tensors = {
        "layer.w": rng.standard_normal((3, 4)),
        "layer.b": rng.standard_normal(3),
        "scale": np.array(0.1234567890123456789),
    }
    path = tmp_path / "ckpt.json"
    ad.save_named_tensors(path, tensors)
    back = ad.load_named_tensors(path)
    assert set(back) == set(tensors)
    for k in tensors:
        assert back[k].dtype == np.float64
        assert np.asarray(tensors[k]).shape == back[k].shape
        assert back[k].tobytes() == np.asarray(tensors[k], dtype=np.float64).tobytes()


def _checkpoint_bytes_one_dump(path, tensors):
    """The checkpoint writer as one ``json.dump`` of the whole mapping."""
    blob = {}
    for name, t in tensors.items():
        arr = (t.data if isinstance(t, ad.Tensor)
               else np.asarray(t, dtype=np.float64))
        blob[name] = {"shape": list(arr.shape),
                      "data": [float(v) for v in arr.reshape(-1)]}
    with open(path, "w") as fh:
        json.dump(blob, fh)


@pytest.mark.parametrize("count", [0, 1, 5])
def test_checkpoint_bytes_equal_one_json_dump(tmp_path, count):
    rng = np.random.default_rng(10)
    special = np.array([[-0.0, 5e-324, 1e300], [-1e-310, 0.1, -2.5]])
    entries = [
        ("scalar", np.array(-0.0)),
        ("stack", rng.standard_normal((2, 3, 4))),
        ("special", ad.parameter(special)),
        ("tiny \"name\" \u00e9", np.array([5e-324, -1e300, 1.0])),
        ("empty", np.zeros((0, 3))),
    ]
    tensors = dict(entries[:count])
    ad.save_named_tensors(tmp_path / "new.json", tensors)
    _checkpoint_bytes_one_dump(tmp_path / "old.json", tensors)
    assert ((tmp_path / "new.json").read_bytes()
            == (tmp_path / "old.json").read_bytes())
    back = ad.load_named_tensors(tmp_path / "new.json")
    for name, t in tensors.items():
        arr = t.data if isinstance(t, ad.Tensor) else t
        assert back[name].tobytes() == arr.tobytes()


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"w": {"shape": [2, 2], "data": [1.0, 2.0, 3.0]}}')
    with pytest.raises(ValueError):
        ad.load_named_tensors(path)


# -- stacked operands ---------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_stacked_matmul_matches_finite_differences(seed):
    rng = np.random.default_rng(500 + seed)
    x3 = ad.parameter(rng.standard_normal((2, 3, 4)))
    w2 = ad.parameter(rng.standard_normal((4, 5)))
    a2 = ad.parameter(rng.standard_normal((3, 3)))
    v4 = ad.parameter(rng.standard_normal(4))
    y3 = ad.parameter(rng.standard_normal((2, 4, 3)))
    coef = ad.constant(rng.standard_normal((2, 3, 5)))

    cases = [
        (lambda: (x3 @ w2 * coef).sum(), [x3, w2]),        # 3-d @ 2-d
        (lambda: (a2 @ x3 @ w2 * coef).sum(), [a2, x3]),   # 2-d @ 3-d
        (lambda: ad.sigmoid(x3 @ v4).sum(), [x3, v4]),     # 3-d @ 1-d
        (lambda: ad.sigmoid(x3 @ y3).sum(), [x3, y3]),     # 3-d @ 3-d
    ]
    for f, params in cases:
        assert _fd_check(f, params) < 1e-4


def test_stacked_matmul_is_a_stack_of_products():
    rng = np.random.default_rng(510)
    x = rng.standard_normal((6, 3, 4))
    w = rng.standard_normal((4, 4))
    out = ad.matmul(ad.constant(x), ad.constant(w)).data
    for b in range(6):
        assert np.array_equal(out[b], x[b] @ w)


def test_take_with_repeated_indices():
    rng = np.random.default_rng(520)
    table = ad.parameter(rng.standard_normal((4, 3)))
    idx = np.array([[0, 2, 2], [3, 0, 0]])
    coef = ad.constant(rng.standard_normal((2, 3, 3)))
    out = ad.take(table, idx)
    assert np.array_equal(out.data, table.data[idx])
    assert _fd_check(lambda: (ad.take(table, idx) * coef).sum(), [table]) < 1e-4
    (g,) = ad.gradients(ad.take(table, idx).sum(), [table])
    np.testing.assert_array_equal(g[:, 0], [3.0, 0.0, 2.0, 1.0])


@pytest.mark.parametrize("seed", range(3))
def test_last_axis_structure_on_stacks(seed):
    rng = np.random.default_rng(530 + seed)
    a = ad.parameter(rng.standard_normal((2, 3, 2)))
    b = ad.parameter(rng.standard_normal((2, 3, 4)))
    s = ad.parameter(rng.standard_normal((2, 3)))
    t = ad.parameter(rng.standard_normal((2, 3)))
    logits = ad.parameter(rng.standard_normal((2, 3, 3)))
    coef = {w: ad.constant(rng.standard_normal((2, 3, w))) for w in (3, 6, 8)}
    coef_rows = ad.constant(rng.standard_normal((4, 3, 2)))

    cases = [
        (lambda: (ad.concat([a, b, a]) * coef[8]).sum(), [a, b]),
        (lambda: (ad.concat([a, a], axis=0) * coef_rows).sum(), [a]),
        (lambda: (ad.concat([a, b]) * coef[6]).sum(), [a, b]),
        (lambda: (ad.add_outer(s, t) * coef[3]).sum(), [s, t]),
        (lambda: (ad.softmax(logits) * coef[3]).sum(), [logits]),
        (lambda: (ad.tmax(b, axis=-2) * ad.constant(np.arange(8.0)
                                                    .reshape(2, 4))).sum(),
         [b]),
    ]
    for f, params in cases:
        assert _fd_check(f, params) < 1e-4


def test_batched_add_outer_and_softmax_match_per_slice():
    rng = np.random.default_rng(540)
    s, t = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    outer = ad.add_outer(ad.constant(s), ad.constant(t)).data
    soft = ad.softmax(ad.constant(outer)).data
    for b in range(3):
        one = ad.add_outer(ad.constant(s[b]), ad.constant(t[b]))
        assert np.array_equal(outer[b], one.data)
        assert np.array_equal(soft[b], ad.softmax(one).data)


def test_unbroadcast_sums_a_stack_back_to_a_matrix():
    rng = np.random.default_rng(550)
    g = rng.standard_normal((5, 3, 3))
    np.testing.assert_allclose(ad._unbroadcast(g, (3, 3)), g.sum(axis=0),
                               rtol=0, atol=0)
    np.testing.assert_allclose(ad._unbroadcast(g, (1, 3)),
                               g.sum(axis=(0, 1))[None, :], atol=1e-15)
    w = ad.parameter(rng.standard_normal((3, 3)))
    x = ad.constant(rng.standard_normal((5, 3, 3)))
    (gw,) = ad.gradients((w * x).sum(), [w])
    np.testing.assert_allclose(gw, x.data.sum(axis=0), atol=1e-15)


@pytest.mark.parametrize("source,destination", [(0, -1), (-2, 0), (1, 2),
                                                (2, 2)])
def test_moveaxis_values_and_gradient(source, destination):
    rng = np.random.default_rng(560)
    a = ad.parameter(rng.standard_normal((2, 3, 4)))
    moved = ad.moveaxis(a, source, destination)
    assert np.array_equal(moved.data,
                          np.moveaxis(a.data, source, destination))
    coef = ad.constant(rng.standard_normal(moved.data.shape))

    def f():
        return (ad.moveaxis(a, source, destination) * coef).sum()

    assert _fd_check(f, [a]) < 1e-4
    # the gradient is the coefficients moved back, exactly
    (g,) = ad.gradients(f(), [a])
    assert np.array_equal(g, np.moveaxis(coef.data, destination, source))
