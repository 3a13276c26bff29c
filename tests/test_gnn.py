import json
import pathlib

import numpy as np
import pytest

import patchgraph.autodiff as ad
from patchgraph.gnn import (
    GraphEmbeddings,
    embed_graph,
    gat_layer,
    gcn_layer,
    init_gnn,
    sage_layer,
)
from patchgraph.matching import ModelConfig

GOLDEN = pathlib.Path(__file__).parent / "golden" / "gnn_clique.json"


def identity(t):
    return t


class TestGcnLayer:
    def test_single_vertex_identity(self):
        x = ad.constant([[1.5, -2.0, 0.25]])
        out = gcn_layer(x, ad.constant(np.eye(3)), activation=identity)
        # the normalized operator of a lone self-loop is exactly 1
        assert np.array_equal(out.data, x.data)

    def test_two_vertex_clique_hand_value(self):
        x = ad.constant(np.eye(2))
        out = gcn_layer(x, ad.constant(np.eye(2)), activation=identity)
        np.testing.assert_allclose(out.data, [[0.5, 0.5], [0.5, 0.5]],
                                   atol=1e-15)

    @pytest.mark.parametrize("v", range(1, 7))
    def test_clique_rows_are_identical(self, v):
        # every vertex of a clique sees the same closed neighborhood, so
        # every output row is the same mean of all rows, bit for bit
        rng = np.random.default_rng(100 + v)
        x = ad.constant(rng.standard_normal((v, 3)))
        w = rng.standard_normal((3, 3))
        out = gcn_layer(x, ad.constant(w), activation=identity)
        for i in range(1, v):
            assert np.array_equal(out.data[i], out.data[0])
        np.testing.assert_allclose(out.data[0], x.data.mean(axis=0) @ w,
                                   atol=1e-12)

    def test_grad_check_two_stacked_layers(self):
        rng = np.random.default_rng(0)
        x = ad.constant(rng.standard_normal((4, 3)))
        w1 = ad.parameter(rng.standard_normal((3, 3)))
        w2 = ad.parameter(rng.standard_normal((3, 3)))

        def f():
            h = gcn_layer(x, w1)
            return ad.tsum(gcn_layer(h, w2))

        assert ad.grad_check(f, [w1, w2]) < 1e-4


def one_head_attention(features, w, a_left, a_right):
    """One head's attention matrix and weighted sum of projected features,
    both read off ``gat_layer``.  One-hot vertex columns appended to the
    features pass through an identity block of the projection and are not
    scored, so their output columns are alpha @ I = alpha."""
    v, m = features.shape
    dh = w.shape[1]
    w_full = np.zeros((m + v, dh + v))
    w_full[:m, :dh] = w
    w_full[m:, dh:] = np.eye(v)
    pad = np.zeros(v)
    out = gat_layer(ad.constant(np.hstack([features, np.eye(v)])),
                    ad.constant(w_full),
                    ad.constant(np.concatenate([a_left, pad])[None]),
                    ad.constant(np.concatenate([a_right, pad])[None]),
                    activation=identity).data
    return out[:, dh:], out[:, :dh]


class TestGatLayer:
    def test_single_vertex_self_attention_is_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4))
        w = rng.standard_normal((4, 2))
        alpha, weighted = one_head_attention(x, w, rng.standard_normal(2),
                                             rng.standard_normal(2))
        assert alpha.shape == (1, 1)
        assert alpha[0, 0] == 1.0
        np.testing.assert_allclose(weighted, x @ w, atol=1e-15)

    def test_identical_features_give_uniform_attention(self):
        rng = np.random.default_rng(2)
        row = rng.standard_normal(4)
        alpha, _ = one_head_attention(np.tile(row, (5, 1)),
                                      rng.standard_normal((4, 2)),
                                      rng.standard_normal(2),
                                      rng.standard_normal(2))
        np.testing.assert_allclose(alpha, np.full((5, 5), 0.2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_attention_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(10 + seed)
        v = int(rng.integers(2, 7))
        alpha, _ = one_head_attention(rng.standard_normal((v, 4)),
                                      rng.standard_normal((4, 3)),
                                      rng.standard_normal(3),
                                      rng.standard_normal(3))
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(v),
                                   atol=1e-12)

    def test_heads_concatenate(self):
        # head h's output columns are the one-head layer of column block h
        # of w and row h of the attention vectors, in head order
        rng = np.random.default_rng(3)
        x = ad.constant(rng.standard_normal((3, 4)))
        w, a_left, a_right = (ad.constant(rng.standard_normal(shape))
                              for shape in ((4, 4), (2, 2), (2, 2)))
        out = gat_layer(x, w, a_left, a_right)
        assert out.data.shape == (3, 4)
        for h in range(2):
            one = gat_layer(x, ad.constant(w.data[:, 2 * h:2 * h + 2]),
                            ad.constant(a_left.data[h:h + 1]),
                            ad.constant(a_right.data[h:h + 1]))
            np.testing.assert_allclose(out.data[:, 2 * h:2 * h + 2],
                                       one.data, rtol=0, atol=1e-15)

    def test_grad_check(self):
        rng = np.random.default_rng(4)
        x = ad.constant(rng.standard_normal((4, 4)))
        params = init_gnn("gat", 4, seed=0, heads=2)

        def f():
            return ad.tsum(embed_graph(x, params).graph)

        assert ad.grad_check(f, params.trainable()) < 1e-4


class TestSageLayer:
    def test_isolated_vertex_uses_only_self(self):
        rng = np.random.default_rng(5)
        x_data = rng.standard_normal((1, 3))
        w_data = rng.standard_normal((6, 3))
        out = sage_layer(ad.constant(x_data), ad.constant(w_data))
        expected = np.maximum(
            np.hstack([x_data, np.zeros_like(x_data)]) @ w_data, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_identical_nodes_in_clique_agree(self):
        rng = np.random.default_rng(6)
        row = rng.standard_normal(3)
        x = ad.constant(np.tile(row, (4, 1)))
        out = sage_layer(x, ad.constant(rng.standard_normal((6, 3))))
        for i in range(1, 4):
            np.testing.assert_allclose(out.data[i], out.data[0], atol=1e-14)

    def test_grad_check(self):
        rng = np.random.default_rng(7)
        x = ad.constant(rng.standard_normal((3, 4)))
        params = init_gnn("sage", 4, seed=1)

        def f():
            return ad.tsum(embed_graph(x, params).graph)

        assert ad.grad_check(f, params.trainable()) < 1e-4


class TestEmbedGraph:
    @pytest.mark.parametrize("arch", ["gcn", "gat", "sage"])
    def test_single_vertex_graph_embedding_equals_center(self, arch):
        rng = np.random.default_rng(8)
        params = init_gnn(arch, 4, seed=2)
        emb = embed_graph(ad.constant(rng.standard_normal((1, 4))), params)
        np.testing.assert_allclose(emb.graph.data, emb.center().data,
                                   atol=1e-15)

    @pytest.mark.parametrize("arch", ["gcn", "gat", "sage"])
    def test_permutation_equivariance_and_invariance(self, arch):
        rng = np.random.default_rng(9)
        v, n = 6, 4
        params = init_gnn(arch, n, seed=3)
        x = rng.standard_normal((v, n))
        perm = rng.permutation(v)
        p = np.eye(v)[perm]

        emb1 = embed_graph(ad.constant(x), params)
        emb2 = embed_graph(ad.constant(p @ x), params)

        np.testing.assert_allclose(emb2.vertex.data, p @ emb1.vertex.data,
                                   atol=1e-12)
        np.testing.assert_allclose(emb2.graph.data, emb1.graph.data,
                                   atol=1e-12)
        # center row follows the permutation
        j = int(np.argwhere(perm == 0)[0, 0])
        np.testing.assert_allclose(emb2.vertex.data[j], emb1.vertex.data[0],
                                   atol=1e-12)

    def test_max_pool(self):
        rng = np.random.default_rng(10)
        params = init_gnn("gcn", 4, seed=4)
        emb = embed_graph(ad.constant(rng.standard_normal((3, 4))), params,
                          pool="max")
        np.testing.assert_allclose(emb.graph.data,
                                   emb.vertex.data.max(axis=0), atol=1e-15)

    def test_row_count_mismatch_rejected(self):
        # features need a vertex-row axis, at most one stack axis, and at
        # least one vertex row
        params = init_gnn("gcn", 4, seed=5)
        for shape in ((4,), (2, 2, 3, 4), (0, 4), (2, 0, 4)):
            with pytest.raises(ValueError):
                embed_graph(ad.constant(np.zeros(shape)), params)

    def test_unknown_pool_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(n=4, architecture="gcn", pool="sum")

    def test_non_finite_embeddings_rejected(self):
        with pytest.raises(ValueError):
            GraphEmbeddings(vertex=ad.constant([[np.nan, 1.0]]),
                            graph=ad.constant([0.0, 1.0]))

    def test_golden_clique_embeddings(self):
        golden = json.loads(GOLDEN.read_text())
        rng = np.random.default_rng(20260301)
        x = ad.constant(rng.standard_normal((4, 8)))
        for arch in ("gcn", "gat", "sage"):
            params = init_gnn(arch, 8, seed=77)
            emb = embed_graph(x, params)
            np.testing.assert_allclose(emb.graph.data,
                                       np.asarray(golden[arch]["graph"]),
                                       atol=1e-12)
            np.testing.assert_allclose(emb.vertex.data,
                                       np.asarray(golden[arch]["vertex"]),
                                       atol=1e-12)


class TestCliqueCentreCollapse:
    """On a clique, GCN gives every vertex the same row, and so does GAT
    when every attention score s_i + t_j is positive: the centre's vertex
    embedding rho then equals the pooled graph embedding g.  SAGE keeps
    the centre apart through its own-feature half."""

    @staticmethod
    def cliques(arch, nonnegative=False):
        rng = np.random.default_rng({"gcn": 40, "gat": 41, "sage": 42}[arch])
        for seed in range(50):
            shape = (int(rng.integers(2, 7)), 8)
            x = rng.random(shape) if nonnegative else rng.standard_normal(shape)
            params = init_gnn(arch, 8, seed=seed)
            if nonnegative:
                for t in params.tensors.values():
                    t.data = np.abs(t.data)
            yield ad.constant(x), params

    def test_gcn_max_pool_centre_is_graph_bit_for_bit(self):
        for x, params in self.cliques("gcn"):
            emb = embed_graph(x, params, pool="max")
            assert np.array_equal(emb.center().data, emb.graph.data)

    def test_gcn_mean_pool_centre_is_graph(self):
        for x, params in self.cliques("gcn"):
            emb = embed_graph(x, params, pool="mean")
            np.testing.assert_allclose(emb.center().data, emb.graph.data,
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("pool", ["mean", "max"])
    def test_gat_positive_scores_centre_is_graph(self, pool):
        for x, params in self.cliques("gat", nonnegative=True):
            emb = embed_graph(x, params, pool=pool)
            np.testing.assert_allclose(emb.center().data, emb.graph.data,
                                       rtol=0, atol=1e-15)

    def test_sage_centre_stays_apart(self):
        for x, params in self.cliques("sage"):
            emb = embed_graph(x, params)
            assert np.max(np.abs(emb.center().data - emb.graph.data)) > 1e-3


class TestParams:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(n=6, architecture="gat", heads=4)

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(n=8, architecture="transformer")

    def test_init_deterministic_per_seed(self):
        a = init_gnn("gat", 8, seed=9)
        b = init_gnn("gat", 8, seed=9)
        c = init_gnn("gat", 8, seed=10)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k].data, b.tensors[k].data)
        assert any(not np.array_equal(a.tensors[k].data, c.tensors[k].data)
                   for k in a.tensors)

    def test_named_tensors_prefix(self):
        params = init_gnn("sage", 8, seed=0)
        assert set(params.named_tensors()) == {"gnn.layer1.w", "gnn.layer2.w"}

    def test_gat_named_tensors_are_per_head_views(self):
        # checkpoint entries: one per head, in layer, head, (w, al, ar)
        # order, each a view that writes into its layer's stack
        params = init_gnn("gat", 8, seed=0, heads=2)
        named = params.named_tensors()
        assert list(named) == ["gnn.layer%d.head%d.%s" % (layer, h, part)
                               for layer in (1, 2) for h in range(2)
                               for part in ("w", "al", "ar")]
        named["gnn.layer2.head1.w"].data[...] = 7.0
        named["gnn.layer1.head0.ar"].data[...] = -3.0
        w, a_right = (params.tensors[k].data
                      for k in ("layer2.w", "layer1.a_right"))
        assert np.all(w[:, 4:] == 7.0) and not np.any(w[:, :4] == 7.0)
        assert np.all(a_right[0] == -3.0) and not np.any(a_right[1] == -3.0)
