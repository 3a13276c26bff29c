"""Tests for the finite-support bound checks.

Oracles: longhand arithmetic for small models, grid searches for optimality
claims, and exact enumeration for the bounds themselves.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchgraph import infotheory as it


def _model(pm, pu, prior):
    return it.DiscretePairModel(np.asarray(pm), np.asarray(pu), prior)


# -- entropy / divergence / distance ---------------------------------------

def test_binary_entropy_values():
    assert it.binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert it.binary_entropy(0.0) == 0.0
    assert it.binary_entropy(1.0) == 0.0
    # -0.25 ln 0.25 - 0.75 ln 0.75, worked by hand
    assert it.binary_entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-12)
    with pytest.raises(ValueError):
        it.binary_entropy(1.5)


def test_kl_divergence_values():
    assert it.kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    # 0.5 ln 2 + 0.5 ln(2/3)
    hand = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert it.kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(hand, abs=1e-15)
    assert it.kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.1438410362258904, abs=1e-12)
    assert math.isinf(it.kl_divergence([0.5, 0.5], [1.0, 0.0]))


def test_kl_divergence_nonnegative_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        assert it.kl_divergence(p, q) >= 0.0


def test_tv_distance_values():
    assert it.tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert it.tv_distance([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25, abs=0)
    assert it.tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8),
       st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8))
def test_tv_distance_in_unit_interval(wa, wb):
    k = min(len(wa), len(wb))
    p = np.asarray(wa[:k]) / sum(wa[:k])
    q = np.asarray(wb[:k]) / sum(wb[:k])
    p = p / p.sum()
    q = q / q.sum()
    tv = it.tv_distance(p, q)
    assert 0.0 <= tv <= 1.0 + 1e-12


def test_distribution_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        it.kl_divergence([0.6, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError):
        it.tv_distance([-0.5, 1.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        _model([0.5, 0.5], [0.5, 0.5], 1.0)


# -- the expected log objective ---------------------------------------------

def test_objective_at_half_is_minus_ln2():
    m = _model([0.7, 0.3], [0.2, 0.8], 0.4)
    val = it.discrimination_objective(m, np.array([0.5, 0.5]))
    assert val == pytest.approx(-math.log(2.0), abs=1e-15)


def test_objective_hand_two_outcome_case():
    # prior 0.4, p_m=[0.7,0.3], p_u=[0.2,0.8], d=[0.6,0.3]; longhand:
    m = _model([0.7, 0.3], [0.2, 0.8], 0.4)
    hand = (0.4 * (0.7 * math.log(0.6) + 0.3 * math.log(0.3))
            + 0.6 * (0.2 * math.log(1.0 - 0.6) + 0.8 * math.log(1.0 - 0.3)))
    got = it.discrimination_objective(m, np.array([0.6, 0.3]))
    assert got == pytest.approx(hand, abs=1e-15)
    assert got == pytest.approx(-0.5686667720890799, abs=1e-12)


def test_objective_maximized_at_prior_when_distributions_equal():
    m = _model([0.3, 0.7], [0.3, 0.7], 0.35)
    grid = np.arange(0.01, 1.0, 0.01)
    vals = [it.discrimination_objective(m, np.full(2, d0)) for d0 in grid]
    best = grid[int(np.argmax(vals))]
    assert best == pytest.approx(0.35, abs=0.01)


def test_optimal_discriminator_closed_form():
    m = _model([0.7, 0.3], [0.2, 0.8], 0.4)
    d = it.optimal_discriminator(m)
    # 0.4*0.7 / (0.4*0.7 + 0.6*0.2) = 0.28/0.40 = 0.7
    assert d[0] == pytest.approx(0.7, abs=1e-15)
    assert d[1] == pytest.approx(0.12 / (0.12 + 0.48), abs=1e-15)


def test_optimal_discriminator_equal_distributions_is_prior():
    m = _model([0.25, 0.25, 0.5], [0.25, 0.25, 0.5], 0.61)
    np.testing.assert_allclose(it.optimal_discriminator(m), 0.61, atol=1e-15)


def test_optimal_discriminator_disjoint_supports():
    m = _model([0.5, 0.5, 0.0], [0.0, 0.0, 1.0], 0.5)
    d = it.optimal_discriminator(m)
    assert d[0] >= 1.0 - 1e-9 and d[1] >= 1.0 - 1e-9
    assert d[2] <= 1e-9
    assert ((d > 0.0) & (d < 1.0)).all()


def test_optimal_discriminator_warns_on_dead_outcome():
    m = _model([0.5, 0.5, 0.0], [0.5, 0.5, 0.0], 0.5)
    with pytest.warns(UserWarning):
        d = it.optimal_discriminator(m)
    assert d[2] == 0.5


def test_optimal_discriminator_beats_random_tables():
    rng = np.random.default_rng(17)
    m = it.random_pair_model(rng, support_size=5)
    d_star = it.optimal_discriminator(m)
    best = it.discrimination_objective(m, d_star)
    for _ in range(1000):
        d = rng.uniform(0.01, 0.99, size=5)
        assert it.discrimination_objective(m, d) <= best + 1e-12


def test_optimal_discriminator_is_local_maximum():
    rng = np.random.default_rng(23)
    m = it.random_pair_model(rng, support_size=5)
    d_star = it.optimal_discriminator(m)
    base = it.discrimination_objective(m, d_star)
    for _ in range(200):
        bump = rng.uniform(-1e-3, 1e-3, size=5)
        d = np.clip(d_star + bump, 1e-9, 1.0 - 1e-9)
        assert it.discrimination_objective(m, d) <= base + 1e-12


# -- KL lower bound ----------------------------------------------------------

def test_kl_bound_equality_when_distributions_equal():
    m = _model([0.3, 0.3, 0.4], [0.3, 0.3, 0.4], 0.45)
    rep = it.check_kl_lower_bound(m)
    assert rep["lhs_kl"] == 0.0
    assert rep["rhs_bound"] == pytest.approx(0.0, abs=1e-9)
    assert abs(rep["margin"]) <= 1e-9
    assert rep["pass"]


def test_kl_bound_on_random_models():
    rng = np.random.default_rng(101)
    margins = []
    for _ in range(100):
        rep = it.check_kl_lower_bound(it.random_pair_model(rng))
        assert rep["pass"], rep
        margins.append(rep["margin"])
    assert min(margins) >= -1e-9


def test_kl_bound_near_disjoint_supports_has_large_margin():
    m = _model([0.499, 0.499, 0.001, 0.001],
               [0.001, 0.001, 0.499, 0.499], 0.5)
    rep = it.check_kl_lower_bound(m)
    assert rep["pass"]
    assert rep["margin"] > 1.0


def test_kl_bound_infinite_kl_flagged_pass():
    m = _model([0.5, 0.5, 0.0], [0.0, 0.0, 1.0], 0.5)
    rep = it.check_kl_lower_bound(m)
    assert rep["infinite_kl"] and rep["pass"]


# -- perturbation scaling ----------------------------------------------------

def test_scaling_slopes_on_random_models():
    rng = np.random.default_rng(202)
    for _ in range(20):
        rep = it.perturbation_scaling(it.random_pair_model(rng))
        assert 0.9 <= rep["slope_generic"] <= 1.1, rep
        assert 1.8 <= rep["slope_optimal"] <= 2.2, rep
        assert rep["optimal_changes_nonpositive"]


def test_scaling_skips_exiting_grid_points():
    # at prior 0.5 the generic table is about 0.9, so its 1e-1 step leaves
    # (0, 1); the objective is undefined there, and the slope must come
    # from the other four steps
    m = _model([0.6, 0.4], [0.2, 0.8], 0.5)
    d0 = it._pick_generic_table(m, np.asarray(it.DEFAULT_EPS_GRID))
    assert d0 + max(it.DEFAULT_EPS_GRID) >= 1.0
    rep = it.perturbation_scaling(m)
    assert 0.9 <= rep["slope_generic"] <= 1.1


def test_scaling_rescales_grid_near_saturated_optimum():
    # optimal tables that reach 0.98 and 0.997, leaving almost no headroom
    # before 1; on the second, the two steps of the uncapped grid that stay
    # inside (0, 1) give a slope near 3, so it holds only because the grid
    # is capped near the optimum
    for m in (_model([0.98, 0.02], [0.02, 0.98], 0.5),
              _model([0.1, 0.9], [0.994, 0.006], 0.67)):
        rep = it.perturbation_scaling(m)
        assert 1.8 <= rep["slope_optimal"] <= 2.2


# -- TV lower bound ----------------------------------------------------------

def test_tv_bound_ideal_case_is_exactly_one():
    m = it.ideal_pair_model()
    rep = it.check_tv_lower_bound(m)
    assert rep["lhs_tv"] == 1.0
    assert rep["rhs_bound"] == 1.0
    assert rep["pass"]


def test_tv_bound_identical_mixtures_trivial():
    q = np.array([0.25, 0.25, 0.5])
    m = it.DiscretePairModel.from_corruption(
        0.5, m_match=0.5, m_unmatch=0.5,
        q_match_clean=q, q_match_corrupt=q,
        q_unmatch_clean=q, q_unmatch_corrupt=q)
    rep = it.check_tv_lower_bound(m)
    assert rep["lhs_tv"] == 0.0
    assert rep["rhs_bound"] <= 0.0
    assert rep["pass"]


def test_tv_bound_on_random_corrupted_models():
    rng = np.random.default_rng(303)
    for _ in range(100):
        m = it.random_pair_model(rng, corruption=True)
        rep = it.check_tv_lower_bound(m)
        assert rep["pass"], rep


def test_tv_bound_requires_corruption_fields():
    m = _model([0.5, 0.5], [0.4, 0.6], 0.5)
    with pytest.raises(ValueError):
        it.check_tv_lower_bound(m)


def test_corruption_rates_validated():
    q = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        it.DiscretePairModel.from_corruption(
            0.5, m_match=1.5, m_unmatch=0.0,
            q_match_clean=q, q_match_corrupt=q,
            q_unmatch_clean=q, q_unmatch_corrupt=q)


# -- aggregate report --------------------------------------------------------

def test_run_bound_checks_report_shape_and_determinism():
    rep1 = it.run_bound_checks(7, kl_models=10, scaling_models=3, tv_models=10)
    rep2 = it.run_bound_checks(7, kl_models=10, scaling_models=3, tv_models=10)
    assert rep1 == rep2
    assert rep1["kl_bound"]["all_pass"]
    assert rep1["tv_bound"]["all_pass"]
    assert rep1["tv_bound"]["ideal_tv_exactly_one"]
    assert len(rep1["perturbation_scaling"]["slopes_generic"]) == 3
    assert abs(rep1["kl_bound"]["equal_distributions_margin"]) <= 1e-9
