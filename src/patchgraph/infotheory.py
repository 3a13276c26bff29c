"""Exact finite-support checks of the information bounds behind the scorer.

The matching model is trained to tell matched from unmatched pairs by their
embedding values.  For finite outcome spaces everything about that setup can
be enumerated exactly: the expected log objective of a discriminator table,
its optimizer, the KL lower bound tied to the objective, the first/second
order response to discriminator perturbations, and the total-variation lower
bound for graph-context corruption mixtures.  This module does that
enumeration with plain numpy; nothing here is stochastic except the model
generators, which are seeded.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

_SUM_TOL = 1e-12
_INTERIOR_EPS = 1e-12


def _check_distribution(name, p, k=None):
    p = np.asarray(p, dtype=np.float64)
    problems = []
    if p.ndim != 1 or p.size < 1:
        problems.append("%s must be a non-empty 1-d array" % name)
    else:
        if k is not None and p.size != k:
            problems.append("%s has %d outcomes, expected %d" % (name, p.size, k))
        if (p < 0).any():
            problems.append("%s has negative mass" % name)
        if abs(p.sum() - 1.0) > _SUM_TOL:
            problems.append("%s sums to %.17g, not 1" % (name, p.sum()))
    return p, problems


@dataclass
class DiscretePairModel:
    """Distributions of embedding outcomes for matched and unmatched pairs.

    ``p_matched`` and ``p_unmatched`` live on a shared finite outcome set.
    ``prior`` is the probability that a pair is matched.  The optional
    corruption fields describe the graph context: ``m_match`` is the chance
    the neighborhoods agree given a matched pair, ``m_unmatch`` the same
    given an unmatched pair, and the four ``q_*`` arrays are the outcome
    distributions conditioned on (pair, graph-context) combinations.
    """

    p_matched: np.ndarray
    p_unmatched: np.ndarray
    prior: float
    m_match: float = None
    m_unmatch: float = None
    q_match_clean: np.ndarray = None      # pair matched, graphs agree
    q_match_corrupt: np.ndarray = None    # pair matched, graphs disagree
    q_unmatch_clean: np.ndarray = None    # pair unmatched, graphs agree
    q_unmatch_corrupt: np.ndarray = None  # pair unmatched, graphs disagree

    def __post_init__(self):
        problems = []
        self.p_matched, probs = _check_distribution("p_matched", self.p_matched)
        problems += probs
        k = self.p_matched.size
        self.p_unmatched, probs = _check_distribution("p_unmatched", self.p_unmatched, k)
        problems += probs
        if not (0.0 < self.prior < 1.0):
            problems.append("prior must be strictly inside (0, 1)")
        if self.has_corruption:
            for name, r in (("m_match", self.m_match),
                            ("m_unmatch", self.m_unmatch)):
                if r is None:
                    problems.append("%s missing" % name)
                elif not (0.0 <= r <= 1.0):
                    problems.append("%s outside [0, 1]" % name)
            for name in ("q_match_clean", "q_match_corrupt",
                         "q_unmatch_clean", "q_unmatch_corrupt"):
                val = getattr(self, name)
                if val is None:
                    problems.append("%s missing" % name)
                else:
                    arr, probs = _check_distribution(name, val, k)
                    setattr(self, name, arr)
                    problems += probs
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def has_corruption(self):
        return self.m_match is not None or self.m_unmatch is not None

    @classmethod
    def from_corruption(cls, prior, m_match, m_unmatch, q_match_clean,
                        q_match_corrupt, q_unmatch_clean, q_unmatch_corrupt):
        """Build the pair-conditional distributions as corruption mixtures."""
        q_mc = np.asarray(q_match_clean, dtype=np.float64)
        q_mx = np.asarray(q_match_corrupt, dtype=np.float64)
        q_uc = np.asarray(q_unmatch_clean, dtype=np.float64)
        q_ux = np.asarray(q_unmatch_corrupt, dtype=np.float64)
        p_m = m_match * q_mc + (1.0 - m_match) * q_mx
        p_u = m_unmatch * q_uc + (1.0 - m_unmatch) * q_ux
        return cls(p_m, p_u, prior, m_match=m_match, m_unmatch=m_unmatch,
                   q_match_clean=q_mc, q_match_corrupt=q_mx,
                   q_unmatch_clean=q_uc, q_unmatch_corrupt=q_ux)


def binary_entropy(p):
    """H(p) = -p ln p - (1-p) ln(1-p), nats, with 0 ln 0 = 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("binary_entropy: p outside [0, 1]")
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log(1.0 - p)
    return out


def kl_divergence(p, q):
    """Sum of p ln(p/q); +inf when q vanishes somewhere p does not."""
    p, prob_p = _check_distribution("p", p)
    q, prob_q = _check_distribution("q", q, p.size)
    if prob_p or prob_q:
        raise ValueError("; ".join(prob_p + prob_q))
    support = p > 0.0
    if (q[support] == 0.0).any():
        return float("inf")
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


def tv_distance(p, q):
    """Total variation distance, computed two ways and cross-checked.

    Half the L1 distance must equal the excess mass on {a : p(a) >= q(a)};
    the two disagree only if the inputs are not actual distributions.
    """
    p, prob_p = _check_distribution("p", p)
    q, prob_q = _check_distribution("q", q, p.size)
    if prob_p or prob_q:
        raise ValueError("; ".join(prob_p + prob_q))
    half_l1 = 0.5 * float(np.abs(p - q).sum())
    upper_set = p >= q
    excess = float((p[upper_set] - q[upper_set]).sum())
    if abs(half_l1 - excess) > 1e-12:
        raise ValueError("tv_distance internal mismatch: %.17g vs %.17g"
                         % (half_l1, excess))
    return half_l1


def discrimination_objective(model, d):
    """Expected log objective of a discriminator table ``d``.

    prior * sum(p_matched ln d) + (1 - prior) * sum(p_unmatched ln(1 - d)).
    Outcomes with zero mass contribute zero regardless of ``d`` there.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != model.p_matched.shape:
        raise ValueError("discriminator table shape mismatch")
    if not ((d > 0.0) & (d < 1.0)).all():
        raise ValueError("discriminator values must be strictly inside (0, 1)")
    pm, pu = model.p_matched, model.p_unmatched
    pos = np.where(pm > 0.0, pm * np.log(d), 0.0).sum()
    neg = np.where(pu > 0.0, pu * np.log1p(-d), 0.0).sum()
    return float(model.prior * pos + (1.0 - model.prior) * neg)


def optimal_discriminator(model):
    """The objective-maximizing table prior*p_m / (prior*p_m + (1-prior)*p_u).

    Outcomes with zero marginal mass get the neutral value 0.5 and a warning;
    the result is clamped to [eps, 1-eps] so logs stay finite.
    """
    pm, pu, prior = model.p_matched, model.p_unmatched, model.prior
    marginal = prior * pm + (1.0 - prior) * pu
    dead = marginal == 0.0
    if dead.any():
        warnings.warn("optimal_discriminator: %d outcome(s) carry zero "
                      "marginal mass and are excluded" % int(dead.sum()))
    d = np.full(pm.shape, 0.5)
    live = ~dead
    d[live] = prior * pm[live] / marginal[live]
    return np.clip(d, _INTERIOR_EPS, 1.0 - _INTERIOR_EPS)


def check_kl_lower_bound(model):
    """KL(p_matched || p_unmatched) against its objective-based lower bound.

    Returns a report dict; ``margin`` is lhs - rhs and must be >= -1e-9.
    An infinite KL passes automatically and is flagged.
    """
    prior = model.prior
    lhs = kl_divergence(model.p_matched, model.p_unmatched)
    d_star = optimal_discriminator(model)
    rhs = (discrimination_objective(model, d_star) + binary_entropy(prior)) / prior
    infinite = math.isinf(lhs)
    margin = float("inf") if infinite else lhs - rhs
    return {
        "lhs_kl": lhs,
        "rhs_bound": rhs,
        "margin": margin,
        "pass": bool(infinite or margin >= -1e-9),
        "infinite_kl": infinite,
    }


def _loglog_slope(eps, deltas):
    eps = np.asarray(eps, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    keep = deltas > 0.0
    if keep.sum() < 2:
        raise ValueError("not enough usable grid points for a slope")
    slope = np.polyfit(np.log(eps[keep]), np.log(deltas[keep]), 1)[0]
    return float(slope)


DEFAULT_EPS_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def _pick_generic_table(model, eps_grid):
    """Choose a constant non-optimal table whose objective responds linearly
    over the given grid.

    For a constant table the objective change under a constant shift has the
    closed form prior*ln((d0+e)/d0) + (1-prior)*ln((1-d0-e)/(1-d0)), so the
    expected log-log slope can be evaluated directly and the d0 closest to
    slope 1 picked.  d0 near the prior is excluded: there the linear term
    degenerates.
    """
    prior = model.prior
    best_d0, best_gap = None, None
    for d0 in np.arange(0.05, 0.951, 0.01):
        if abs(d0 - prior) < 0.05:
            continue
        eps = [e for e in eps_grid if 0.0 < d0 + e < 1.0]
        if len(eps) < 3:
            continue
        deltas = [abs(prior * math.log((d0 + e) / d0)
                      + (1.0 - prior) * math.log((1.0 - d0 - e) / (1.0 - d0)))
                  for e in eps]
        try:
            slope = _loglog_slope(eps, deltas)
        except ValueError:
            continue
        gap = abs(slope - 1.0)
        if best_gap is None or gap < best_gap:
            best_d0, best_gap = d0, gap
    if best_d0 is None:
        raise ValueError("no usable generic table for this grid")
    return float(best_d0)


def perturbation_scaling(model):
    """Measure how the objective responds to constant shifts of a table.

    At a generic interior table the change is first order in the shift; at
    the optimal table the linear term vanishes and the change is second
    order with a negative coefficient.  Returns the two log-log regression
    slopes and whether every shift of the optimal table lowered the
    objective.
    """
    grid = np.asarray(DEFAULT_EPS_GRID)

    def changes(table, shifts):
        """(shifts kept, objective changes) over the shifts that keep the
        table inside (0, 1)."""
        base = discrimination_objective(model, table)
        kept = [e for e in shifts
                if ((table + e > 0.0) & (table + e < 1.0)).all()]
        return kept, [discrimination_objective(model, table + e) - base
                      for e in kept]

    d_gen = np.full(model.p_matched.size, _pick_generic_table(model, grid))
    eps_g, change_g = changes(d_gen, grid)

    # At the optimum the quadratic term must dominate the cubic one over the
    # whole grid, or the regression slope drifts off 2.  Both Taylor
    # coefficients are exactly computable, so cap the largest perturbation
    # where the cubic correction stays under 15% and rescale the grid to it.
    d_star = optimal_discriminator(model)
    pm, pu, prior = model.p_matched, model.p_unmatched, model.prior
    quad = float((prior * pm / d_star ** 2
                  + (1.0 - prior) * pu / (1.0 - d_star) ** 2).sum())
    cubic = float((prior * pm / d_star ** 3
                   - (1.0 - prior) * pu / (1.0 - d_star) ** 3).sum())
    headroom = 1.0 - d_star.max()
    cap = min(float(grid.max()), 0.5 * headroom,
              0.225 * quad / max(abs(cubic), 1e-300))
    eps_o, change_o = changes(d_star, grid * (cap / grid.max()))
    return {
        "slope_generic": _loglog_slope(eps_g, np.abs(change_g)),
        "slope_optimal": _loglog_slope(eps_o, np.abs(change_o)),
        "optimal_changes_nonpositive": bool(all(c <= 0.0 for c in change_o)),
    }


def check_tv_lower_bound(model):
    """Total variation between the corruption mixtures against its bound.

    The bound is m_match * sum over {a : p_matched(a) >= p_unmatched(a)} of
    (q_match_clean - q_unmatch_corrupt) + m_match - m_unmatch - 1.
    """
    if not model.has_corruption:
        raise ValueError("model carries no corruption structure")
    pm, pu = model.p_matched, model.p_unmatched
    lhs = tv_distance(pm, pu)
    upper_set = pm >= pu
    core = float((model.q_match_clean[upper_set]
                  - model.q_unmatch_corrupt[upper_set]).sum())
    rhs = model.m_match * core + model.m_match - model.m_unmatch - 1.0
    return {
        "lhs_tv": lhs,
        "rhs_bound": rhs,
        "margin": lhs - rhs,
        "pass": bool(lhs >= rhs - 1e-9),
    }


# -- model generators ------------------------------------------------------

def _dyadic_masses(k):
    """k masses 1/2, 1/4, ..., 1/2^(k-1), 1/2^(k-1): sums to exactly 1.0."""
    masses = [2.0 ** -(i + 1) for i in range(k - 1)]
    masses.append(2.0 ** -(k - 1))
    return np.asarray(masses)


def random_pair_model(rng, support_size=None, corruption=False):
    """A seeded random model: flat-Dirichlet outcome distributions on a
    support of 2..10 outcomes, prior uniform in (0.2, 0.8)."""
    k = int(support_size) if support_size else int(rng.integers(2, 11))
    prior = float(rng.uniform(0.2, 0.8))
    if not corruption:
        return DiscretePairModel(rng.dirichlet(np.ones(k)),
                                 rng.dirichlet(np.ones(k)), prior)
    return DiscretePairModel.from_corruption(
        prior,
        m_match=float(rng.uniform(0.0, 1.0)),
        m_unmatch=float(rng.uniform(0.0, 1.0)),
        q_match_clean=rng.dirichlet(np.ones(k)),
        q_match_corrupt=rng.dirichlet(np.ones(k)),
        q_unmatch_clean=rng.dirichlet(np.ones(k)),
        q_unmatch_corrupt=rng.dirichlet(np.ones(k)),
    )


def ideal_pair_model():
    """Noiseless graph context with disjoint clean supports: six outcomes,
    matched pairs on the first three and unmatched pairs on the last
    three, prior 0.5.

    Masses are dyadic so every sum in the total-variation computation is
    exact in binary floating point: the TV must come out as exactly 1.0.
    """
    q_mc = np.zeros(6)
    q_mc[:3] = _dyadic_masses(3)
    q_ux = np.zeros(6)
    q_ux[3:] = _dyadic_masses(3)
    filler = np.full(6, 1.0 / 6)
    filler = filler / filler.sum()
    return DiscretePairModel.from_corruption(
        0.5, m_match=1.0, m_unmatch=0.0,
        q_match_clean=q_mc, q_match_corrupt=filler,
        q_unmatch_clean=filler, q_unmatch_corrupt=q_ux,
    )


# -- aggregate report (used by the command line and the acceptance suite) --

def run_bound_checks(seed, kl_models=100, scaling_models=20, tv_models=100):
    """Run every bound check over seeded random models; returns a JSON-ready
    report with per-check margins/slopes and overall pass flags."""
    rng = np.random.default_rng(seed)

    kl_reports = [check_kl_lower_bound(random_pair_model(rng))
                  for _ in range(kl_models)]
    scaling_reports = [perturbation_scaling(random_pair_model(rng))
                       for _ in range(scaling_models)]
    tv_reports = [check_tv_lower_bound(random_pair_model(rng, corruption=True))
                  for _ in range(tv_models)]

    ideal = ideal_pair_model()
    ideal_report = check_tv_lower_bound(ideal)
    ideal_report["tv_exactly_one"] = ideal_report["lhs_tv"] == 1.0

    degenerate = DiscretePairModel(np.array([0.25, 0.75]),
                                   np.array([0.25, 0.75]), 0.5)
    equal_case = check_kl_lower_bound(degenerate)

    return {
        "seed": seed,
        "kl_bound": {
            "models": kl_models,
            "min_margin": min(r["margin"] for r in kl_reports),
            "all_pass": all(r["pass"] for r in kl_reports),
            "equal_distributions_margin": equal_case["margin"],
        },
        "perturbation_scaling": {
            "models": scaling_models,
            "slopes_generic": [r["slope_generic"] for r in scaling_reports],
            "slopes_optimal": [r["slope_optimal"] for r in scaling_reports],
            "all_second_order_nonpositive": all(
                r["optimal_changes_nonpositive"] for r in scaling_reports),
        },
        "tv_bound": {
            "models": tv_models,
            "min_margin": min(r["margin"] for r in tv_reports),
            "all_pass": all(r["pass"] for r in tv_reports),
            "ideal_tv": ideal_report["lhs_tv"],
            "ideal_tv_exactly_one": ideal_report["tv_exactly_one"],
            "ideal_rhs": ideal_report["rhs_bound"],
        },
    }
