"""Generator functions, the h transform, and exact divergence values.

The h(u) = f(u) - f'(u) u identity is checked against complex-step
derivatives of independently written generator formulas, which reach
machine precision where central differences on f would not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firl.density_ratio import exact_ratio
from firl.divergence import (KINDS, RATIO_CLIP_HI, RATIO_CLIP_LO,
                             ExpertDensity, density_values, divergence_exact,
                             h_f)

# generator formulas rewritten for complex arguments, kept local so the
# consistency check shares no code with the module under test
_COMPLEX_F = {
    "fkl": lambda u: u * np.log(u),
    "rkl": lambda u: -np.log(u),
    "js": lambda u: u * np.log(u) - (1.0 + u) * np.log((1.0 + u) / 2.0),
}


def _complex_step_prime(kind, u, h=1e-20):
    return np.imag(_COMPLEX_F[kind](u + 1j * h)) / h


@pytest.mark.parametrize("kind", KINDS)
def test_h_matches_f_minus_fprime_u(kind):
    u = np.array([1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3, 1e6])
    fp = np.array([_complex_step_prime(kind, ui) for ui in u])
    want = _COMPLEX_F[kind](u.astype(complex)).real - fp * u
    got = h_f(kind, u)
    if kind == "js":
        # the implementation drops the additive ln 2
        want = want - np.log(2.0)
    assert np.max(np.abs(got - want)) < 1e-8


def test_h_spot_values_at_inverse_e():
    u = 1.0 / np.e
    assert h_f("fkl", u) == pytest.approx(-1.0 / np.e, abs=1e-15)
    assert h_f("rkl", u) == pytest.approx(2.0, abs=1e-15)
    assert h_f("js", u) == pytest.approx(-np.log(1.0 + 1.0 / np.e), abs=1e-15)


@pytest.mark.parametrize("kind", KINDS)
def test_h_is_strictly_decreasing(kind):
    u = np.geomspace(1e-6, 1e6, 200)
    h = h_f(kind, u)
    assert np.all(np.diff(h) < 0)


def test_h_handles_zero_ratio_without_clipping():
    assert h_f("fkl", 0.0) == 0.0
    assert h_f("js", 0.0) == 0.0
    assert h_f("rkl", 0.0) == np.inf


def test_h_clip_bounds_the_argument():
    # the ratio producers clip before h sees the table
    lo = h_f("rkl", exact_ratio([0.0, 1.0], [0.5, 0.5])[0])
    assert lo == pytest.approx(1.0 - np.log(RATIO_CLIP_LO))
    hi = h_f("fkl", exact_ratio([1.0, 0.0], [0.0, 1.0])[0])
    assert hi == -RATIO_CLIP_HI


def test_h_rejects_negative_ratios():
    with pytest.raises(ValueError, match="nonnegative"):
        h_f("fkl", np.array([0.5, -0.1]))


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown divergence kind"):
        h_f("hellinger", 1.0)
    with pytest.raises(ValueError, match="unknown divergence kind"):
        divergence_exact("tv", [0.5, 0.5], [0.5, 0.5])


def test_forward_kl_worked_value():
    val = divergence_exact("fkl", [0.5, 0.5], [0.25, 0.75])
    assert val == pytest.approx(0.5 * np.log(4.0 / 3.0), abs=1e-12)
    assert val == pytest.approx(0.143841, abs=1e-6)


def test_forward_kl_infinite_off_support():
    assert divergence_exact("fkl", [0.5, 0.5], [1.0, 0.0]) == np.inf
    assert divergence_exact("rkl", [1.0, 0.0], [0.5, 0.5]) == np.inf


def test_js_bounded_by_two_log_two():
    # disjoint supports reach the bound exactly
    val = divergence_exact("js", [1.0, 0.0], [0.0, 1.0])
    assert val == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_forward_kl_is_exact_where_the_second_density_is_tiny():
    q = [1.0 - 1e-15, 1e-15]
    want = 0.5 * np.log(0.5 / q[0]) + 0.5 * np.log(0.5 / q[1])
    assert divergence_exact("fkl", [0.5, 0.5], q) == pytest.approx(want, rel=1e-12)


def test_js_symmetric():
    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.1, 0.3, 0.6])
    assert divergence_exact("js", p, q) == pytest.approx(
        divergence_exact("js", q, p), abs=1e-12)


def test_divergence_requires_normalized_arguments():
    with pytest.raises(ValueError, match="normalized"):
        divergence_exact("fkl", [0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="normalized"):
        divergence_exact("fkl", [0.5, 0.5], [0.5, 0.6])


def test_expert_density_validation():
    with pytest.raises(ValueError, match="finite"):
        ExpertDensity([0.5, np.nan])
    with pytest.raises(ValueError, match="sums to"):
        ExpertDensity([0.5, 0.6])
    energy = ExpertDensity([2.0, 3.0], normalized=False)
    assert len(energy) == 2
    with pytest.raises(ValueError, match="normalized expert density"):
        density_values(energy, require_normalized=True)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
       st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
       st.sampled_from(KINDS))
def test_divergence_nonnegative_and_zero_on_self(raw_p, raw_q, kind):
    n = min(len(raw_p), len(raw_q))
    p = np.asarray(raw_p[:n]) / np.sum(raw_p[:n])
    q = np.asarray(raw_q[:n]) / np.sum(raw_q[:n])
    d = divergence_exact(kind, p, q)
    assert d >= -1e-12
    if kind == "js":
        assert d <= 2.0 * np.log(2.0) + 1e-12
    assert divergence_exact(kind, p, p) == pytest.approx(0.0, abs=1e-12)
