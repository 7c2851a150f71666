"""Closed-form even-weight engine against an mpmath oracle and the other routes.

The kappa -> 1 contact law at odd n: with s = sqrt(1 - kappa^2), the margin
I_n / n - C1 is r_n s^n (1 + O(s)), where n ln2 r_n = n C(n - 1, (n - 1)/2) /
2^(n - 1) - 1 (1/2, 7/8, 19/16, 187/128, 437/256 at n = 3, 5, 7, 9, 11).  The
tests hold the relative deviation to 2 s: the exact route at 1 - kappa = 1e-12
and 1e-20 up to n = 11, and the float engine at kappa = 0.99..0.999 up to
n = 9.  At n = 11, kappa = 0.999 the true margin (2.7e-16) is below the
engine's absolute error, which gets its sign wrong.
"""

import math

import numpy as np
import pytest

from srmchannel import binary_channel as bc
from srmchannel import codebook as cb
from srmchannel import sqrm
from srmchannel import sweep

from oracles import (
    average_error_probability,
    conditional_probabilities,
    even_weight_summary_mp,
    mutual_information,
    single_letter_mp,
)

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

KAPPAS = (0.001, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999)


@pytest.mark.parametrize("n", [3, 8, 13, 16, 20])
def test_even_weight_summary_matches_mpmath(n):
    for kappa in KAPPAS:
        info, pe = sqrm.even_weight_summary(n, kappa)
        with mpmath.workdps(50):
            ref_info, ref_pe = map(float, even_weight_summary_mp(n, kappa))
        assert abs(info - ref_info) < 1e-13, kappa
        assert abs(pe - ref_pe) < 1e-13, kappa


def test_margin_within_eight_eps_of_exact():
    # the bound superadditivity_margin's docstring states, measured, not derived:
    # the worst here is 5.7 eps (n = 20), and a one-ulp change of one Gram root,
    # of all of them or of one recurrence coefficient stays inside it (at most 6.5 eps)
    kappas = [k / 100 for k in range(1, 100)] + [0.995, 0.999, 0.9999]
    with mpmath.workdps(50):
        for n in range(2, cb.MAX_BLOCK_LENGTH + 1):
            exact = [even_weight_summary_mp(n, k)[0] / n - single_letter_mp(k)[1] for k in kappas]
            error = sweep.superadditivity_margin(n, np.array(kappas)) - np.array(exact, float)
            assert np.max(np.abs(error)) <= 8 * np.finfo(float).eps, n


@pytest.mark.parametrize("n", range(2, 17))
def test_even_weight_summary_matches_fast_path(n):
    book = cb.even_weight_codebook(n)
    for kappa in KAPPAS:
        info, _ = sqrm.even_weight_summary(n, kappa)
        fast_info, _ = sqrm.fast_srm_summary(book, kappa)
        assert abs(info - fast_info) < 1e-12, kappa


def test_even_weight_summary_block3_closed_form():
    for kappa in np.linspace(0.0, 1.0, 41):
        info, pe = sqrm.even_weight_summary(3, kappa)
        xd = 0.25 * (np.sqrt(1 + 3 * kappa**2) + 3 * np.sqrt(1 - kappa**2))
        assert abs(info - sqrm.i3_closed_form(kappa)) < 1e-10
        assert abs(pe - (1.0 - xd**2)) < 1e-10


@pytest.mark.parametrize("n", range(2, cb.MAX_BLOCK_LENGTH + 1))
def test_even_weight_summary_exact_at_both_ends(n):
    # noiseless distance-2 code at kappa = 0, identical codewords at kappa = 1
    info, pe = sqrm.even_weight_summary(n, [0.0, 1.0])
    assert (info[0], pe[0]) == (n - 1, 0.0)
    assert (info[1], pe[1]) == (0.0, 1.0 - 2.0 ** (1 - n))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), kappa=st.floats(min_value=0.0, max_value=0.999))
def test_three_routes_agree(n, kappa):
    book = cb.even_weight_codebook(n)
    x = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
    p = conditional_probabilities(x)
    dense = (mutual_information(p), average_error_probability(x))
    fast = sqrm.fast_srm_summary(book, kappa)
    closed = sqrm.even_weight_summary(n, kappa)
    assert np.allclose(dense, fast, rtol=0.0, atol=1e-10)
    assert np.allclose(dense, closed, rtol=0.0, atol=1e-10)
    assert closed[0] <= n * bc.holevo_limit(kappa) + 1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), kappa=st.floats(min_value=0.0, max_value=1.0))
def test_srm_channel_rows_sum_to_one(n, kappa):
    book = cb.even_weight_codebook(n)
    p = conditional_probabilities(sqrm.principal_sqrt(cb.gram_matrix(book, kappa)))
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), eps=st.floats(min_value=1e-12, max_value=1e-4))
def test_endpoint_branch_is_the_limit_of_the_closed_form(n, eps):
    # Near kappa = 1 the closed form approaches the endpoint like sqrt(1 - kappa).
    for endpoint, inside, atol in ((0.0, eps, eps), (1.0, 1.0 - eps, 2.0 * np.sqrt(eps))):
        exact = sqrm.even_weight_summary(n, endpoint)
        assert np.allclose(sqrm.even_weight_summary(n, inside), exact, rtol=0.0, atol=atol)


def _contact_rate(n, ln2):
    """r_n of the odd-n contact law, in the type of ``ln2``."""
    return (n * math.comb(n - 1, (n - 1) // 2) - 2 ** (n - 1)) / (2 ** (n - 1) * n * ln2)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_exact_margin_follows_the_odd_contact_law(n):
    with mpmath.workdps(120):
        for gap in ("1e-12", "1e-20"):
            kappa = 1 - mpmath.mpf(gap)
            s = mpmath.sqrt(1 - kappa**2)
            margin = even_weight_summary_mp(n, kappa)[0] / n - single_letter_mp(kappa)[1]
            assert abs(margin / (_contact_rate(n, mpmath.log(2)) * s**n) - 1) <= 2 * s, gap


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_float_margin_follows_the_odd_contact_law(n):
    kappa = np.array([0.99, 0.995, 0.999])
    s = np.sqrt(1.0 - kappa**2)
    margin = sweep.superadditivity_margin(n, kappa)
    assert np.all(np.abs(margin / (_contact_rate(n, math.log(2)) * s**n) - 1.0) <= 2.0 * s)
