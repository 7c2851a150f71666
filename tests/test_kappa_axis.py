"""Overlap as an array axis: a batch call equals its element-by-element
scalar calls bit for bit, and a scalar overlap returns a float."""

import numpy as np
import pytest

from srmchannel import binary_channel as bc
from srmchannel import sqrm, sweep
from srmchannel.exceptions import ConsistencyError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Overlap arrays that always hold both endpoints, in any order.
_KAPPAS = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12).flatmap(
    lambda inner: st.permutations([0.0, 1.0, *inner])
)


def _assert_per_element(batch, scalars):
    for value in scalars:
        assert type(value) is np.float64
    assert batch.shape == (len(scalars),)
    assert batch.tobytes() == np.array(scalars).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=20), kappas=_KAPPAS)
def test_block_quantities_batch_equal_scalar_calls(n, kappas):
    kappa = np.array(kappas)
    info, pe = sqrm.even_weight_summary(n, kappa)
    pairs = [sqrm.even_weight_summary(n, k) for k in kappas]
    _assert_per_element(info, [i for i, _ in pairs])
    _assert_per_element(pe, [p for _, p in pairs])
    margin = sweep.superadditivity_margin(n, kappa)
    _assert_per_element(margin, [sweep.superadditivity_margin(n, k) for k in kappas])
    # The endpoints are exact; inside, the block summary is the engine's and
    # the margin is its information per letter minus C1.
    block = zip(*sweep._block_summary(n, kappa))
    for k, m, summary, engine in zip(kappas, margin, block, pairs):
        if k == 0.0:
            assert summary == (n - 1, 0.0) and m == (n - 1) / n - 1.0
        elif k == 1.0:
            assert summary == (0.0, 1.0 - 2.0 ** (1 - n)) and m == 0.0
        else:
            assert summary == engine and m == engine[0] / n - bc.capacity_c1(k)


@settings(max_examples=60, deadline=None)
@given(kappas=_KAPPAS)
def test_letter_quantities_batch_equal_scalar_calls(kappas):
    kappa = np.array(kappas)
    for fn in (bc.capacity_c1, bc.crossover_probability, bc._binary_entropy, bc.holevo_limit):
        _assert_per_element(fn(kappa), [fn(k) for k in kappas])
    for k, c1, h in zip(kappas, bc.capacity_c1(kappa), bc._binary_entropy(kappa)):
        assert c1 == (0.0 if k == 1.0 else 1.0 - bc._binary_entropy(bc.crossover_probability(k)))
        assert (h == 0.0) == (k in (0.0, 1.0))


def test_leading_axes_keep_their_shape():
    kappa = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    info, pe = sqrm.even_weight_summary(7, kappa)
    flat_info, flat_pe = sqrm.even_weight_summary(7, kappa.ravel())
    assert info.shape == pe.shape == (3, 4)
    assert np.array_equal(info.ravel(), flat_info)
    assert np.array_equal(pe.ravel(), flat_pe)
    assert sweep.superadditivity_margin(7, kappa).shape == (3, 4)


def test_normalization_check_names_the_first_bad_channel():
    q = np.array([[0.5, 0.5], [0.5, 0.25], [0.25, 0.25]])
    with pytest.raises(ConsistencyError, match="sum to 0.75"):
        sqrm._symmetric_summary(q, np.ones(2))
