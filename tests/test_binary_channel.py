import numpy as np
import pytest

from oracles import holevo_limit_dense, mutual_information, optimal_measurement
from srmchannel import binary_channel as bc
from srmchannel.exceptions import DomainError

# Frozen reference values, evaluated in 40-digit arithmetic from the closed
# forms p = (1 - sqrt(1 - k^2))/2, C1 = 1 - H(p), H((1 +/- k)/2).
C1_08 = 0.27807190511263763
HOLEVO_08 = 0.4689955935892812


def test_letter_states_embedding():
    plus, minus = bc.letter_states(0.8)
    assert np.allclose(plus, [1.0, 0.0])
    assert np.allclose(minus, [0.8, 0.6])
    assert plus @ minus == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("kappa,expected", [(0.0, [0.0, 1.0]), (1.0, [1.0, 0.0])])
def test_letter_states_endpoints(kappa, expected):
    plus, minus = bc.letter_states(kappa)
    assert np.allclose(plus, [1.0, 0.0])
    assert np.allclose(minus, expected)


def test_negative_zero_overlap_is_zero():
    _, minus = bc.letter_states(-0.0)
    assert not np.signbit(minus[0])
    assert not np.signbit(bc._check_kappa(np.array([-0.0, 0.5]))).any()


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
def test_kappa_domain(bad):
    with pytest.raises(DomainError):
        bc.letter_states(bad)
    with pytest.raises(DomainError):
        bc.capacity_c1(bad)


@pytest.mark.parametrize(
    "kappa,expected", [(0.0, 0.0), (1.0, 0.5), (0.8, 0.2), (0.6, 0.1)]
)
def test_crossover_probability(kappa, expected):
    assert bc.crossover_probability(kappa) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "kappa,expected", [(0.0, 1.0), (1.0, 0.0), (0.8, C1_08)]
)
def test_capacity_c1(kappa, expected):
    assert bc.capacity_c1(kappa) == pytest.approx(expected, abs=1e-12)


def test_capacity_monotone_nonincreasing():
    grid = np.linspace(0.0, 1.0, 201)
    values = [bc.capacity_c1(k) for k in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_optimal_measurement_orthonormal():
    for kappa in np.linspace(0.0, 0.99, 34):
        w1, w2 = optimal_measurement(kappa)
        assert abs(w1 @ w1 - 1.0) < 1e-12
        assert abs(w2 @ w2 - 1.0) < 1e-12
        assert abs(w1 @ w2) < 1e-12
        resolution = np.outer(w1, w1) + np.outer(w2, w2)
        assert np.max(np.abs(resolution - np.eye(2))) < 1e-12


def test_optimal_measurement_kappa0():
    w1, w2 = optimal_measurement(0.0)
    assert np.allclose(np.abs(w1), [1.0, 0.0])
    assert np.allclose(np.abs(w2), [0.0, 1.0])


def test_optimal_measurement_induces_bsc():
    kappa = 0.6
    plus, minus = bc.letter_states(kappa)
    w1, w2 = optimal_measurement(kappa)
    assert (w1 @ plus) ** 2 == pytest.approx(0.9, abs=1e-12)
    assert (w2 @ plus) ** 2 == pytest.approx(0.1, abs=1e-12)
    assert (w1 @ minus) ** 2 == pytest.approx(0.1, abs=1e-12)
    assert (w2 @ minus) ** 2 == pytest.approx(0.9, abs=1e-12)


def test_optimal_measurement_degenerate():
    with pytest.raises(DomainError, match="identical letter states"):
        optimal_measurement(1.0)


def test_capacity_equals_induced_mutual_information():
    # C1 from the closed form must match Eq-style mutual information of the
    # measured channel with equiprobable inputs.
    for kappa in np.linspace(0.0, 0.99, 100):
        plus, minus = bc.letter_states(kappa)
        w1, w2 = optimal_measurement(kappa)
        p = np.array(
            [
                [(w1 @ plus) ** 2, (w2 @ plus) ** 2],
                [(w1 @ minus) ** 2, (w2 @ minus) ** 2],
            ]
        )
        info = mutual_information(p)
        assert info == pytest.approx(bc.capacity_c1(kappa), abs=1e-10)


@pytest.mark.parametrize("kappa,expected", [(0.0, 1.0), (1.0, 0.0), (0.8, HOLEVO_08)])
def test_holevo_limit(kappa, expected):
    assert bc.holevo_limit(kappa) == pytest.approx(expected, abs=1e-12)


def test_holevo_closed_form_matches_density_matrix():
    grid = np.linspace(0.0, 1.0, 101)
    closed = bc.holevo_limit(grid)
    dense = np.array([holevo_limit_dense(k) for k in grid])
    assert np.max(np.abs(closed - dense)) <= 1e-15


def test_capacity_below_holevo():
    for kappa in np.linspace(0.0, 0.999, 200):
        c1 = bc.capacity_c1(kappa)
        bound = bc.holevo_limit(kappa)
        assert c1 <= bound + 1e-12
        if 0.01 < kappa < 0.999:
            assert c1 < bound


def test_domain_error_names_first_bad_value():
    with pytest.raises(DomainError, match="got 1.5"):
        bc.capacity_c1([0.2, 1.5, -1.0])
    with pytest.raises(DomainError, match="got nan"):
        bc.holevo_limit(np.array([0.5, np.nan]))
    with pytest.raises(DomainError, match="probability"):
        bc.binary_entropy([0.5, -0.25])
