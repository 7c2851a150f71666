"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from srmchannel import binary_channel as bc
from srmchannel import cavityqed as cq
from srmchannel import codebook as cb
from srmchannel import sqrm, sweep, synthesis as syn

from oracles import (
    average_error_probability,
    conditional_probabilities,
    decoder_network,
    encoder_rotation,
    holevo_condition_check,
    mutual_information,
    product_decoding_information,
)


def _report(number, label, ok):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_threshold_reproduction():
    start = time.perf_counter()
    result = sweep.threshold_kappa(3, 1e-4)
    elapsed = time.perf_counter() - start
    ok = (
        result.kappa_star is not None
        and 0.73 <= result.kappa_star <= 0.75
        and elapsed < 1.0
    )
    _report(1, f"threshold(3) = {result.kappa_star:.5f} in [0.73, 0.75], {elapsed:.2f} s", ok)


def test_criterion_02_margin_curve_block3():
    positive = all(sweep.superadditivity_margin(3, k) > 0 for k in (0.75, 0.8, 0.85, 0.9, 0.95))
    negative = all(sweep.superadditivity_margin(3, k) < 0 for k in (0.3, 0.5, 0.7))
    spot_08 = abs(sweep.superadditivity_margin(3, 0.8) - 0.00717) <= 2e-4
    spot_09 = abs(sweep.superadditivity_margin(3, 0.9) - 0.00794) <= 2e-4
    _report(2, "margin(3, k) signs and spot values", positive and negative and spot_08 and spot_09)


def test_criterion_03_error_probability_degradation():
    rows = sweep.sweep_table([3], np.arange(0.75, 0.99 + 1e-12, 0.01))
    ok = all(row.pe_block > row.p_single for row in rows)
    _report(3, "block P_e exceeds single-letter p on [0.75, 0.99]", ok)


def test_criterion_04_alternative_codebook_and_block2():
    grid = np.linspace(0.01, 0.99, 99)
    alt_negative = all(
        sweep.superadditivity_margin(3, float(k), codebook_choice="alt") < 0 for k in grid
    )
    block2 = all(sweep.superadditivity_margin(2, float(k)) <= 0 for k in grid)
    _report(4, "alternative codebook and n=2 never superadditive", alt_negative and block2)


def test_criterion_05_large_block_thresholds():
    stars = [sweep.threshold_kappa(n, 1e-4).kappa_star for n in (5, 7, 9, 11, 13)]
    decreasing = all(s is not None for s in stars) and all(
        a > b for a, b in zip(stars, stars[1:])
    )
    start = time.perf_counter()
    sweep.sweep_table([13], np.linspace(0.0, 1.0, 101))
    elapsed = time.perf_counter() - start
    _report(
        5,
        f"thresholds n=5..13 strictly decreasing, n=13 sweep {elapsed:.2f} s < 60 s",
        decreasing and elapsed < 60.0,
    )


def test_criterion_06_closed_form_consistency():
    book3 = cb.even_weight_codebook(3)
    worst_entry = worst_info = 0.0
    for kappa in np.linspace(0.0, 1.0, 101):
        x = sqrm.principal_sqrt(cb.gram_matrix(book3, kappa))
        xd = 0.25 * (np.sqrt(1 + 3 * kappa**2) + 3 * np.sqrt(1 - kappa**2))
        xo = 0.25 * (np.sqrt(1 + 3 * kappa**2) - np.sqrt(1 - kappa**2))
        worst_entry = max(worst_entry, abs(x[0, 0] - xd), abs(x[0, 1] - xo))
        info = mutual_information(conditional_probabilities(x))
        worst_info = max(worst_info, abs(info - sqrm.i3_closed_form(kappa)))
    worst_fast = 0.0
    for n in range(2, 9):
        book = cb.even_weight_codebook(n)
        for kappa in (0.3, 0.8, 0.95):
            x = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
            _, row = sqrm.xor_fast_path(book, kappa)
            worst_fast = max(worst_fast, float(np.max(np.abs(row - x[0]))))
    ok = worst_entry < 1e-12 and worst_info < 1e-10 and worst_fast < 1e-10
    _report(
        6,
        f"closed forms: entries {worst_entry:.1e}, info {worst_info:.1e}, fast path {worst_fast:.1e}",
        ok,
    )


def test_criterion_07_holevo_optimality():
    book3 = cb.even_weight_codebook(3)
    results = [holevo_condition_check(book3, k) for k in (0.3, 0.5, 0.8, 0.95)]
    ok = all(r["satisfied"] and r["min_eigenvalue"] >= -1e-9 for r in results)
    _report(7, "SRM satisfies the optimality condition at four overlaps", ok)


def test_criterion_08_additivity_witness():
    worst = max(
        abs(product_decoding_information(n, kappa) - n * bc.capacity_c1(kappa))
        for n in (2, 3, 4)
        for kappa in (0.3, 0.5, 0.8)
    )
    _report(8, f"product decoding additive to {worst:.1e}", worst < 1e-9)


def test_criterion_09_decoder_synthesis():
    book3 = cb.even_weight_codebook(3)
    ok = True
    for kappa in (0.5, 0.8):
        v, d, factors, gates = decoder_network(book3, kappa)
        x = sqrm.principal_sqrt(cb.gram_matrix(book3, kappa))
        ok &= np.max(np.abs(v.T @ v - np.eye(8))) < 1e-10
        amps = np.diag(v[:4] @ cb.codeword_states(3, book3.words, kappa))
        ok &= np.max(np.abs(amps**2 - np.diag(x) ** 2)) < 1e-10
        ok &= abs(1.0 - np.mean(amps**2) - average_error_probability(x)) < 1e-10
        ok &= np.max(np.abs(syn.recompose(d, factors) - v)) < 1e-10
        ok &= np.max(np.abs(syn.simulate_network(gates, 3) - v)) < 1e-9
    _report(9, "synthesis chain verified at kappa = 0.5, 0.8", bool(ok))


def test_criterion_10_gate_physics():
    rng = np.random.default_rng(11)
    unitary = True
    for _ in range(5):
        tau, nu, t, g = rng.uniform(0.1, 5.0, size=4)
        delta = rng.uniform(0.5, 5.0)
        for u in (
            cq.ramsey_zone(tau, nu),
            cq.off_resonant(t, g * g / delta, nu),
            cq.on_resonant(),
            encoder_rotation(rng.uniform(0, np.pi)),
        ):
            u = np.asarray(u, dtype=complex)
            unitary &= np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12
    csx = cq.controlled_sqrt_not()
    cnot = np.eye(4, dtype=complex)
    cnot[[2, 3]] = cnot[[3, 2]]
    squared = abs(np.trace(cnot.conj().T @ csx @ csx)) / 4.0 >= 1.0 - 1e-10
    solved = cq.solve_sequence_params(1.0, 5.0, 7.0)
    ok = (
        unitary
        and squared
        and solved["invariant_distance"] < 1e-6
        and solved["leakage"] < 1e-8
    )
    _report(
        10,
        f"primitives unitary, CSX^2 = CNOT, solved sequence distance "
        f"{solved['invariant_distance']:.1e}, leakage {solved['leakage']:.1e}",
        ok,
    )


def test_criterion_11_holevo_upper_bound():
    worst = -np.inf
    for n in (2, 3, 4, 5, 8):
        book = cb.even_weight_codebook(n)
        for kappa in np.linspace(0.0, 1.0, 51):
            info, _ = sqrm.fast_srm_summary(book, kappa)
            worst = max(worst, info / n - bc.holevo_limit(kappa))
    _report(11, f"per-letter information below the Holevo limit ({worst:.1e})", worst <= 1e-10)
