"""Acceptance criteria, one test per criterion.

Each test runs the corresponding check from the verification module at
full working degree, prints one pass/fail line, and enforces the
criterion's wall-clock budget.  Run with ``pytest -v`` to get one status
line per criterion from pytest itself as well.
"""

import time

from cuspmotive import verification


def _criterion(number, result, budget_seconds, elapsed):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number} [{result.name}]: {status} ({elapsed:.1f}s) {result.detail}")
    assert result.passed, f"criterion {number} [{result.name}]: {result.detail}"
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded budget: {elapsed:.1f}s >= {budget_seconds}s"
    )


def test_criterion_01_alt_of_second_derivative():
    t0 = time.time()
    result = verification.check_alt_a0pp(14)
    _criterion(1, result, 60, time.time() - t0)


def test_criterion_02_alt_of_adams_images():
    t0 = time.time()
    result = verification.check_alt_psi_k(14)
    _criterion(2, result, 120, time.time() - t0)


def test_criterion_03_alt_of_p2_derivative():
    t0 = time.time()
    result = verification.check_alt_a0dot(14)
    _criterion(3, result, 60, time.time() - t0)


def test_criterion_04_alt_of_boundary_sum():
    t0 = time.time()
    result = verification.check_alt_boundary(14)
    _criterion(4, result, 120, time.time() - t0)


def test_criterion_05_composition_invariance():
    t0 = time.time()
    result = verification.check_composition_invariance(14)
    _criterion(5, result, 60, time.time() - t0)


def test_criterion_06_interior_pipeline():
    t0 = time.time()
    result = verification.check_interior(14)
    _criterion(6, result, 600, time.time() - t0)


def test_criterion_07_alternating_component():
    t0 = time.time()
    result = verification.check_alternating_component()
    _criterion(7, result, 300, time.time() - t0)


def test_criterion_08_main_theorem():
    t0 = time.time()
    result = verification.check_main_theorem(20)
    _criterion(8, result, 600, time.time() - t0)


def test_criterion_09_row_bounds():
    t0 = time.time()
    result = verification.check_row_bounds()
    _criterion(9, result, 60, time.time() - t0)


def test_criterion_10_secondary_oracles():
    t0 = time.time()
    result = verification.check_secondary_oracles()
    _criterion(10, result, 300, time.time() - t0)


def test_criterion_11_property_suites():
    t0 = time.time()
    result = verification.check_property_suites()
    _criterion(11, result, 300, time.time() - t0)
