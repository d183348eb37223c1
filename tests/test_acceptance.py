"""Acceptance suite: the headline guarantees, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion alongside the pytest verdicts.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import concurrence, haar_info_samples, reconstruct_form
from sqtkit import (
    InfoQubit,
    acin_alternative,
    acin_canonical,
    average_fidelity_mc,
    check_3qubit,
    check_general,
    concurrence_via_density,
    ghz,
    maf,
    new_state,
    outcome_table,
    random_state,
    schmidt_branch_family,
    schmidt_form,
    separable_branch_family,
    w_general,
    zha_counterexample,
)

SQRT_HALF = math.sqrt(0.5)
W_CONCURRENCE = 2.0 * math.sqrt(2.0) / 3.0


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({text}): FAIL")
        raise
    print(f"criterion {num} ({text}): PASS")


def standard_w():
    s = 1.0 / math.sqrt(3.0)
    return w_general(s, s, s)


def perfect_family_instances():
    """Every family instance claimed to give a perfect resource (receiver = qubit 2)."""
    return [
        ("ghz(3)", ghz(3)),
        ("separable_branch(0.5, 0.3)", separable_branch_family(0.5, 0.3)),
        ("separable_branch(0, 0)", separable_branch_family(0.0, 0.0)),
        ("separable_branch(0.1, -0.2)", separable_branch_family(0.1, -0.2)),
        ("schmidt_branch(1, 0, 0, 1)", schmidt_branch_family(1.0, 0.0, 0.0, 1.0)),
        ("schmidt_branch(0.6, 1, 0, 0)", schmidt_branch_family(0.6, 1.0, 0.0, 0.0)),
        ("schmidt_branch(0.5, 0.5, 0.7, 0.6)", schmidt_branch_family(0.5, 0.5, 0.7, 0.6)),
        ("acin form A (k0=0.5, k2=0.3)", acin_canonical(0.5, 0.0, 0.3, 0.4, SQRT_HALF)),
        ("acin form B (k1=0.5, k2=0.3)", acin_canonical(0.0, 0.5, 0.3, math.sqrt(0.41), 0.5)),
        ("acin_alt f=0 balanced", acin_alternative(0.5, 0.0, SQRT_HALF, 0.5, 0.0)),
        ("counterexample(0.5, 0.5)", zha_counterexample(0.5, 0.5)),
        ("counterexample(0.4, 0.3, phases)", zha_counterexample(0.4, 0.3, 0.1, 0.2, 0.3)),
        ("counterexample(0.3, 0.2, phases)", zha_counterexample(0.3, 0.2, 1.0, 2.0, -0.7)),
        ("w_general(0.5, 0.5, 1/√2)", w_general(0.5, 0.5, SQRT_HALF)),
    ]


def all_family_instances():
    return perfect_family_instances() + [
        ("standard W", standard_w()),
        ("uniform superposition", new_state(3, np.full(8, 1 / math.sqrt(8)))),
        ("acin(1/√2, 1/√2, 0, 0, 0)", acin_canonical(SQRT_HALF, SQRT_HALF, 0, 0, 0)),
        ("acin_alt equal weights f=0", acin_alternative(0.5, 0.5, 0.5, 0.5, 0.0)),
        ("ghz(2)", ghz(2)),
        ("ghz(4)", ghz(4)),
    ]


def test_criterion_1_maf_law():
    with criterion(1, "MC average fidelity matches (2+C)/3"):
        rng = np.random.default_rng(101)
        for n in (2, 3, 4):
            for _ in range(20):
                sv = random_state(n, rng)
                bob = int(rng.integers(n))
                est = average_fidelity_mc(sv, bob, 100_000, int(rng.integers(1 << 31)))
                target = maf(concurrence(sv, bob))
                assert abs(est.mean - target) < 5e-3
                assert abs(est.mean - target) < 3.0 * est.stderr + 1e-12


def test_criterion_2_concurrence_oracle_equivalence(big_corpus):
    with criterion(2, "rotation and density concurrence routes agree to 1e-10"):
        for sv in big_corpus:
            bob = sv.n - 1
            assert abs(concurrence(sv, bob) - concurrence_via_density(sv, bob)) < 1e-10
        for _, sv in all_family_instances():
            for bob in range(sv.n):
                assert abs(concurrence(sv, bob) - concurrence_via_density(sv, bob)) < 1e-10


def test_criterion_3_perfect_resource_fidelity():
    with criterion(3, "perfect family instances give unit outcome fidelities"):
        rng = np.random.default_rng(300)
        for label, sv in perfect_family_instances():
            form = schmidt_form(sv, 2)
            for _ in range(20):
                pair = haar_info_samples(1, rng)[0]
                table = outcome_table(InfoQubit(*pair), form)
                for rec in table:
                    assert abs(rec.fidelity - 1.0) < 1e-10, label


def test_criterion_4_negative_controls():
    with criterion(4, "standard W and uniform state fail as documented"):
        w = standard_w()
        assert abs(concurrence(w, 2) - W_CONCURRENCE) < 1e-10
        est = average_fidelity_mc(w, 2, 100_000, 11)
        assert abs(est.mean - 0.98094) < 5e-3
        verdict = check_general(w, 2, 1e-9)
        assert not verdict.verdict
        assert abs(verdict.residual_balance - 1.0 / 3.0) < 1e-10
        uniform = new_state(3, np.full(8, 1 / math.sqrt(8)))
        amp_form = check_3qubit(uniform, 2, 1e-9)
        assert not amp_form.verdict
        assert abs(amp_form.residual_overlap - 0.5) < 1e-10


def test_criterion_5_schmidt_machinery(big_corpus):
    with criterion(5, "orthogonality, normalization, reconstruction on the corpus"):
        for sv in big_corpus:
            for bob in range(sv.n):
                form = schmidt_form(sv, bob)
                assert abs(np.vdot(form.branch1, form.branch0)) < 1e-10
                assert abs(form.coeff0**2 + form.coeff1**2 - 1.0) < 1e-10
                assert np.max(np.abs(reconstruct_form(form, sv.n, bob) - sv.amps)) < 1e-10


def test_criterion_6_haar_averages():
    with criterion(6, "Haar moments ⟨|a|⁴⟩ = 1/3 and ⟨|ab|²⟩ = 1/6"):
        pairs = haar_info_samples(1_000_000, 606)
        pa = np.abs(pairs[:, 0]) ** 2
        assert abs(np.mean(pa**2) - 1.0 / 3.0) < 2e-3
        assert abs(np.mean(pa * (1.0 - pa)) - 1.0 / 6.0) < 2e-3


def test_criterion_7_checker_equivalence():
    with criterion(7, "general and 3-qubit checkers agree on 1000 random states"):
        rng = np.random.default_rng(700)
        disagreements = 0
        for _ in range(1000):
            sv = random_state(3, rng)
            bob = int(rng.integers(3))
            if check_general(sv, bob, 1e-9).verdict != check_3qubit(sv, bob, 1e-9).verdict:
                disagreements += 1
        assert disagreements == 0


def test_criterion_8_counterexample_pattern():
    with criterion(8, "counterexample is perfect yet outside both canonical patterns"):
        sv = zha_counterexample(0.4, 0.3, 0.1, 0.2, 0.3)
        assert check_general(sv, 2, 1e-9).verdict
        assert check_3qubit(sv, 2, 1e-9).verdict
        support = {int(k) for k in np.flatnonzero(np.abs(sv.amps) > 1e-10)}
        form_a_support = {0b000, 0b010, 0b100, 0b111}
        form_b_support = {0b001, 0b010, 0b100, 0b111}
        assert not support.issubset(form_a_support)
        assert not support.issubset(form_b_support)
