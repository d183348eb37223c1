import math

import numpy as np
import pytest

from helpers import FAMILY_MEMBERS, basis_state
from sqtkit import (
    ConstraintViolated,
    NotNormalized,
    OutOfRange,
    WrongQubitCount,
    acin_canonical,
    average_fidelity_mc,
    check_3qubit,
    check_general,
    classify_acin_alt,
    classify_zha,
    concurrence,
    ghz,
    new_state,
    random_state,
    w_general,
    zha_counterexample,
)

SQRT_HALF = math.sqrt(0.5)


def standard_w():
    s = 1.0 / math.sqrt(3.0)
    return w_general(s, s, s)


class TestCheckGeneral:
    def test_ghz_passes(self):
        verdict = check_general(ghz(3), 2, 1e-10)
        assert verdict.verdict
        assert verdict.residual_balance < 1e-12
        assert verdict.residual_overlap < 1e-12

    def test_standard_w_fails_balance(self):
        verdict = check_general(standard_w(), 2, 1e-10)
        assert not verdict.verdict
        assert verdict.residual_balance == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert verdict.residual_overlap == pytest.approx(0.0, abs=1e-12)

    def test_counterexample_family_passes(self):
        verdict = check_general(zha_counterexample(0.5, 0.5), 2)
        assert verdict.verdict

    def test_product_state_fails(self):
        verdict = check_general(basis_state(3, 0), 2)
        assert not verdict.verdict
        assert verdict.residual_balance == pytest.approx(1.0)

    def test_verdict_tracks_unit_concurrence(self, small_corpus):
        cases = list(small_corpus[:40]) + [ghz(3), ghz(4), zha_counterexample(0.4, 0.3)]
        for sv in cases:
            for bob in range(sv.n):
                verdict = check_general(sv, bob, 1e-9)
                assert verdict.verdict == (abs(concurrence(sv, bob) - 1.0) < 1e-8)


class TestCheck3Qubit:
    def test_ghz(self):
        verdict = check_3qubit(ghz(3), 2, 1e-10)
        assert verdict.verdict
        assert verdict.residual_balance < 1e-12
        assert verdict.residual_overlap < 1e-12

    def test_agrawal_pati_w(self):
        verdict = check_3qubit(w_general(0.5, 0.5, SQRT_HALF), 2, 1e-10)
        assert verdict.verdict

    def test_uniform_superposition_overlap(self):
        uniform = new_state(3, np.full(8, 1 / math.sqrt(8)))
        verdict = check_3qubit(uniform, 2, 1e-9)
        assert not verdict.verdict
        assert verdict.residual_overlap == pytest.approx(0.5, abs=1e-12)

    def test_balance_matches_general(self, small_corpus):
        for sv in small_corpus:
            if sv.n != 3:
                continue
            for bob in range(3):
                assert check_3qubit(sv, bob).residual_balance == pytest.approx(
                    check_general(sv, bob).residual_balance, abs=1e-12
                )

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(WrongQubitCount):
            check_3qubit(ghz(4), 0)

    def test_agreement_with_general_on_random_states(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            sv = random_state(3, rng)
            bob = int(rng.integers(3))
            assert check_general(sv, bob, 1e-9).verdict == check_3qubit(sv, bob, 1e-9).verdict


def _old_3qubit_residuals(sv, bob):
    """The residuals as first written: |Σ(|x|² − |y|²)| and |⟨x|y⟩| over the
    receiver-|0⟩ and receiver-|1⟩ amplitudes, read through moveaxis."""
    blocks = np.moveaxis(sv.tensor_view(), bob, -1).reshape(4, 2)
    balance = abs(float(np.sum(np.abs(blocks[:, 0]) ** 2 - np.abs(blocks[:, 1]) ** 2)))
    return balance, abs(complex(np.vdot(blocks[:, 0], blocks[:, 1])))


@pytest.mark.parametrize("bob", [0, 1, 2])
@pytest.mark.parametrize("sv", FAMILY_MEMBERS.values(), ids=FAMILY_MEMBERS.keys())
def test_3qubit_residuals_and_verdicts_across_families(sv, bob):
    verdict = check_3qubit(sv, bob)
    balance, overlap = _old_3qubit_residuals(sv, bob)
    assert abs(verdict.residual_balance - balance) <= 1e-15
    assert abs(verdict.residual_overlap - overlap) <= 1e-15
    assert type(verdict.residual_balance) is float and type(verdict.residual_overlap) is float
    assert verdict.verdict == check_general(sv, bob).verdict


class TestClassifyZha:
    def test_form_a_instance(self):
        report = classify_zha((0.5, 0.0, 0.3, 0.4, SQRT_HALF))
        assert report.matches_form_a and not report.matches_form_b
        assert report.verdict
        assert report.kappa_product == 0.0

    def test_form_b_instance(self):
        report = classify_zha((0.0, 0.5, 0.3, math.sqrt(0.41), 0.5))
        assert report.matches_form_b and not report.matches_form_a
        assert report.verdict

    def test_rejects_both_kappas_nonzero(self):
        report = classify_zha((0.5, 0.5, 0.5, 0.5, 0.0))
        assert report.kappa_product == pytest.approx(0.25)
        assert not report.verdict

    def test_kappa_product_zero_but_wrong_coefficients(self):
        # κ1 = 0 but κ4 ≠ 1/√2: not in either perfect form
        report = classify_zha((0.5, 0.0, 0.5, 0.5, 0.5))
        assert report.kappa_product == 0.0
        assert not report.verdict

    def test_matching_parameters_build_perfect_states(self):
        instances = [
            (0.5, 0.0, 0.3, 0.4, SQRT_HALF, 0.0),
            (0.5, 0.0, 0.3, 0.4, SQRT_HALF, 1.1),
            (0.0, 0.5, 0.3, math.sqrt(0.41), 0.5, 0.0),
            (0.0, 0.0, 0.6, math.sqrt(0.5 - 0.36), SQRT_HALF, 0.4),
        ]
        for *kappas, theta in instances:
            report = classify_zha(kappas, theta)
            assert report.verdict
            state = acin_canonical(*kappas, theta)
            assert check_3qubit(state, 2, 1e-9).verdict

    def test_validation(self):
        with pytest.raises(NotNormalized):
            classify_zha((0.9, 0.0, 0.3, 0.4, SQRT_HALF))
        with pytest.raises(ConstraintViolated):
            classify_zha((0.5, 0.0, -0.3, 0.4, SQRT_HALF))
        with pytest.raises(ConstraintViolated):
            classify_zha((0.5, 0.0, 0.3))

    def test_rejects_nan(self):
        with pytest.raises(NotNormalized):
            classify_zha((float("nan"), 0.0, 0.3, 0.4, SQRT_HALF))


class TestClassifyAcinAlt:
    def test_perfect_instance(self):
        report = classify_acin_alt(0.5, 0.0, SQRT_HALF, 0.5, 0.0)
        assert report.verdict and report.perfect
        assert report.df_product == 0.0

    def test_d_zero_with_norm_on_f(self):
        report = classify_acin_alt(SQRT_HALF, 0.0, 0.3, 0.0, math.sqrt(0.41))
        assert report.verdict and report.perfect

    def test_df_nonzero_fails(self):
        a = math.sqrt(1 - 0.25 - 0.09 - 0.16)
        report = classify_acin_alt(a, 0.5, 0.0, 0.3, 0.4)
        assert report.df_product == pytest.approx(0.12)
        assert not report.verdict

    def test_stated_condition_alone_does_not_imply_perfect(self):
        # f = 0 satisfies d·f = 0 for any parameters, but unbalanced blocks
        # still spoil the resource; the report exposes both facts
        report = classify_acin_alt(0.5, 0.5, 0.5, 0.5, 0.0)
        assert report.verdict
        assert not report.perfect
        assert report.residual_balance == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(NotNormalized):
            classify_acin_alt(1.0, 0.5, 0.0, 0.0, 0.0)
        with pytest.raises(ConstraintViolated):
            classify_acin_alt(-0.5, 0.0, SQRT_HALF, 0.5, 0.0)


class TestSoundnessAndCompleteness:
    def test_perfect_verdict_implies_unit_average_fidelity(self):
        resources = [
            ghz(3),
            zha_counterexample(0.4, 0.3, 0.1, 0.2, 0.3),
            w_general(0.5, 0.5, SQRT_HALF),
            acin_canonical(0.5, 0.0, 0.3, 0.4, SQRT_HALF),
        ]
        for sv in resources:
            assert check_general(sv, 2).verdict
            est = average_fidelity_mc(sv, 2, 100_000, 7)
            assert abs(est.mean - 1.0) < 5e-3

    def test_w_family_residual_monotonicity(self):
        # as |a100|² + |a010|² moves away from 1/2 the balance residual grows
        # and the achievable average fidelity falls
        weights = [0.5, 0.4, 0.3, 0.2]
        residuals, mafs = [], []
        for w0 in weights:
            state = w_general(math.sqrt(w0 / 2), math.sqrt(w0 / 2), math.sqrt(1 - w0))
            residuals.append(check_3qubit(state, 2).residual_balance)
            mafs.append(average_fidelity_mc(state, 2, 50_000, 3).mean)
        assert all(b > a for a, b in zip(residuals, residuals[1:]))
        assert all(b < a for a, b in zip(mafs, mafs[1:]))
        # for this family 1 − MAF ≈ residual²/6, so r²/7 is a safe margin
        assert all(m < 1.0 - r**2 / 7 for r, m in zip(residuals[1:], mafs[1:]))


CHECKS = {
    "general": lambda tol: check_general(ghz(3), 2, tol),
    "3qubit": lambda tol: check_3qubit(ghz(3), 2, tol),
    "zha": lambda tol: classify_zha((0.5, 0.0, 0.3, 0.4, SQRT_HALF), tol=tol),
    "acin-alt": lambda tol: classify_acin_alt(0.5, 0.0, SQRT_HALF, 0.5, 0.0, tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, True, "1e-3", None, 1 + 0j], ids=repr)
@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_tolerance_must_be_positive_and_finite(check, tol):
    # a NaN tolerance would make every verdict False, a negative one too; True
    # is not the tolerance 1, and a string, None or a complex is no number
    with pytest.raises(OutOfRange):
        check(tol)
