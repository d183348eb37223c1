import math

import numpy as np
import pytest

from helpers import concurrence
from sqtkit import (
    ConstraintViolated,
    NotNormalized,
    OutOfRange,
    TooManyQubits,
    acin_alternative,
    acin_canonical,
    check_3qubit,
    check_general,
    classify_zha,
    concurrence_via_density,
    ghz,
    random_state,
    schmidt_branch_family,
    separable_branch_family,
    w_general,
    zha_counterexample,
)
from sqtkit.families import KEPT_SEEDS, _generator, _seed_state

SQRT_HALF = math.sqrt(0.5)


class TestGhz:
    def test_two_qubits_is_bell(self):
        np.testing.assert_allclose(ghz(2).amps, [SQRT_HALF, 0, 0, SQRT_HALF])

    def test_concurrence_is_one_for_every_receiver(self):
        for n in (3, 4):
            sv = ghz(n)
            for bob in range(n):
                assert concurrence(sv, bob) == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        with pytest.raises(OutOfRange):
            ghz(1)
        with pytest.raises(TooManyQubits):
            ghz(13)

    @pytest.mark.parametrize("n", [3.0, True], ids=repr)
    def test_rejects_non_integer_count(self, n):
        with pytest.raises(OutOfRange):
            ghz(n)


class TestWGeneral:
    def test_amplitude_placement(self):
        sv = w_general(0.5, 0.5j, SQRT_HALF)
        assert sv.amps[0b100] == pytest.approx(0.5)
        assert sv.amps[0b010] == pytest.approx(0.5j)
        assert sv.amps[0b001] == pytest.approx(SQRT_HALF)
        assert np.count_nonzero(sv.amps) == 3

    def test_perfect_member(self):
        assert check_3qubit(w_general(0.5, 0.5, SQRT_HALF), 2).verdict

    def test_perfect_boundary_member(self):
        assert check_3qubit(w_general(0.0, SQRT_HALF, SQRT_HALF), 2).verdict

    def test_standard_w_is_not_perfect(self):
        s = 1 / math.sqrt(3)
        verdict = check_3qubit(w_general(s, s, s), 2)
        assert not verdict.verdict
        assert verdict.residual_balance == pytest.approx(1 / 3, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            w_general(0.7, 0.7, 0.2)


class TestSeparableBranchFamily:
    @pytest.mark.parametrize("a,b", [(0.5, 0.3), (0.0, 0.0), (0.1, -0.2)])
    def test_members_are_perfect(self, a, b):
        sv = separable_branch_family(a, b)
        assert check_general(sv, 2).verdict
        assert concurrence(sv, 2) == pytest.approx(1.0, abs=1e-10)

    def test_amplitude_placement(self):
        sv = separable_branch_family(0.5, 0.3)
        assert sv.amps[0b000] == pytest.approx(0.5, abs=1e-12)
        assert sv.amps[0b010] == pytest.approx(0.3, abs=1e-12)
        assert sv.amps[0b100] == pytest.approx(math.sqrt(0.5 - 0.34), abs=1e-12)
        assert sv.amps[0b111] == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_zero_parameters_reduce_to_two_terms(self):
        sv = separable_branch_family(0.0, 0.0)
        np.testing.assert_allclose(
            sv.amps[[0b100, 0b111]], [SQRT_HALF, SQRT_HALF], atol=1e-15
        )
        assert concurrence(sv, 2) == pytest.approx(1.0, abs=1e-12)

    def test_constraint(self):
        with pytest.raises(ConstraintViolated, match="a² \\+ b² must be ≤ 1/2"):
            separable_branch_family(0.6, 0.5)


class TestSchmidtBranchFamily:
    @pytest.mark.parametrize(
        "a,b,beta,kappa",
        [(1.0, 0.0, 0.0, 1.0), (0.6, 1.0, 0.0, 0.0), (0.5, 0.5, 0.7, 0.6)],
    )
    def test_members_are_perfect(self, a, b, beta, kappa):
        sv = schmidt_branch_family(a, b, beta, kappa)
        assert check_general(sv, 2).verdict
        assert concurrence_via_density(sv, 2) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_point_structure(self):
        sv = schmidt_branch_family(1.0, 0.0, 0.0, 1.0)
        np.testing.assert_allclose(
            sv.amps[[0b110, 0b001]], [-SQRT_HALF, SQRT_HALF], atol=1e-15
        )
        assert np.count_nonzero(np.abs(sv.amps) > 1e-15) == 2

    def test_constraints(self):
        with pytest.raises(ConstraintViolated, match="kappa² \\+ b²"):
            schmidt_branch_family(0.5, 0.8, 0.0, 0.8)
        with pytest.raises(ConstraintViolated, match="must lie in"):
            schmidt_branch_family(1.2, 0.0, 0.0, 0.5)


class TestAcinCanonical:
    def test_ghz_point(self):
        sv = acin_canonical(SQRT_HALF, 0, 0, 0, SQRT_HALF)
        np.testing.assert_allclose(sv.amps, ghz(3).amps, atol=1e-15)

    def test_form_a_instance_is_perfect(self):
        sv = acin_canonical(0.5, 0.0, 0.3, 0.4, SQRT_HALF)
        assert check_3qubit(sv, 2).verdict

    def test_unentangled_receiver_overlap(self):
        # κ0 = κ1 = 1/√2: receiver factorizes, raw block overlap is κ0·κ1
        sv = acin_canonical(SQRT_HALF, SQRT_HALF, 0, 0, 0)
        verdict = check_3qubit(sv, 2)
        assert not verdict.verdict
        assert verdict.residual_overlap == pytest.approx(0.5, abs=1e-12)

    def test_phase_lands_on_first_amplitude(self):
        sv = acin_canonical(0.5, 0.0, 0.3, 0.4, SQRT_HALF, theta=0.9)
        assert sv.amps[0] == pytest.approx(0.5 * np.exp(0.9j), abs=1e-12)

    def test_validation(self):
        with pytest.raises(NotNormalized):
            acin_canonical(0.5, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ConstraintViolated):
            acin_canonical(-0.5, 0.0, 0.3, 0.4, SQRT_HALF)


class TestAcinAlternative:
    def test_amplitude_placement(self):
        sv = acin_alternative(0.5, 0.0, SQRT_HALF, 0.5, 0.0)
        assert sv.amps[0b000] == pytest.approx(0.5, abs=1e-12)
        assert sv.amps[0b101] == pytest.approx(SQRT_HALF, abs=1e-12)
        assert sv.amps[0b110] == pytest.approx(0.5, abs=1e-12)

    def test_balanced_f_zero_instance_is_perfect(self):
        sv = acin_alternative(0.5, 0.0, SQRT_HALF, 0.5, 0.0)
        assert check_general(sv, 2).verdict

    def test_equal_weights_f_zero_fails_balance(self):
        sv = acin_alternative(0.5, 0.5, 0.5, 0.5, 0.0)
        verdict = check_general(sv, 2)
        assert not verdict.verdict
        assert verdict.residual_balance == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(NotNormalized):
            acin_alternative(1.0, 1.0, 0.0, 0.0, 0.0)


class TestZhaCounterexample:
    @pytest.mark.parametrize(
        "params",
        [(0.5, 0.5, 0.0, 0.0, 0.0), (0.4, 0.3, 0.1, 0.2, 0.3), (0.3, 0.2, 1.0, 2.0, -0.7)],
    )
    def test_members_are_perfect(self, params):
        sv = zha_counterexample(*params)
        assert check_general(sv, 2).verdict
        assert concurrence(sv, 2) == pytest.approx(1.0, abs=1e-10)

    def test_amplitude_placement(self):
        sv = zha_counterexample(0.4, 0.3, 0.1, 0.2, 0.3)
        assert sv.amps[0b000] == pytest.approx(SQRT_HALF * np.exp(0.1j), abs=1e-12)
        assert sv.amps[0b011] == pytest.approx(0.4, abs=1e-12)
        assert sv.amps[0b101] == pytest.approx(0.3 * np.exp(0.2j), abs=1e-12)
        assert sv.amps[0b111] == pytest.approx(math.sqrt(0.5 - 0.25) * np.exp(0.3j), abs=1e-12)

    def test_constraint(self):
        with pytest.raises(ConstraintViolated):
            zha_counterexample(0.8, 0.0)


class TestRandomState:
    def test_unit_norm(self):
        assert random_state(5, 0).norm() == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        np.testing.assert_array_equal(random_state(3, 7).amps, random_state(3, 7).amps)

    def test_concurrence_statistics(self):
        rng = np.random.default_rng(29)
        values = [concurrence_via_density(random_state(3, rng), 2) for _ in range(300)]
        assert 0.0 < np.mean(values) < 1.0
        assert min(values) > 0.0 and max(values) < 1.0

    def test_bounds(self):
        with pytest.raises(OutOfRange):
            random_state(0, 0)
        with pytest.raises(TooManyQubits):
            random_state(13, 0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True], ids=repr)
    def test_rejects_non_integer_count(self, n):
        with pytest.raises(OutOfRange):
            random_state(n, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True, False], ids=repr)
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(OutOfRange, match="seed"):
            random_state(3, seed)

    def test_seed_forms_give_the_same_state(self):
        random_state(3, None)
        reference = random_state(3, 7).amps
        for seed in (np.int64(7), np.random.default_rng(7)):
            np.testing.assert_array_equal(random_state(3, seed).amps, reference)


class TestKeptSeeds:
    """`_generator` seeds PCG64 from the kept SeedSequence words of an integer seed."""

    def test_state_and_draws_are_default_rngs(self):
        # more distinct seeds than are kept, each twice, so entries are evicted and hit
        seeds = [*range(KEPT_SEEDS + 44), np.int64(7), np.uint64(2**64 - 1), 2**100, 10**30]
        for seed in seeds + seeds[::-1]:
            gen, ref = _generator(seed), np.random.default_rng(seed)
            assert gen.bit_generator.state == ref.bit_generator.state, seed
            np.testing.assert_array_equal(gen.random(50), ref.random(50))
            np.testing.assert_array_equal(gen.standard_normal(20), ref.standard_normal(20))
        info = _seed_state.cache_info()
        assert info.maxsize == KEPT_SEEDS and info.currsize <= info.maxsize

    def test_generators_of_one_seed_are_independent(self):
        first, second = _generator(5), _generator(5)
        first.random(10)
        assert second.bit_generator.state == np.random.default_rng(5).bit_generator.state

    @pytest.mark.parametrize("seed", [1.0, np.float64(1.0), True], ids=repr)
    def test_an_equal_non_integer_is_refused_after_the_integer_is_kept(self, seed):
        _generator(1)  # 1.0 and True hash and compare like 1
        with pytest.raises(OutOfRange, match="seed"):
            _generator(seed)

    def test_none_is_fresh_entropy_and_a_generator_is_returned(self):
        assert _generator(None).random() != _generator(None).random()
        gen = np.random.default_rng(3)
        assert _generator(gen) is gen


def test_every_constructor_is_exactly_normalized():
    # parameterizations are algebraically normalized, so the raw vectors come
    # in at unit norm to machine precision (well inside the 1e-9 gate)
    states = [
        ghz(4),
        w_general(0.5, 0.5, SQRT_HALF),
        separable_branch_family(0.5, 0.3),
        schmidt_branch_family(0.5, 0.5, 0.7, 0.6),
        acin_canonical(0.5, 0.0, 0.3, 0.4, SQRT_HALF, 0.2),
        acin_alternative(0.5, 0.0, SQRT_HALF, 0.5, 0.0, 0.4),
        zha_counterexample(0.4, 0.3, 0.1, 0.2, 0.3),
        random_state(4, 3),
    ]
    for sv in states:
        assert abs(sv.norm() - 1.0) < 1e-12


# every phase a constructor or classify_zha takes, at an otherwise valid point
PHASED = {
    "acin-theta": lambda p: acin_canonical(0.5, 0.0, 0.3, 0.4, SQRT_HALF, p),
    "acinalt-theta": lambda p: acin_alternative(0.5, 0.0, SQRT_HALF, 0.5, 0.0, p),
    "counterexample-theta": lambda p: zha_counterexample(0.4, 0.3, p, 0.0, 0.0),
    "counterexample-delta": lambda p: zha_counterexample(0.4, 0.3, 0.0, p, 0.0),
    "counterexample-gamma": lambda p: zha_counterexample(0.4, 0.3, 0.0, 0.0, p),
    "schmidt-beta": lambda p: schmidt_branch_family(0.5, 0.5, p, 0.6),
    "classify_zha-theta": lambda p: classify_zha((0.5, 0.0, 0.3, 0.4, SQRT_HALF), p),
}


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf, "x", None, True], ids=repr)
@pytest.mark.parametrize("build", PHASED.values(), ids=PHASED.keys())
def test_phase_must_be_a_finite_real_number(build, phase):
    # NaN and inf used to surface as "state norm nan", or not at all in
    # classify_zha; a string or None raised a bare TypeError
    with pytest.raises(OutOfRange, match="phase .* must be a finite real number"):
        build(phase)


@pytest.mark.parametrize("phase", [0, -0.0, np.float64(0.7), 1e300], ids=repr)
@pytest.mark.parametrize("build", PHASED.values(), ids=PHASED.keys())
def test_phase_admits_any_finite_real(build, phase):
    build(phase)
