import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (basis_state, correction_matrix, haar_info_samples, measurement_basis,
                     move_to_last_perm)
from sqtkit import protocol
from sqtkit import (
    CORRECTION_LABELS,
    InfoQubit,
    NotNormalized,
    OutOfRange,
    average_fidelity_mc,
    concurrence_via_density,
    ghz,
    haar_random_info,
    maf,
    new_state,
    outcome_table,
    permute_qubits,
    random_state,
    run_teleport,
    schmidt_form,
    w_general,
)

SQRT_HALF = math.sqrt(0.5)


def standard_w():
    s = 1.0 / math.sqrt(3.0)
    return w_general(s, s, s)


class TestInfoQubit:
    def test_accepts_normalized(self):
        q = InfoQubit(0.6, 0.8j)
        np.testing.assert_allclose([q.amp0, q.amp1], [0.6, 0.8j])

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            InfoQubit(1.0, 0.1)

    def test_rejects_nan(self):
        with pytest.raises(NotNormalized):
            InfoQubit(float("nan"), 1.0)

    @pytest.mark.parametrize("amps", [(1e200, 0), (0, 1e200j), (complex(1.7e308, 1.7e308), 0)], ids=repr)
    def test_rejects_overflowing_norm(self, amps):
        with pytest.raises(NotNormalized):
            InfoQubit(*amps)


class TestMeasurementBasis:
    def test_two_qubit_resource_gives_bell_basis(self):
        form = schmidt_form(ghz(2), 1)
        states = measurement_basis(form)
        bell = np.array(
            [
                [SQRT_HALF, 0, 0, SQRT_HALF],
                [SQRT_HALF, 0, 0, -SQRT_HALF],
                [0, SQRT_HALF, SQRT_HALF, 0],
                [0, SQRT_HALF, -SQRT_HALF, 0],
            ]
        )
        for got, want in zip(states, bell):
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_ghz_first_element(self):
        form = schmidt_form(ghz(3), 2)
        psi0 = measurement_basis(form)[0]
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = SQRT_HALF
        expected[0b111] = SQRT_HALF
        np.testing.assert_allclose(psi0, expected, atol=1e-15)

    def test_gram_matrix_is_identity(self, small_corpus):
        for sv in list(small_corpus[:20]) + [standard_w(), basis_state(3, 0)]:
            states = measurement_basis(schmidt_form(sv, sv.n - 1))
            gram = np.array([[np.vdot(x, y) for y in states] for x in states])
            np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


def _check_drawn_outcomes(sv, bob, info):
    """Each outcome a seed draws has the weight, collapsed qubit and corrected
    qubit read off the explicit info ⊗ resource joint state projected onto
    measurement_basis(form)[r], to 1e-12; seeds run until every outcome of
    weight above 1e-2 has been drawn."""
    form = schmidt_form(sv, bob)
    rest_then_bob = permute_qubits(sv, move_to_last_perm(sv.n, bob))
    joint = np.kron([info.amp0, info.amp1], rest_then_bob.amps).reshape(-1, 2)
    collapsed = [state.conj() @ joint for state in measurement_basis(form)]
    weights = [float(np.vdot(v, v).real) for v in collapsed]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    unseen = {r for r, w in enumerate(weights) if w > 1e-2}
    for seed in range(500):
        result = run_teleport(info, sv, bob, seed=seed)
        r = result.record.outcome
        assert result.record.prob == pytest.approx(weights[r], abs=1e-12)
        np.testing.assert_allclose(result.record.bob_state, collapsed[r] / math.sqrt(weights[r]),
                                   rtol=0, atol=1e-12)
        corrected = correction_matrix(r, form.receiver_basis) @ result.record.bob_state
        np.testing.assert_allclose(result.final_state, corrected, rtol=0, atol=1e-12)
        unseen.discard(r)
        if not unseen:
            break
    assert not unseen, (sv.n, bob, weights)


class TestMeasurementBasisDrivesTheRun:
    # run_teleport projects with four branch inner products only; the explicit
    # (n+1)-qubit joint state projected onto measurement_basis is its referee
    def test_joint_state_overlaps_are_the_born_weights(self):
        rng = np.random.default_rng(41)
        cases = [(ghz(3), 2), (standard_w(), 0), (basis_state(4, 0b0110), 1)]
        cases += [(random_state(n, rng), int(rng.integers(n))) for n in range(2, 7) for _ in range(3)]
        for sv, bob in cases:
            _check_drawn_outcomes(sv, bob, haar_random_info(rng))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_drawn_outcome_is_the_joint_projection(self, n):
        # every size, at receivers 0, n//2 and n−1
        rng = np.random.default_rng([43, n])
        sv = random_state(n, rng)
        for bob in sorted({0, n // 2, n - 1}):
            _check_drawn_outcomes(sv, bob, haar_random_info(rng))


def test_derived_vectors_are_read_only():
    form = schmidt_form(standard_w(), 2)
    info = InfoQubit(0.6, 0.8j)
    result = run_teleport(info, standard_w(), 2, seed=3)
    derived = [form.branch0, form.branch1, outcome_table(info, form)[2].bob_state,
               result.record.bob_state, result.final_state, measurement_basis(form)[1]]
    for vec in derived:
        with pytest.raises(ValueError):
            vec[0] = 0.0


class TestOutcomeTable:
    def test_ghz_uniform_and_perfect(self):
        form = schmidt_form(ghz(3), 2)
        for rec in outcome_table(InfoQubit(1, 0), form):
            assert rec.prob == pytest.approx(0.25)
            assert rec.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_known_partial_fidelity(self):
        # resource cos(π/6)|00⟩ + sin(π/6)|11⟩, info amplitudes 1/√2 each:
        # F(0) = F(1) = (1 + sin(π/3))/2 = (2 + √3)/4
        res = new_state(2, [math.cos(math.pi / 6), 0, 0, math.sin(math.pi / 6)])
        table = outcome_table(InfoQubit(SQRT_HALF, SQRT_HALF), schmidt_form(res, 1))
        expected = (2.0 + math.sqrt(3.0)) / 4.0
        assert table[0].fidelity == pytest.approx(expected, abs=1e-12)
        assert table[1].fidelity == pytest.approx(expected, abs=1e-12)

    def test_basis_info_probabilities(self, small_corpus):
        for sv in small_corpus[:15]:
            form = schmidt_form(sv, 0)
            table = outcome_table(InfoQubit(1, 0), form)
            assert table[0].prob == pytest.approx(form.coeff0**2 / 2, abs=1e-12)
            assert table[2].prob == pytest.approx(form.coeff1**2 / 2, abs=1e-12)

    def test_probabilities_sum_to_one(self, small_corpus):
        rng = np.random.default_rng(3)
        for sv in small_corpus[:30]:
            info = haar_random_info(rng)
            table = outcome_table(info, schmidt_form(sv, sv.n - 1))
            assert abs(sum(rec.prob for rec in table) - 1.0) < 1e-12
            for rec in table:
                assert rec.prob >= 0.0
                assert -1e-12 <= rec.fidelity <= 1.0 + 1e-12
                assert abs(np.linalg.norm(rec.bob_state) - 1.0) < 1e-12

    def test_edge_of_tolerance_info_still_conserves_probability(self):
        # amplitudes admitted by the unit-norm gate are renormalized exactly
        info = InfoQubit(0.6 * (1 + 4e-11), 0.8)
        table = outcome_table(info, schmidt_form(standard_w(), 2))
        assert abs(sum(rec.prob for rec in table) - 1.0) < 1e-12

    def test_correction_labels_in_order(self):
        table = outcome_table(InfoQubit(1, 0), schmidt_form(ghz(3), 2))
        assert tuple(rec.correction for rec in table) == CORRECTION_LABELS

    def test_fidelity_equals_explicit_correction(self, small_corpus):
        # the tabulated closed form must match |⟨info|M_r·bob_state⟩|²
        rng = np.random.default_rng(9)
        for sv in small_corpus[:30]:
            info = haar_random_info(rng)
            form = schmidt_form(sv, sv.n - 1)
            for rec in outcome_table(info, form):
                if rec.prob < 1e-15:
                    continue
                corrected = correction_matrix(rec.outcome, form.receiver_basis) @ rec.bob_state
                explicit = abs(np.vdot([info.amp0, info.amp1], corrected)) ** 2
                assert rec.fidelity == pytest.approx(explicit, abs=1e-12)

    def test_zero_probability_outcome_convention(self):
        # info |1⟩ over a product resource: outcomes 0, 1 never occur
        table = outcome_table(InfoQubit(0, 1), schmidt_form(basis_state(3, 0), 2))
        assert table[0].prob == pytest.approx(0.0)
        assert table[0].fidelity == 0.0
        assert table[2].prob == pytest.approx(0.5)
        assert table[2].fidelity == pytest.approx(1.0)

    @pytest.mark.parametrize("coeff1", [0.0, 1.2e-15, 1.5e-15], ids=repr)
    def test_one_zero_outcome_rule(self, coeff1):
        # info |0⟩ gives outcomes 2, 3 the probability coeff1²/2: 0, then
        # 7.2e-31 (a never-occurring outcome that used to get a normalized
        # qubit), then 1.1e-30; fidelity 0 and |0̄⟩ go together
        form = dataclasses.replace(schmidt_form(ghz(3), 2), coeff0=math.sqrt(1 - coeff1**2), coeff1=coeff1)
        for rec in outcome_table(InfoQubit(1, 0), form)[2:]:
            never = rec.prob <= protocol.ZERO_PROB
            assert (rec.fidelity == 0.0) == never
            assert np.array_equal(rec.bob_state, form.receiver_basis[:, 0]) == never


@pytest.mark.parametrize("outcome", [1.5, True, np.float64(2.0), -1, 4], ids=repr)
def test_correction_matrix_refuses_non_outcomes(outcome):
    with pytest.raises(OutOfRange):
        correction_matrix(outcome, np.eye(2))


def test_correction_matrix_is_the_written_out_product():
    # (σx)^[r ≥ 2]·(σz)^[r odd]·U† for Haar-random unitaries U
    rng = np.random.default_rng(17)
    pauli_x, pauli_z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    for _ in range(20):
        q, tri = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = q * (np.diag(tri) / abs(np.diag(tri)))  # the phase fix that makes q Haar
        for r in range(4):
            want = u.conj().T
            if r % 2:
                want = pauli_z @ want
            if r >= 2:
                want = pauli_x @ want
            got = correction_matrix(r, u)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got @ got.conj().T, np.eye(2), rtol=0, atol=1e-15)


def test_correction_matrix_takes_numpy_outcomes():
    basis = schmidt_form(standard_w(), 2).receiver_basis
    for r in range(4):
        np.testing.assert_array_equal(correction_matrix(np.int64(r), basis), correction_matrix(r, basis))


def test_correction_labels_name_their_matrices():
    # each label's words σx, σz and U†, read left to right as a matrix product
    rng = np.random.default_rng(23)
    words = {"σx": np.array([[0, 1], [1, 0]]), "σz": np.diag([1, -1])}
    for _ in range(20):
        q, tri = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = q * (np.diag(tri) / abs(np.diag(tri)))  # the phase fix that makes q Haar
        for r, label in enumerate(CORRECTION_LABELS):
            spelled = re.findall("σx|σz|U†", label)
            assert "".join(spelled) == label
            want = np.eye(2)
            for word in spelled:
                want = want @ (u.conj().T if word == "U†" else words[word])
            np.testing.assert_allclose(correction_matrix(r, u), want, rtol=0, atol=1e-15)


class _Uniforms:
    """Stands in for a Generator whose random() returns the given doubles in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@pytest.mark.parametrize("weights", [
    [0.0, 0.3, 0.0, 0.7], [0.5, 1.5, 0.0, 0.0], [0.2, 0.0, 0.0, 1.8], [0.0, 0.0, 0.0, 2.0],
    [2.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.1, 0.2, 0.0, 0.3], [1e-300, 0.0, 3e-300, 0.0],
], ids=repr)
def test_draw_at_the_edges_of_the_uniform(weights):
    # random() returns 0.0 at least and 1 − 2⁻⁵³ at most: the first and the
    # last outcome of nonzero weight, never a zero-weight one or index 4
    present = [r for r, w in enumerate(weights) if w > 0.0]
    uniforms = _Uniforms(1.0 - 2.0**-53, 0.0)
    assert protocol._draw_outcome(weights, uniforms) == present[-1]
    assert protocol._draw_outcome(weights, uniforms) == present[0]


class TestRunTeleport:
    def test_perfect_resource_any_seed(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            info = haar_random_info(rng)
            result = run_teleport(info, ghz(3), 2, seed=seed)
            assert result.record.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        info = InfoQubit(0.6, 0.8)
        w = standard_w()
        first = run_teleport(info, w, 2, seed=42)
        second = run_teleport(info, w, 2, seed=42)
        assert first.record.outcome == second.record.outcome
        np.testing.assert_array_equal(first.final_state, second.final_state)

    def test_product_resource_uniform_outcomes(self):
        # Ā = 1, B̄ = 0 with equatorial info: every outcome has probability 1/4
        info = InfoQubit(SQRT_HALF, SQRT_HALF)
        resource = basis_state(3, 0)
        table = outcome_table(info, schmidt_form(resource, 2))
        for rec in table:
            assert rec.prob == pytest.approx(0.25, abs=1e-12)
        result = run_teleport(info, resource, 2, seed=4)
        assert result.record.fidelity == pytest.approx(
            table[result.record.outcome].fidelity, abs=1e-12
        )

    def test_agrees_with_table(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            sv = random_state(n, rng)
            bob = int(rng.integers(n))
            info = haar_random_info(rng)
            result = run_teleport(info, sv, bob, seed=trial)
            table = outcome_table(info, schmidt_form(sv, bob))
            rec = table[result.record.outcome]
            assert result.record.fidelity == pytest.approx(rec.fidelity, abs=1e-12)
            assert result.record.prob == pytest.approx(rec.prob, abs=1e-12)

    def test_twelve_qubit_resource_agrees_with_table(self):
        rng = np.random.default_rng(12)
        sv = random_state(12, rng)
        info = haar_random_info(rng)
        for bob in (0, 5, 11):
            result = run_teleport(info, sv, bob, seed=bob)
            rec = outcome_table(info, schmidt_form(sv, bob))[result.record.outcome]
            assert result.record.fidelity == pytest.approx(rec.fidelity, abs=1e-12)
            assert result.record.prob == pytest.approx(rec.prob, abs=1e-12)

    def test_a_passed_generator_advances_by_one_double(self):
        gen, twin = np.random.default_rng(3), np.random.default_rng(3)
        run_teleport(haar_random_info(1), standard_w(), 2, seed=gen)
        twin.random()
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_born_rule_frequencies(self):
        # distribution check via a long vectorized draw from the projection
        # probabilities, plus a shorter full-pipeline run
        sv = standard_w()
        info = InfoQubit(0.6, 0.8)
        table = outcome_table(info, schmidt_form(sv, 2))
        probs = np.array([rec.prob for rec in table])
        rng = np.random.default_rng(7)
        draws = rng.choice(4, size=100_000, p=probs / probs.sum())
        for r in range(4):
            freq = np.mean(draws == r)
            sigma = math.sqrt(probs[r] * (1 - probs[r]) / draws.size)
            assert abs(freq - probs[r]) < 4 * sigma
        outcomes = np.array(
            [run_teleport(info, sv, 2, seed=s).record.outcome for s in range(2000)]
        )
        for r in range(4):
            freq = np.mean(outcomes == r)
            sigma = math.sqrt(probs[r] * (1 - probs[r]) / outcomes.size)
            assert abs(freq - probs[r]) < 4 * sigma


@pytest.mark.parametrize("n", range(2, 13))
def test_every_drawn_outcome_agrees_with_table(n):
    """Seeds are searched until every outcome of weight > 0.01 has been drawn
    at every receiver; each draw must match its closed-form row, the
    collapsed qubit element by element."""
    rng = np.random.default_rng(200 + n)
    sv = random_state(n, rng)
    for bob in range(n):
        info = haar_random_info(rng)
        table = outcome_table(info, schmidt_form(sv, bob))
        wanted = {rec.outcome for rec in table if rec.prob > 0.01}
        seen = set()
        for seed in range(5000):
            record = run_teleport(info, sv, bob, seed=seed).record
            row = table[record.outcome]
            assert abs(record.prob - row.prob) <= 1e-12
            assert abs(record.fidelity - row.fidelity) <= 1e-12
            np.testing.assert_allclose(record.bob_state, row.bob_state, rtol=0, atol=1e-12)
            seen.add(record.outcome)
            if wanted <= seen:
                break
        assert wanted <= seen, (bob, wanted - seen)


SEEDED_CALLS = {
    "run_teleport": lambda seed: run_teleport(haar_random_info(1), standard_w(), 2, seed=seed).final_state,
    "average_fidelity_mc": lambda seed: average_fidelity_mc(standard_w(), 2, 100, seed).mean,
    "haar_info_samples": lambda seed: haar_info_samples(3, seed),
    "haar_random_info": lambda seed: haar_random_info(seed),
}


# numpy would also take an int sequence, a SeedSequence or a bare BitGenerator
BAD_SEEDS = [-1, 1.5, "x", True, False, [True], [1, 2], (),
             pytest.param(np.random.SeedSequence(3), id="SeedSequence(3)"),
             pytest.param(np.random.PCG64(3), id="PCG64(3)")]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("name", SEEDED_CALLS)
def test_bad_seed_is_refused(name, seed):
    with pytest.raises(OutOfRange, match="seed"):
        SEEDED_CALLS[name](seed)


@pytest.mark.parametrize("name", SEEDED_CALLS)
def test_seed_forms_give_the_same_draws(name):
    call = SEEDED_CALLS[name]
    call(None)
    reference = call(7)
    for seed in (np.int64(7), np.uint64(7), np.random.default_rng(7)):
        np.testing.assert_array_equal(call(seed), reference)


class TestHaarSampling:
    def test_samples_are_normalized(self):
        pairs = haar_info_samples(10_000, 5)
        norms = np.abs(pairs[:, 0]) ** 2 + np.abs(pairs[:, 1]) ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_single_draw_is_the_one_qubit_random_state(self):
        def bits(info):
            return np.array([info.amp0, info.amp1]).view(np.uint64).tolist()

        def state_draw(rng):
            return bits(InfoQubit(*random_state(1, rng).amps))

        for seed in [*range(1000), np.int64(123)]:
            assert bits(haar_random_info(seed)) == state_draw(seed), seed
        # a passed Generator advances exactly as random_state's would
        gen, ref = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(2):
            assert bits(haar_random_info(gen)) == state_draw(ref)
        assert gen.random() == ref.random()

    def test_seed_1_draw_is_pinned(self):
        info = haar_random_info(1)
        assert info.amp0 == 0.21424427007839494 + 0.20485384406841473j
        assert info.amp1 == 0.5093606231982167 - 0.8078898754434873j

    def test_moments(self):
        pairs = haar_info_samples(1_000_000, 0)
        pa = np.abs(pairs[:, 0]) ** 2
        assert np.mean(pa**2) == pytest.approx(1.0 / 3.0, abs=2e-3)
        assert np.mean(pa * (1 - pa)) == pytest.approx(1.0 / 6.0, abs=2e-3)

    def test_rejects_bad_count(self):
        with pytest.raises(OutOfRange):
            haar_info_samples(0)

    @pytest.mark.parametrize("count", [1, 2, 7, 1000])
    def test_samples_are_two_complex_gaussian_draws(self, count):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            raw = gen.standard_normal((count, 2)) + 1j * gen.standard_normal((count, 2))
            expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            assert haar_info_samples(count, seed).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mc_weights_are_distributed_as_haar_weights(self, seed):
        # the estimator's p (np.random.default_rng(seed).random, pinned by
        # TestMonteCarloDraw) against |amp0|² of the Gaussian Haar sampler:
        # a two-sample Kolmogorov–Smirnov test at significance 1e-3
        count = 20_000
        mc = np.random.default_rng(seed).random(count)
        haar = np.abs(haar_info_samples(count, seed + 100)[:, 0]) ** 2
        critical = math.sqrt(-0.5 * math.log(1e-3 / 2)) * math.sqrt(2 / count)
        assert _ks_statistic(mc, haar) < critical
        # positive control: the same test tells a non-uniform weight apart
        assert _ks_statistic(mc**2, haar) > critical

    @pytest.mark.parametrize("count", [2.5, 1e3, True])
    def test_rejects_non_integer_count(self, count):
        with pytest.raises(OutOfRange, match="integer"):
            haar_info_samples(count)


def _ks_statistic(a, b):
    """Two-sample Kolmogorov–Smirnov statistic: the largest gap between the
    empirical distribution functions of a and b."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = np.searchsorted(a, grid, side="right") / a.size - np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(gap)))


class TestAverageFidelityMc:
    def test_ghz_is_exact(self):
        est = average_fidelity_mc(ghz(3), 2, 10_000, 0)
        assert est.mean == pytest.approx(1.0, abs=1e-12)
        assert est.stderr < 1e-12

    def test_product_resource(self):
        est = average_fidelity_mc(basis_state(3, 0), 2, 100_000, 0)
        assert est.mean == pytest.approx(2.0 / 3.0, abs=5e-3)

    def test_standard_w(self):
        est = average_fidelity_mc(standard_w(), 2, 100_000, 0)
        assert est.mean == pytest.approx(0.9809, abs=2e-3)

    def test_matches_outcome_table_average(self):
        # the estimator against the mean and standard error of Σ_r P(r)·F(r) read
        # off the outcome table at the weights p = |amp0|² the estimator draws
        samples = 300
        for n in (3, 8, 12):
            sv = random_state(n, n)
            for bob in (0, n - 1):
                form = schmidt_form(sv, bob)
                for seed in range(3):
                    est = average_fidelity_mc(sv, bob, samples, seed)
                    p = np.random.default_rng(seed).random(samples)
                    values = [sum(r.prob * r.fidelity
                                  for r in outcome_table(InfoQubit(math.sqrt(w), math.sqrt(1.0 - w)), form))
                              for w in p]
                    assert abs(est.mean - np.mean(values)) <= 1e-14
                    stderr = np.std(values, ddof=1) / math.sqrt(samples)
                    assert est.stderr == pytest.approx(stderr, rel=1e-9, abs=0)

    def test_maf_law_on_random_resources(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            for _ in range(7):
                sv = random_state(n, rng)
                bob = int(rng.integers(n))
                est = average_fidelity_mc(sv, bob, 100_000, int(rng.integers(1 << 31)))
                target = maf(concurrence_via_density(sv, bob))
                assert abs(est.mean - target) < 5e-3
                assert abs(est.mean - target) < 3 * est.stderr + 1e-12

    def test_deterministic(self):
        w = standard_w()
        a = average_fidelity_mc(w, 2, 1000, 99)
        b = average_fidelity_mc(w, 2, 1000, 99)
        assert a == b

    def test_rejects_bad_sample_count(self):
        # one sample has no standard error: its spread is taken with ddof = 1
        for samples in (0, 1):
            with pytest.raises(OutOfRange, match=f"2..{protocol.MC_MAX_SAMPLES}"):
                average_fidelity_mc(ghz(3), 2, samples, 0)

    # the cap's edge, 2³⁰ + 1 and a count far beyond
    @pytest.mark.parametrize("samples", [protocol.MC_MAX_SAMPLES + 1, (1 << 30) + 1, 100_000_000_000])
    def test_refuses_counts_beyond_the_cap_before_drawing(self, monkeypatch, samples):
        monkeypatch.setattr(protocol, "_generator", _no_draws)
        with pytest.raises(OutOfRange, match=str(protocol.MC_MAX_SAMPLES)):
            average_fidelity_mc(ghz(3), 2, samples, 0)

    @pytest.mark.parametrize("samples", [2.5, 1e3, True, np.float64(10.0)])
    def test_refuses_non_integer_counts_before_drawing(self, monkeypatch, samples):
        monkeypatch.setattr(protocol, "_generator", _no_draws)
        with pytest.raises(OutOfRange, match="integer"):
            average_fidelity_mc(ghz(3), 2, samples, 0)

    def test_valid_count_reaches_the_patched_draw(self, monkeypatch):
        # positive control for the two tests above: the patch is on the path
        monkeypatch.setattr(protocol, "_generator", _no_draws)
        with pytest.raises(AssertionError, match="drew samples"):
            average_fidelity_mc(ghz(3), 2, 10, 0)

    def test_accepts_numpy_integer_count(self):
        assert average_fidelity_mc(ghz(3), 2, np.int64(100), 0).samples == 100

    @pytest.mark.parametrize("n", range(2, 13))
    def test_equal_coefficients_give_zero_stderr(self, n):
        # with Ā = B̄ every sample is the same double Ā² + B̄², so the spread is
        # exactly 0; with Ā = B̄ = fl(√½) that double is 1 + 2⁻⁵², which the
        # clamp of the mean reads as 1
        sv = ghz(n)
        for bob in range(n):
            form = schmidt_form(sv, bob)
            assert form.coeff0 == form.coeff1
            for samples in (2, 1000, 10_007, protocol.MC_MAX_SAMPLES):
                est = average_fidelity_mc(sv, bob, samples, bob)
                assert est.stderr == 0.0
                assert est.mean == 1.0

    @pytest.mark.parametrize("sv, bob", [
        *(pytest.param(random_state(n, 400 + n), bob, id=f"haar{n}-{bob}")
          for n in (3, 8, 12) for bob in (0, n // 2, n - 1)),
        *(pytest.param(w_general(0.5, 0.5, SQRT_HALF), bob, id=f"w-{bob}") for bob in (0, 1)),
    ])
    def test_spread_is_the_dephasing_channels(self, sv, bob):
        # each sample is F(p) = 1 − 2(1 − C)·p(1 − p) with p uniform on [0, 1],
        # whose standard deviation is 2(1 − C)·√(1/30 − 1/36) = (1 − C)/√45
        samples = 200_000
        want = (1.0 - schmidt_form(sv, bob).concurrence) / math.sqrt(45.0)
        for seed in range(5):
            est = average_fidelity_mc(sv, bob, samples, seed)
            assert est.stderr * math.sqrt(samples) == pytest.approx(want, rel=0.01)

    def test_perfect_w_state_has_no_spread(self):
        # the W-class resource that is perfect toward qubit 2 has Ā = B̄, as GHZ has
        sv = w_general(0.5, 0.5, SQRT_HALF)
        form = schmidt_form(sv, 2)
        assert form.coeff0 == form.coeff1
        assert average_fidelity_mc(sv, 2, 200_000, 0).stderr == 0.0


def _no_draws(*args):
    raise AssertionError("drew samples")


def _summed_fidelities(p, form):
    ca, cb = form.coeff0, form.coeff1
    return (cb + p * (ca - cb)) ** 2 + (ca - p * (ca - cb)) ** 2


class TestMonteCarloDraw:
    def test_one_draw_is_the_plain_reduction(self):
        # each sample is (S − k/4) + k·h with h = (p − ½)², S = Ā² + B̄², k = 2(Ā − B̄)²
        sv = random_state(3, 11)
        form = schmidt_form(sv, 1)
        ca, cb = form.coeff0, form.coeff1
        s, k = ca * ca + cb * cb, 2.0 * (ca - cb) * (ca - cb)
        h = (np.random.default_rng(8).random(1000) - 0.5) ** 2
        est = average_fidelity_mc(sv, 1, 1000, 8)
        assert est.mean == (s - k / 4) + k * float(h.mean())
        assert est.stderr == k * float(h.std(ddof=1)) / math.sqrt(1000)

    def test_an_odd_count_is_one_draw(self):
        # one call is one draw of `samples` doubles, at any count up to the cap
        sv = random_state(4, 12)
        p = np.random.default_rng(5).random(3517)
        values = _summed_fidelities(p, schmidt_form(sv, 2))
        est = average_fidelity_mc(sv, 2, 3517, 5)
        assert est.samples == 3517
        assert est.mean == pytest.approx(values.mean(), rel=1e-14)
        assert est.stderr == pytest.approx(values.std(ddof=1) / math.sqrt(3517), rel=1e-12)

    def test_a_full_draw_peaks_at_one_float_array(self):
        # the draws are reduced in place: one float64 array of MC_MAX_SAMPLES values
        sv = random_state(3, 13)
        schmidt_form(sv, 2)
        tracemalloc.start()
        try:
            average_fidelity_mc(sv, 2, protocol.MC_MAX_SAMPLES, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 8 * protocol.MC_MAX_SAMPLES
