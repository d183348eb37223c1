import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from helpers import basis_state, measurement_basis
from sqtkit import protocol
from sqtkit import (
    CORRECTION_LABELS,
    InfoQubit,
    NotNormalized,
    OutOfRange,
    average_fidelity_mc,
    concurrence_via_density,
    correction_matrix,
    ghz,
    haar_info_samples,
    haar_random_info,
    maf,
    move_to_last_perm,
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


class TestMeasurementBasisDrivesTheRun:
    def test_joint_state_overlaps_are_the_born_weights(self):
        # run_teleport projects with the branch rows only; the explicit
        # (n+1)-qubit joint state projected onto measurement_basis must give
        # the same four weights, read off the drawn outcome across seeds
        rng = np.random.default_rng(41)
        cases = [(ghz(3), 2), (standard_w(), 0), (basis_state(4, 0b0110), 1)]
        cases += [(random_state(n, rng), int(rng.integers(n))) for n in range(2, 7) for _ in range(3)]
        for sv, bob in cases:
            info = haar_random_info(rng)
            rest_then_bob = permute_qubits(sv, move_to_last_perm(sv.n, bob))
            joint = np.kron([info.amp0, info.amp1], rest_then_bob.amps).reshape(-1, 2)
            weights = [
                float(np.linalg.norm(state.conj() @ joint) ** 2)
                for state in measurement_basis(schmidt_form(sv, bob))
            ]
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)
            unseen = {r for r, w in enumerate(weights) if w > 1e-2}
            for seed in range(500):
                record = run_teleport(info, sv, bob, seed=seed).record
                assert record.prob == pytest.approx(weights[record.outcome], abs=1e-12)
                unseen.discard(record.outcome)
                if not unseen:
                    break
            assert not unseen, (sv.n, bob, weights)


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


def test_correction_matrix_takes_numpy_outcomes():
    basis = schmidt_form(standard_w(), 2).receiver_basis
    for r in range(4):
        np.testing.assert_array_equal(correction_matrix(np.int64(r), basis), correction_matrix(r, basis))


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


@pytest.mark.parametrize("seed", [-1, 1.5, "x", True, False], ids=repr)
@pytest.mark.parametrize("name", SEEDED_CALLS)
def test_bad_seed_is_refused(name, seed):
    with pytest.raises(OutOfRange, match="seed"):
        SEEDED_CALLS[name](seed)


@pytest.mark.parametrize("name", SEEDED_CALLS)
def test_seed_forms_give_the_same_draws(name):
    call = SEEDED_CALLS[name]
    call(None)
    reference = call(7)
    for seed in (np.int64(7), np.random.default_rng(7)):
        np.testing.assert_array_equal(call(seed), reference)


class TestHaarSampling:
    def test_samples_are_normalized(self):
        pairs = haar_info_samples(10_000, 5)
        norms = np.abs(pairs[:, 0]) ** 2 + np.abs(pairs[:, 1]) ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_single_draw_matches_batch(self):
        info = haar_random_info(123)
        pair = haar_info_samples(1, 123)[0]
        assert info.amp0 == complex(pair[0]) and info.amp1 == complex(pair[1])

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

    def test_shared_draw_leaves_the_generator_where_two_draws_do(self):
        one, two = np.random.default_rng(4), np.random.default_rng(4)
        protocol._haar_normals(7, one)
        two.standard_normal((7, 2)), two.standard_normal((7, 2))
        assert one.standard_normal(5).tobytes() == two.standard_normal(5).tobytes()

    @pytest.mark.parametrize("count", [1, 2, 7, 1000, 10_000])
    def test_mc_weights_match_the_complex_samples(self, count):
        for seed in range(50):
            weights = protocol._haar_weights(count, np.random.default_rng(seed))
            pa = np.abs(haar_info_samples(count, seed)[:, 0]) ** 2
            assert np.max(np.abs(weights - pa)) <= 1e-15

    @pytest.mark.parametrize("count", [2.5, 1e3, True])
    def test_rejects_non_integer_count(self, count):
        with pytest.raises(OutOfRange, match="integer"):
            haar_info_samples(count)


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
        # the vectorized estimator and the per-sample table must agree exactly
        sv = random_state(3, 11)
        form = schmidt_form(sv, 2)
        pairs = haar_info_samples(50, 17)
        by_table = np.mean(
            [
                sum(r.prob * r.fidelity for r in outcome_table(InfoQubit(*p), form))
                for p in pairs
            ]
        )
        pa = np.abs(pairs[:, 0]) ** 2
        vec = np.mean(
            (pa * form.coeff0 + (1 - pa) * form.coeff1) ** 2
            + ((1 - pa) * form.coeff0 + pa * form.coeff1) ** 2
        )
        assert vec == pytest.approx(by_table, abs=1e-12)

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
        with pytest.raises(OutOfRange):
            average_fidelity_mc(ghz(3), 2, 0, 0)

    @pytest.mark.parametrize("samples", [protocol.MC_MAX_SAMPLES + 1, 100_000_000_000])
    def test_refuses_counts_beyond_the_cap_before_drawing(self, monkeypatch, samples):
        monkeypatch.setattr(protocol, "_haar_normals", _no_draws)
        with pytest.raises(OutOfRange, match=str(protocol.MC_MAX_SAMPLES)):
            average_fidelity_mc(ghz(3), 2, samples, 0)

    @pytest.mark.parametrize("samples", [2.5, 1e3, True, np.float64(10.0)])
    def test_refuses_non_integer_counts_before_drawing(self, monkeypatch, samples):
        monkeypatch.setattr(protocol, "_haar_normals", _no_draws)
        with pytest.raises(OutOfRange, match="integer"):
            average_fidelity_mc(ghz(3), 2, samples, 0)

    def test_valid_count_reaches_the_patched_draw(self, monkeypatch):
        # positive control for the two tests above: the patch is on the path
        monkeypatch.setattr(protocol, "_haar_normals", _no_draws)
        with pytest.raises(AssertionError, match="drew samples"):
            average_fidelity_mc(ghz(3), 2, 10, 0)

    def test_accepts_numpy_integer_count(self):
        assert average_fidelity_mc(ghz(3), 2, np.int64(100), 0).samples == 100


def _no_draws(*args):
    raise AssertionError("drew samples")


def _summed_fidelities(pairs, form):
    return _summed_fidelities_of_weights(np.abs(pairs[:, 0]) ** 2, form)


def _summed_fidelities_of_weights(pa, form):
    ca, cb = form.coeff0, form.coeff1
    return (pa * ca + (1 - pa) * cb) ** 2 + ((1 - pa) * ca + pa * cb) ** 2


class TestMonteCarloChunks:
    def test_single_chunk_is_the_plain_reduction(self, monkeypatch):
        sv = random_state(3, 11)
        x = protocol._haar_normals(1000, np.random.default_rng(8)) ** 2
        w = x[0] + x[1]
        pa = w[:, 0] / (w[:, 0] + w[:, 1])
        values = _summed_fidelities_of_weights(pa, schmidt_form(sv, 1))
        for chunk in (protocol.MC_CHUNK, 1000):
            monkeypatch.setattr(protocol, "MC_CHUNK", chunk)
            est = average_fidelity_mc(sv, 1, 1000, 8)
            assert est.mean == float(values.mean())
            assert est.stderr == float(values.std(ddof=1) / math.sqrt(1000))

    def test_chunks_merge_to_the_concatenated_draws(self, monkeypatch):
        monkeypatch.setattr(protocol, "MC_CHUNK", 1000)
        sv = random_state(4, 12)
        gen = np.random.default_rng(5)
        pairs = np.concatenate([haar_info_samples(size, gen) for size in (1000, 1000, 1000, 517)])
        values = _summed_fidelities(pairs, schmidt_form(sv, 2))
        est = average_fidelity_mc(sv, 2, 3517, 5)
        assert est.samples == 3517
        assert est.mean == pytest.approx(values.mean(), rel=1e-14)
        assert est.stderr == pytest.approx(values.std(ddof=1) / math.sqrt(3517), rel=1e-12)

    def test_peak_memory_does_not_grow_with_samples(self, monkeypatch):
        monkeypatch.setattr(protocol, "MC_CHUNK", 4096)
        sv = random_state(3, 13)
        peaks = []
        for samples in (4096, 40 * 4096):
            tracemalloc.start()
            try:
                average_fidelity_mc(sv, 2, samples, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # all draws at once would take ≥ 32 B per sample (the complex pairs)
        assert peaks[1] < 2 * peaks[0] < 40 * 4096 * 32
