"""The package scales a complex array by a real d as x * (1.0 / d), not x / d.

numpy's x / d runs its complex-division loop, which for the divisor (d, 0)
computes (re + im·0)·(1/d) and (im − re·0)·(1/d): the same nonzero bits as the
multiply, at several times the cost. That holds only as long as numpy divides
this way, so these tests recompute the division and compare every nonzero
float bit for bit; a zero component is compared by value, since the two loops
may give it opposite signs.
"""

import math

import numpy as np
import pytest

from helpers import haar_info_samples
from sqtkit import (
    StateVector,
    concurrence_via_density,
    new_state,
    random_state,
    schmidt_form,
)
from sqtkit.schmidt import DEGENERATE_TOL, _gram, _receiver_blocks, _top_root
from sqtkit.statevec import _norm


def assert_same_bits(new, old):
    """Equal values everywhere and equal bits on every nonzero float."""
    new = np.ascontiguousarray(new, dtype=complex).view(np.float64)
    old = np.ascontiguousarray(old, dtype=complex).view(np.float64)
    assert np.array_equal(new, old)  # zeros by value: +0.0 == -0.0
    nonzero = new != 0.0
    assert np.array_equal(new.view(np.uint64)[nonzero], old.view(np.uint64)[nonzero])


def gaussian(n: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)


def drifted(raw: np.ndarray, drift: float = 4e-10) -> np.ndarray:
    """raw normalized, then off unit norm by `drift`, so renormalizing changes bits."""
    return raw / np.linalg.norm(raw) * (1.0 + drift)


def with_zeros_and_subnormals(n: int, seed: int) -> np.ndarray:
    amps = gaussian(n, seed)
    amps.real[::5] = -0.0
    amps.imag[::7] = 0.0
    amps.imag[3::11] = -0.0
    amps.real[1::13] = 5e-324
    amps.imag[2::9] = -3e-310
    return drifted(amps)


def old_branches(sv: StateVector, bob: int):
    """schmidt_form's branches with the division, as the package computed them before."""
    rows = _receiver_blocks(sv, bob)
    gram = _gram(rows)
    z = _top_root(*gram)
    scale = math.sqrt(1.0 + abs(z) ** 2)
    if z:
        raw0 = rows[0] + z.conjugate() * rows[1]
        raw1 = rows[1] - z * rows[0]
        c0, c1 = _norm(raw0) / scale, _norm(raw1) / scale
    else:
        raw0, raw1, (c0, c1, _) = rows[0], rows[1], gram
    if c1 > c0:
        c0, c1, raw0, raw1 = c1, c0, raw1, raw0
    b0 = raw0 / (c0 * scale)
    if c1 > DEGENERATE_TOL:
        raw1 = raw1 - np.vdot(b0, raw1) * b0
        return b0, raw1 / _norm(raw1)
    j = int(np.argmin(np.abs(b0)))
    v = -b0 * np.conj(b0[j])
    v[j] += 1.0
    return b0, v / _norm(v)


def old_concurrence_via_density(sv: StateVector, bob: int) -> float:
    rows = sv.amps.reshape(1 << bob, 2, -1)
    x, y = rows[:, 0].ravel(), rows[:, 1].ravel()
    r00 = _norm(x)
    if r00 == 0.0:
        return 0.0
    q = x / r00
    for _ in range(2):
        y = y - np.vdot(q, y) * q
    return 2.0 * r00 * _norm(y)


def resources():
    """Haar states at n = 2..12, the same with zeros and subnormals, an
    unequal GHZ (z = 0 with the blocks swapped) and a product state (the
    minor branch is the orthogonal filler)."""
    for n in range(2, 13):
        yield f"haar-{n}", new_state(n, drifted(gaussian(n, 100 + n)))
        yield f"zeros-{n}", new_state(n, with_zeros_and_subnormals(n, 200 + n))
    ghz = np.zeros(8, dtype=complex)
    ghz[0], ghz[7] = 0.6, -0.8j
    yield "unequal-ghz", new_state(3, ghz)
    yield "product", new_state(4, drifted(np.kron(gaussian(1, 7), gaussian(3, 8))))


RESOURCES = list(resources())


@pytest.mark.parametrize("amps", [
    np.array([complex(-0.0, 1.0), complex(-0.0, -1.0), complex(1.0, -0.0), complex(-1.0, -0.0),
              complex(-0.0, -0.0), complex(5e-324, -5e-324), complex(-2.5e-308, 1e-310)]),
    gaussian(12, 1),
    with_zeros_and_subnormals(8, 2),
], ids=["signed-zeros-and-subnormals", "gaussian-12", "sprinkled-8"])
@pytest.mark.parametrize("d", [1.0 + 4e-10, 0.7071067811865476, 3.0, 1e-300, 1e300])
def test_numpy_divides_by_a_real_as_the_reciprocal_multiply(amps, d):
    assert_same_bits(amps * (1.0 / d), amps / d)


@pytest.mark.parametrize("n", range(1, 13))
def test_new_state_on_haar_vectors(n):
    raw = drifted(gaussian(n, n))
    assert_same_bits(new_state(n, raw).amps, raw / StateVector(n, raw).norm())


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
def test_new_state_with_signed_zeros_and_subnormals(n):
    raw = with_zeros_and_subnormals(n, 50 + n)
    assert_same_bits(new_state(n, raw).amps, raw / StateVector(n, raw).norm())


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_random_state_against_its_gaussian_draws(n, seed):
    raw = gaussian(n, seed)
    assert_same_bits(random_state(n, seed).amps, raw / _norm(raw))


@pytest.mark.parametrize("count", [1, 2, 1000])
def test_haar_info_samples(count):
    gen = np.random.default_rng(count)
    raw = gen.standard_normal((count, 2)) + 1j * gen.standard_normal((count, 2))
    assert_same_bits(haar_info_samples(count, count), raw / np.linalg.norm(raw, axis=1, keepdims=True))


@pytest.mark.parametrize("name, sv", RESOURCES, ids=[name for name, _ in RESOURCES])
def test_schmidt_branches(name, sv):
    for bob in sorted({0, sv.n // 2, sv.n - 1}):
        form = schmidt_form(sv, bob)
        b0, b1 = old_branches(sv, bob)
        assert_same_bits(form.branch0, b0)
        assert_same_bits(form.branch1, b1)


@pytest.mark.parametrize("name, sv", RESOURCES, ids=[name for name, _ in RESOURCES])
def test_concurrence_via_density(name, sv):
    for bob in sorted({0, sv.n // 2, sv.n - 1}):
        assert_same_bits(concurrence_via_density(sv, bob), old_concurrence_via_density(sv, bob))
