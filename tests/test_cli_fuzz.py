"""Seeded fuzz of the CLI document path: every generated document either
gives an answer or a typed refusal, never an internal error.

Documents have n in {−1, 0, 1, 2, 3, 4, 12, 13}, a random receiver from −2
to n + 1, and Haar amplitudes that are either scaled by 1e-300..1e300 or
carry a norm drift of ±1e-10..2e-9 (half of which the 1e-9 gate accepts).
`analyze`, `check` and `teleport --haar` run in process on each; exit code 1
is `check`'s "not perfect" and must not come from the other commands.

A second fuzz covers valid documents at the numerical edges, n in {2, 3, 4,
8, 12}: sparse states with 1–3 nonzero amplitudes, product states plus noise
of 1e-17..1e-6, and states with amplitudes as small as 5e-324 beside normal
ones. Every such document is valid, so each command must answer (`check`
with 0 or 1); it also runs `teleport --samples`, and a RuntimeWarning counts
as a failure.
"""

import json

import numpy as np
import pytest

from sqtkit.cli import main

DOCUMENTS = 200
QUBIT_COUNTS = (-1, 0, 1, 2, 3, 4, 12, 13)


def fuzz_document(rng) -> dict:
    n = int(rng.choice(QUBIT_COUNTS))
    dim = 2**n if n >= 0 else 1
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    if rng.random() < 0.5:
        amps *= 10.0 ** rng.uniform(-300, 300)
    else:
        amps *= 1.0 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-10, np.log10(2e-9))
    return {
        "n": n,
        "amplitudes": [[a.real, a.imag] for a in amps.tolist()],
        "bob": int(rng.integers(-2, n + 2)),
    }


def test_exit_codes_stay_typed(tmp_path, capsys):
    rng = np.random.default_rng(20261018)
    path = tmp_path / "doc.json"
    seen = set()
    for k in range(DOCUMENTS):
        doc = fuzz_document(rng)
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command, *extra in (("analyze",), ("check",), ("teleport", "--haar", "--seed", str(k))):
            code = main([command, str(path), *extra])
            allowed = {0, 1, 2} if command == "check" else {0, 2}
            assert code in allowed, (doc["n"], doc["bob"], command, code)
            seen.add((command, code))
        capsys.readouterr()
    # every command both answered and refused (Haar resources are never perfect)
    assert seen == {("analyze", 0), ("analyze", 2), ("check", 1), ("check", 2),
                    ("teleport", 0), ("teleport", 2)}


EDGE_QUBIT_COUNTS = (2, 3, 4, 8, 12)
EDGE_DOCUMENTS = 6  # per kind and qubit count


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def sparse_amplitudes(rng, n):
    amps = np.zeros(2**n, dtype=complex)
    support = rng.choice(2**n, size=int(rng.integers(1, 4)), replace=False)
    amps[support] = _unit(rng, support.size)
    return amps


def near_product_amplitudes(rng, n):
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        amps = np.kron(amps, _unit(rng, 2))
    amps += 10.0 ** rng.uniform(-17, -6) * _unit(rng, 2**n)
    return amps / np.linalg.norm(amps)


def tiny_amplitudes(rng, n):
    amps = sparse_amplitudes(rng, n)
    zeros = np.flatnonzero(amps == 0)
    tiny = rng.choice(zeros, size=min(zeros.size, int(rng.integers(1, 9))), replace=False)
    # 5e-324 is the smallest subnormal; its square, and the norm's share of it, is 0
    phases = rng.choice((1, -1, 1j, -1j), size=tiny.size)
    amps[tiny] = 5e-324 * 2.0 ** rng.integers(0, 64, size=tiny.size) * phases
    return amps


EDGE_KINDS = {"sparse": sparse_amplitudes, "near-product": near_product_amplitudes, "tiny": tiny_amplitudes}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_edge_documents_stay_typed(tmp_path, capsys):
    rng = np.random.default_rng(20261019)
    path = tmp_path / "doc.json"
    for kind, amplitudes in EDGE_KINDS.items():
        for n in EDGE_QUBIT_COUNTS:
            for k in range(EDGE_DOCUMENTS):
                amps = amplitudes(rng, n)
                doc = {"n": n, "amplitudes": [[a.real, a.imag] for a in amps.tolist()],
                       "bob": int(rng.integers(0, n))}
                path.write_text(json.dumps(doc), encoding="utf-8")
                for command, *extra in (("analyze",), ("check",),
                                        ("teleport", "--haar", "--seed", str(k)),
                                        ("teleport", "--samples", "100", "--seed", str(k))):
                    code = main([command, str(path), *extra])
                    # every document here is valid, so only check's "not perfect" may exit non-zero
                    allowed = {0, 1} if command == "check" else {0}
                    assert code in allowed, (kind, n, k, command, code, capsys.readouterr().err)
                capsys.readouterr()
