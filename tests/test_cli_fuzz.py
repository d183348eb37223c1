"""Seeded fuzz of the CLI document path: every generated document either
gives an answer or a typed refusal, never an internal error.

Documents have n in {−1, 0, 1, 2, 3, 4, 12, 13}, a random receiver from −2
to n + 1, and Haar amplitudes that are either scaled by 1e-300..1e300 or
carry a norm drift of ±1e-10..2e-9 (half of which the 1e-9 gate accepts).
`analyze`, `check` and `teleport --haar` run in process on each; exit code 1
is `check`'s "not perfect" and must not come from the other commands.
"""

import json

import numpy as np

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
