import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqtkit
from sqtkit import ghz, new_state, random_state
from sqtkit import protocol
from sqtkit.cli import document_dict, load_document, main

SQRT_HALF = math.sqrt(0.5)


def write_doc(path, n, amps, bob=None, label=None):
    doc = {"n": n, "amplitudes": [[a.real, a.imag] for a in np.asarray(amps, dtype=complex)]}
    if bob is not None:
        doc["bob"] = bob
    if label is not None:
        doc["label"] = label
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    return write_doc(tmp_path / "ghz.json", 3, ghz(3).amps, label="ghz")


@pytest.fixture
def w_file(tmp_path):
    s = 1 / math.sqrt(3)
    return write_doc(tmp_path / "w.json", 3, [0, s, s, 0, s, 0, 0, 0], label="w")


class TestAnalyze:
    def test_ghz_text(self, ghz_file, capsys):
        assert main(["analyze", ghz_file]) == 0
        out = capsys.readouterr().out
        assert "concurrence:        1.000000" in out
        assert "max avg fidelity:   1.000000" in out

    def test_ghz_json_reads_exactly_one(self, ghz_file, capsys):
        # the density oracle reads 1 + 2⁻⁵² while the clamped form reads 1
        assert main(["analyze", ghz_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["concurrence"] == 1.0 and doc["maf"] == 1.0
        assert doc["agreement_delta"] <= 2.3e-16

    def test_product_state(self, tmp_path, capsys):
        path = write_doc(tmp_path / "z.json", 3, [1, 0, 0, 0, 0, 0, 0, 0])
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "concurrence:        0.000000" in out
        assert "max avg fidelity:   0.666667" in out

    def test_w_values(self, w_file, capsys):
        assert main(["analyze", w_file]) == 0
        out = capsys.readouterr().out
        assert "concurrence:        0.942809" in out
        assert "max avg fidelity:   0.980936" in out

    def test_json_matches_text_digits(self, w_file, capsys):
        main(["analyze", w_file])
        text = capsys.readouterr().out
        main(["analyze", w_file, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        for key, text_label in [
            ("coeff0", "schmidt coeff 0"),
            ("coeff1", "schmidt coeff 1"),
            ("concurrence", "concurrence"),
            ("maf", "max avg fidelity"),
        ]:
            line = next(l for l in text.splitlines() if l.startswith(text_label + ":"))
            printed = float(line.split()[-1])
            assert f"{doc[key]:.6f}" == f"{printed:.6f}"

    def test_bob_override(self, tmp_path, capsys):
        # product on qubit 2 but entangled between 0 and 1
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = SQRT_HALF
        amps[0b110] = SQRT_HALF
        path = write_doc(tmp_path / "pair.json", 3, amps)
        main(["analyze", path, "--bob", "2"])
        assert "concurrence:        0.000000" in capsys.readouterr().out
        main(["analyze", path, "--bob", "0"])
        assert "concurrence:        1.000000" in capsys.readouterr().out


    def test_product_state_passes_oracle_gate(self, tmp_path, capsys):
        # ψ_rest ⊗ (0.6|0⟩ + 0.8i|1⟩): a formed-ρ determinant once put the
        # density route ~1e-8 off and the command exited 3
        rest = random_state(4, np.random.default_rng(0)).amps
        path = write_doc(tmp_path / "prod.json", 5, np.kron(rest, [0.6, 0.8j]))
        assert main(["analyze", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["agreement_delta"] < 1e-14


@pytest.mark.parametrize(
    "argv", [["analyze"], ["check"], ["teleport", "--info", "1,0,0,0"]], ids=lambda a: a[0]
)
def test_nan_document_exit_two(tmp_path, argv):
    amps = ghz(3).amps.copy()
    amps[3] = float("nan")
    path = write_doc(tmp_path / "nan.json", 3, amps)
    assert main([argv[0], path, *argv[1:]]) == 2


class TestCheck:
    def test_perfect_exit_zero(self, ghz_file, capsys):
        assert main(["check", ghz_file]) == 0
        assert "verdict:            perfect" in capsys.readouterr().out

    def test_imperfect_exit_one(self, w_file, capsys):
        assert main(["check", w_file]) == 1
        out = capsys.readouterr().out
        assert "residual balance:   0.333333" in out
        assert "verdict:            not perfect" in out

    def test_amp_form_lines_only_for_three_qubits(self, tmp_path, capsys):
        path = write_doc(tmp_path / "bell.json", 2, [SQRT_HALF, 0, 0, SQRT_HALF])
        assert main(["check", path]) == 0
        assert "amp form" not in capsys.readouterr().out

    def test_json_fields(self, w_file, capsys):
        main(["check", w_file, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False
        assert doc["residual_balance"] == pytest.approx(1 / 3, abs=1e-12)
        assert doc["amp_residual_balance"] == pytest.approx(1 / 3, abs=1e-12)

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["check", str(bad)]) == 2

    def test_missing_file_exit_two(self):
        assert main(["check", "/no/such/file.json"]) == 2

    def test_unnormalized_exit_two(self, tmp_path):
        path = write_doc(tmp_path / "un.json", 2, [1, 0, 0, 0.1])
        assert main(["check", path]) == 2


class TestTeleport:
    def test_table_perfect_resource(self, ghz_file, capsys):
        assert main(["teleport", ghz_file, "--info", "0.6,0,0.8,0"]) == 0
        out = capsys.readouterr().out
        assert out.count("1.000000") >= 4
        assert "sum P(r)F(r): 1.000000" in out

    def test_known_partial_fidelity(self, tmp_path, capsys):
        amps = [math.cos(math.pi / 6), 0, 0, math.sin(math.pi / 6)]
        path = write_doc(tmp_path / "t.json", 2, amps)
        s = SQRT_HALF
        assert main(["teleport", path, "--info", f"{s},0,{s},0"]) == 0
        assert "0.933013" in capsys.readouterr().out

    def test_seed_1_haar_draw_is_pinned(self, tmp_path, capsys):
        # the same pin as the CI smoke step, bit for bit
        path = str(tmp_path / "ghz.json")
        assert main(["gen", "ghz", "3", "-o", path]) == 0
        capsys.readouterr()
        assert main(["teleport", path, "--haar", "--seed", "1", "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)["info"]
        assert info == [[0.21424427007839494, 0.20485384406841473], [0.5093606231982167, -0.8078898754434873]]

    def test_haar_info_deterministic(self, w_file, capsys):
        main(["teleport", w_file, "--haar", "--seed", "5", "--format", "json"])
        first = capsys.readouterr().out
        main(["teleport", w_file, "--haar", "--seed", "5", "--format", "json"])
        assert first == capsys.readouterr().out

    def test_mc_mode(self, ghz_file, capsys):
        assert main(["teleport", ghz_file, "--samples", "100000"]) == 0
        out = capsys.readouterr().out
        assert "mc estimate:        1.000000" in out
        assert "closed form (2+C)/3: 1.000000" in out

    def test_mc_mode_json(self, w_file, capsys):
        main(["teleport", w_file, "--samples", "50000", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"] == pytest.approx(doc["closed_form"], abs=5e-3)

    # the cap's edge, 2³⁰ + 1 and a count far beyond
    @pytest.mark.parametrize("samples", [protocol.MC_MAX_SAMPLES + 1, (1 << 30) + 1, 100_000_000_000])
    def test_samples_beyond_the_cap_exit_two(self, ghz_file, capsys, samples):
        assert main(["teleport", ghz_file, "--samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(protocol.MC_MAX_SAMPLES) in captured.err

    def test_unnormalized_info_exit_two(self, ghz_file):
        assert main(["teleport", ghz_file, "--info", "1,0,1,0"]) == 2

    def test_missing_info_exit_two(self, ghz_file):
        with pytest.raises(SystemExit) as exc:
            main(["teleport", ghz_file])
        assert exc.value.code == 2

    @pytest.mark.parametrize("modes", [["--info=1,0,0,0", "--haar"], ["--haar", "--samples", "10"],
                                       ["--info=1,0,0,0", "--samples", "10"],
                                       ["--info=1,0,0,0", "--haar", "--samples", "10"]],
                             ids=["info-haar", "haar-samples", "info-samples", "all-three"])
    def test_modes_are_exclusive(self, ghz_file, capsys, modes):
        with pytest.raises(SystemExit) as exc:
            main(["teleport", ghz_file, *modes])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    # one sample has no standard error to report
    @pytest.mark.parametrize("samples", ["0", "-1", "1"])
    def test_non_positive_samples_exit_two(self, ghz_file, capsys, samples):
        assert main(["teleport", ghz_file, "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: samples must be an integer")

    def test_nan_info_exit_two(self, ghz_file):
        assert main(["teleport", ghz_file, "--info", "nan,0,1,0"]) == 2

    @pytest.mark.parametrize("info, norm", [("1e200,0,0,0", "inf"), ("1.7e308,1.7e308,0,0", "inf")],
                             ids=["1e200,0,0,0", "1.7e308,1.7e308,0,0"])
    def test_overflowing_info_prints_only_the_error(self, ghz_file, info, norm):
        # a subprocess, so that a numpy RuntimeWarning would reach stderr
        env = dict(os.environ, PYTHONPATH=str(Path(sqtkit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "sqtkit.cli", "teleport", ghz_file, f"--info={info}"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: state norm {norm} deviates from 1 by more than 1e-09"]


# family -> (library constructor, parameters, the gen flags it reads with a value each,
# in the constructor's argument order)
GEN_CASES = {
    "ghz": (sqtkit.ghz, [3], {}),
    "w": (sqtkit.w_general, [0.5, 0.5, SQRT_HALF], {}),
    "separable": (sqtkit.separable_branch_family, [0.5, 0.3], {}),
    "schmidt": (sqtkit.schmidt_branch_family, [0.3, 0.4, 1.2, 0.5], {}),
    "acin": (sqtkit.acin_canonical, [0.5, 0.0, 0.3, 0.4, SQRT_HALF], {"theta": 0.5}),
    "acinalt": (sqtkit.acin_alternative, [0.5, 0.0, SQRT_HALF, 0.5, 0.0], {"theta": -0.0}),
    "counterexample": (sqtkit.zha_counterexample, [0.4, 0.3], {"theta": 0.1, "delta": -0.0, "gamma": 0.3}),
    "random": (sqtkit.random_state, [3], {"seed": 9}),
}
# the 26 of the 32 (family, flag) pairs that gen refuses
UNREAD_FLAGS = [(family, flag) for family, (_, _, reads) in GEN_CASES.items()
                for flag in ("theta", "delta", "gamma", "seed") if flag not in reads]


class TestGen:
    @pytest.mark.parametrize("family, flag", UNREAD_FLAGS, ids=[f"{f}-{g}" for f, g in UNREAD_FLAGS])
    def test_unread_flag_is_refused(self, family, flag, capsys):
        _, params, _ = GEN_CASES[family]
        assert main(["gen", family, *map(repr, params), f"--{flag}", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and f"--{flag}" in lines[0]

    @pytest.mark.parametrize("family, with_flags", [(f, False) for f in GEN_CASES] + [
        (f, True) for f, (_, _, reads) in GEN_CASES.items() if reads])
    def test_document_is_the_library_state(self, family, with_flags, capsys):
        build, params, reads = GEN_CASES[family]
        given = reads if with_flags else {}
        argv = ["gen", family, *map(repr, params), *(f"--{flag}={v!r}" for flag, v in given.items())]
        assert main(argv) == 0
        flags = {flag: given.get(flag, 0) for flag in reads}  # an absent flag stands for 0
        sv = build(*params, *flags.values())
        label = f"{family}({', '.join([*map(repr, params), *(f'{f}={v!r}' for f, v in flags.items())])})"
        assert capsys.readouterr().out == json.dumps(document_dict(sv, sv.n - 1, label)) + "\n"

    @pytest.mark.parametrize("argv, label", [
        (["random", "2", "--seed", "9"], "random(2, seed=9)"),
        (["random", "2", "--seed", "1"], "random(2, seed=1)"),
        (["random", "2"], "random(2, seed=0)"),
        (["acin", "0.5", "0", "0.3", "0.4", "0.7071067811865476", "--theta", "0.5"],
         "acin(0.5, 0.0, 0.3, 0.4, 0.7071067811865476, theta=0.5)"),
    ], ids=["seed-9", "seed-1", "no-seed", "acin-theta"])
    def test_label_names_the_flags_that_built_the_state(self, argv, label, capsys):
        assert main(["gen", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == label

    def test_ghz_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gen", "ghz", "3", "-o", str(out)]) == 0
        sv, bob, label = load_document(str(out))
        assert bob == 2 and label == "ghz(3)"
        np.testing.assert_allclose(sv.amps, ghz(3).amps, atol=1e-15)
        assert main(["analyze", str(out)]) == 0
        assert "concurrence:        1.000000" in capsys.readouterr().out

    def test_counterexample_passes_check(self, tmp_path):
        out = tmp_path / "ce.json"
        assert main(
            ["gen", "counterexample", "0.4", "0.3", "--theta", "0.1",
             "--delta", "0.2", "--gamma", "0.3", "-o", str(out)]
        ) == 0
        assert main(["check", str(out)]) == 0

    def test_unnormalized_w_exit_two(self, tmp_path, capsys):
        assert main(["gen", "w", "0.7", "0.7", "0.2", "-o", str(tmp_path / "w.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_amplitudes_print_only_the_error(self, tmp_path):
        # a subprocess, so that a numpy RuntimeWarning would reach stderr
        env = dict(os.environ, PYTHONPATH=str(Path(sqtkit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "sqtkit.cli",
             "gen", "w", "1e308", "1e308", "0", "-o", str(tmp_path / "w.json")],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: state norm inf deviates from 1 by more than 1e-09"
        ]

    def test_constraint_violation_names_inequality(self, tmp_path, capsys):
        code = main(["gen", "separable", "0.6", "0.5", "-o", str(tmp_path / "s.json")])
        assert code == 2
        assert "a² + b² must be ≤ 1/2" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["3.5", "nan", "inf"])
    def test_non_integer_qubit_count_exit_two(self, count, capsys):
        # the family itself refuses a qubit count that is not integral
        assert main(["gen", "ghz", count]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: GHZ needs an integer n ≥ 2, got {float(count)!r}"
        ]

    def test_non_integer_random_qubit_count_exit_two(self, capsys):
        assert main(["gen", "random", "2.5"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: need an integer n ≥ 1, got 2.5"]

    def test_wrong_parameter_count(self, tmp_path, capsys):
        assert main(["gen", "w", "0.5", "-o", str(tmp_path / "w.json")]) == 2

    def test_unknown_family_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "nosuch", "1"])
        assert exc.value.code == 2

    def test_stdout_document(self, capsys):
        assert main(["gen", "ghz", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 2 and len(doc["amplitudes"]) == 4

    def test_acin_with_phase_passes_check(self, tmp_path):
        out = tmp_path / "acin.json"
        k4 = repr(SQRT_HALF)
        assert main(["gen", "acin", "0.5", "0", "0.3", "0.4", k4, "--theta", "0.5",
                     "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    def test_random_family_seeded(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen", "random", "3", "--seed", "9", "-o", str(a)])
        main(["gen", "random", "3", "--seed", "9", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_gen_analyze_concurrence_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sep.json"
        main(["gen", "separable", "0.5", "0.3", "-o", str(out)])
        main(["analyze", str(out), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["concurrence"] == pytest.approx(1.0, abs=1e-9)


class TestInternalErrorPath:
    def test_unexpected_exception_maps_to_three(self, ghz_file, monkeypatch):
        import sqtkit.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("broken invariant")

        monkeypatch.setattr(cli, "schmidt_form", boom)
        assert main(["analyze", ghz_file]) == 3

    def test_oracle_disagreement_maps_to_three(self, ghz_file, monkeypatch):
        import sqtkit.cli as cli

        monkeypatch.setattr(cli, "concurrence_via_density", lambda sv, bob: 0.5)
        assert main(["analyze", ghz_file]) == 3


GOLDEN_W = {
    "analyze": ([], 0, [
        "state: w (n=3), receiver qubit 2",
        "schmidt coeff 0:    0.816497",
        "schmidt coeff 1:    0.577350",
        "rotation z:         0.000000+0.000000j",
        "concurrence:        0.942809",
        "oracle concurrence: 0.942809",
        "agreement delta:    0.000000",
        "max avg fidelity:   0.980936",
    ]),
    "check": ([], 1, [
        "state: w (n=3), receiver qubit 2",
        "residual balance:   0.333333",
        "residual overlap:   0.000000",
        "amp form balance:   0.333333",
        "amp form overlap:   0.000000",
        "tolerance:          1.0e-09",
        "verdict:            not perfect",
    ]),
    "teleport-info": (["--info", "0.6,0,0,0.8"], 0, [
        "state: w (n=3), receiver qubit 2",
        "info qubit: amp0=0.600000+0.000000j amp1=0.000000+0.800000j",
        "r  P(r)      correction  F(r)",
        "0  0.226667  U†          0.970934",
        "1  0.226667  σzU†        0.970934",
        "2  0.273333  σxU†        0.975896",
        "3  0.273333  σxσzU†      0.975896",
        "sum P(r)F(r): 0.973646",
    ]),
    "teleport-samples": (["--samples", "1000", "--seed", "2"], 0, [
        "state: w (n=3), receiver qubit 2",
        "samples:            1000",
        "mc estimate:        0.980868 ± 0.000264",
        "closed form (2+C)/3: 0.980936",
    ]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_W))
def test_golden_text_report(case, w_file, capsys):
    # every line and column of the text reports, not just one substring
    extra, code, lines = GOLDEN_W[case]
    assert main([case.split("-")[0], w_file, *extra]) == code
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("pair", [
    b'{"0": 0.7, "1": 0}',
    b'[1, "caf\xe9"]',
    b'"10"',
    b'[1, 0, 99]',
    b'[true, false]',
    b'[1' + b"0" * 400 + b', 0]',
], ids=["object-pair", "not-utf8", "string-pair", "three-values", "bools", "int-overflow"])
def test_malformed_pair_exit_two(pair, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"n": 2, "amplitudes": [' + pair + b', [0, 0], [0, 0], [0, 0]]}')
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_check_tol_must_be_positive_finite(tol, ghz_file, capsys):
    # the library's tolerance gate refuses it: one error line, no usage block
    assert main(["check", ghz_file, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: tolerance must be positive and finite, got {float(tol)!r}"]


@pytest.mark.parametrize(
    "argv",
    [["gen", "random", "3"], ["teleport", "DOC", "--haar"], ["teleport", "DOC", "--samples", "10"]],
    ids=["gen-random", "teleport-haar", "teleport-samples"],
)
def test_negative_seed_usage_error(argv, ghz_file, capsys):
    # the library's seed gate refuses it: one error line, no usage block
    assert main([ghz_file if a == "DOC" else a for a in argv] + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: seed must be None, an integer ≥ 0 or a Generator, got -1"]


GHZ2_PAIRS = '[[0.7071067811865476, 0], [0, 0], [0, 0], [0.7071067811865476, 0]]'


@pytest.mark.parametrize("doc, extra", [
    ('[1, 2]', []),
    ('{"n": 2.0, "amplitudes": %s}' % GHZ2_PAIRS, []),
    ('{"n": true, "amplitudes": %s}' % GHZ2_PAIRS, []),
    ('{"n": 2, "amplitudes": {"0": [1, 0]}}', []),
    ('{"n": 2, "amplitudes": %s, "bob": 1.5}' % GHZ2_PAIRS, []),
    ('{"n": 2, "amplitudes": %s, "label": 3}' % GHZ2_PAIRS, []),
    ('{"n": 2, "amplitudes": %s}' % GHZ2_PAIRS, ["--info=1,0,0"]),
    ('{"n": 2, "amplitudes": %s}' % GHZ2_PAIRS, ["--info=1,0,0,0,0"]),
    ('{"n": 2, "amplitudes": %s}' % GHZ2_PAIRS, ["--info=a,0,1,0"]),
], ids=["top-level-list", "float-n", "bool-n", "object-amplitudes", "float-bob", "int-label",
        "info-three-fields", "info-five-fields", "info-not-a-number"])
def test_cli_refusal_prints_one_error_line(doc, extra, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(doc, encoding="utf-8")
    command = "teleport" if extra else "analyze"
    assert main([command, str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")


@pytest.mark.parametrize("seed", ["0", "5"])
def test_info_refuses_seed(ghz_file, capsys, seed):
    assert main(["teleport", ghz_file, "--info=1,0,0,0", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --seed is read by --haar and --samples only; --info draws nothing"]


@pytest.mark.parametrize("mode", [["--haar"], ["--samples", "1000"]], ids=["haar", "samples"])
def test_absent_seed_draws_with_seed_zero(w_file, capsys, mode):
    assert main(["teleport", w_file, *mode, "--format", "json"]) == 0
    absent = capsys.readouterr().out
    assert main(["teleport", w_file, *mode, "--format", "json", "--seed", "0"]) == 0
    assert capsys.readouterr().out == absent


def test_check_tol_loosens_the_verdict(tmp_path):
    # |a001|² = 1/2 + 5e-9 puts the balance residual at 1e-8
    side = math.sqrt((0.5 - 5e-9) / 2)
    path = write_doc(tmp_path / "w.json", 3, [0, math.sqrt(0.5 + 5e-9), side, 0, side, 0, 0, 0])
    assert main(["check", path]) == 1
    assert main(["check", path, "--tol", "1e-6"]) == 0
