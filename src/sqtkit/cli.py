"""Command-line interface: analyze, check, teleport, gen.

State files are single JSON documents:

    {"n": 3, "amplitudes": [[re, im], ...], "bob": 2, "label": "ghz(3)"}

with exactly 2^n [re, im] pairs. Amplitude index k corresponds to the bit
pattern of k with qubit 0 as the most significant bit; "bob" (optional, the
receiver qubit) defaults to n − 1 and "label" is free text.

Exit codes: 0 success (for `check`: conditions hold), 1 `check` conditions
fail, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

import numpy as np

from . import families
from .conditions import VERDICT_TOL, check_3qubit, check_general
from .errors import ConstraintViolated, InvalidDocument, SqtError
from .protocol import InfoQubit, average_fidelity_mc, haar_random_info, outcome_table
from .schmidt import concurrence_via_density, maf, schmidt_form
from .statevec import StateVector, new_state


def load_document(path: str) -> tuple[StateVector, int, str | None]:
    """Read and validate a state document; returns (state, bob, label)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
            raise InvalidDocument(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InvalidDocument(f"{path}: top-level value must be an object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidDocument(f"{path}: field 'n' must be an integer")
    pairs = doc.get("amplitudes")
    if not isinstance(pairs, list):
        raise InvalidDocument(f"{path}: field 'amplitudes' must be a list of [re, im] pairs")
    bad_pairs = InvalidDocument(f"{path}: amplitudes must be [re, im] number pairs")
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        raise bad_pairs
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:  # json.load gives true/false the type bool
        raise bad_pairs
    try:
        amps = np.array(flat, dtype=float).view(complex)
    except OverflowError as exc:  # an int beyond the float range
        raise bad_pairs from exc
    sv = new_state(n, amps)
    bob = doc.get("bob", n - 1)
    if not isinstance(bob, int) or isinstance(bob, bool):
        raise InvalidDocument(f"{path}: field 'bob' must be an integer")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InvalidDocument(f"{path}: field 'label' must be a string")
    return sv, bob, label


def document_dict(sv: StateVector, bob: int, label: str | None) -> dict:
    doc = {
        "n": sv.n,
        "amplitudes": [[float(a.real), float(a.imag)] for a in sv.amps],
        "bob": bob,
    }
    if label is not None:
        doc["label"] = label
    return doc


def _open(args) -> tuple[StateVector, int, dict]:
    """Load the document, apply --bob and start the report fields."""
    sv, bob, label = load_document(args.input)
    bob = bob if args.bob is None else args.bob
    return sv, bob, {"n": sv.n, "bob": bob, "label": label}


def _report(args, fields: dict, rows: list) -> None:
    """Print `fields` as JSON, or a header and the rows: (name, value) pairs or preformatted lines."""
    if args.format == "json":
        print(json.dumps(fields))
        return
    print(f"state: {fields['label'] or args.input} (n={fields['n']}), receiver qubit {fields['bob']}")
    for row in rows:
        print(row if isinstance(row, str) else f"{row[0] + ':':<19} {row[1]}")


# The rotation and density routes agree to ~1e-15 on every normalized state, so a
# larger gap means a broken route, not an unusual input: `analyze` then exits 3.
ORACLE_TOL = 1e-9


def cmd_analyze(args) -> int:
    sv, bob, fields = _open(args)
    form = schmidt_form(sv, bob)
    oracle = concurrence_via_density(sv, bob)
    delta = abs(form.concurrence - oracle)
    if not delta <= ORACLE_TOL:
        print(f"internal error: concurrence routes disagree by {delta}", file=sys.stderr)
        return 3
    fidelity = maf(form.concurrence)
    fields.update(coeff0=form.coeff0, coeff1=form.coeff1, z=[form.z.real, form.z.imag],
                  concurrence=form.concurrence, oracle_concurrence=oracle,
                  agreement_delta=delta, maf=fidelity)
    _report(args, fields, [
        ("schmidt coeff 0", f"{form.coeff0:.6f}"),
        ("schmidt coeff 1", f"{form.coeff1:.6f}"),
        ("rotation z", f"{form.z.real:.6f}{form.z.imag:+.6f}j"),
        ("concurrence", f"{form.concurrence:.6f}"),
        ("oracle concurrence", f"{oracle:.6f}"),
        ("agreement delta", f"{delta:.6f}"),
        ("max avg fidelity", f"{fidelity:.6f}"),
    ])
    return 0


def cmd_check(args) -> int:
    sv, bob, fields = _open(args)
    general = check_general(sv, bob, args.tol)
    fields.update(residual_balance=general.residual_balance, residual_overlap=general.residual_overlap,
                  tolerance=general.tolerance, verdict=general.verdict)
    rows = [("residual balance", f"{general.residual_balance:.6f}"),
            ("residual overlap", f"{general.residual_overlap:.6f}")]
    if sv.n == 3:
        amp_form = check_3qubit(sv, bob, args.tol)
        fields.update(amp_residual_balance=amp_form.residual_balance,
                      amp_residual_overlap=amp_form.residual_overlap)
        rows += [("amp form balance", f"{amp_form.residual_balance:.6f}"),
                 ("amp form overlap", f"{amp_form.residual_overlap:.6f}")]
    rows += [("tolerance", f"{general.tolerance:.1e}"),
             ("verdict", "perfect" if general.verdict else "not perfect")]
    _report(args, fields, rows)
    return 0 if general.verdict else 1


def _parse_info(args) -> InfoQubit:
    if args.haar:
        return haar_random_info(args.seed)
    parts = args.info.split(",")
    if len(parts) != 4:
        raise InvalidDocument("--info needs four comma-separated numbers: re0,im0,re1,im1")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidDocument(f"--info values must be numbers: {args.info}") from exc
    return InfoQubit(complex(vals[0], vals[1]), complex(vals[2], vals[3]))


def cmd_teleport(args) -> int:
    sv, bob, fields = _open(args)
    if args.samples is not None:
        est = average_fidelity_mc(sv, bob, args.samples, args.seed)
        form = schmidt_form(sv, bob)
        closed = maf(form.concurrence)
        fields.update(samples=est.samples, estimate=est.mean, stderr=est.stderr,
                      closed_form=closed, concurrence=form.concurrence)
        _report(args, fields, [
            ("samples", est.samples),
            ("mc estimate", f"{est.mean:.6f} ± {est.stderr:.6f}"),
            ("closed form (2+C)/3", f"{closed:.6f}"),
        ])
        return 0
    info = _parse_info(args)
    form = schmidt_form(sv, bob)
    records = outcome_table(info, form)
    total = sum(rec.prob * rec.fidelity for rec in records)
    fields.update(
        info=[[info.amp0.real, info.amp0.imag], [info.amp1.real, info.amp1.imag]],
        outcomes=[{"r": rec.outcome, "prob": rec.prob, "correction": rec.correction, "fidelity": rec.fidelity}
                  for rec in records],
        sum_pf=total,
    )
    _report(args, fields, [
        f"info qubit: amp0={info.amp0.real:.6f}{info.amp0.imag:+.6f}j "
        f"amp1={info.amp1.real:.6f}{info.amp1.imag:+.6f}j",
        "r  P(r)      correction  F(r)",
        *(f"{rec.outcome}  {rec.prob:.6f}  {rec.correction:<10}  {rec.fidelity:.6f}" for rec in records),
        f"sum P(r)F(r): {total:.6f}",
    ])
    return 0


def _qubit_count(x: float) -> int:
    if not x.is_integer():
        raise ConstraintViolated(f"qubit count must be an integer, got {x}")
    return int(x)


# family -> (parameter names, builder from (parameters, parsed arguments))
FAMILY_PARAMS = {
    "ghz": (("n",), lambda p, args: families.ghz(_qubit_count(p[0]))),
    "w": (("a100", "a010", "a001"), lambda p, args: families.w_general(*p)),
    "separable": (("a", "b"), lambda p, args: families.separable_branch_family(*p)),
    "schmidt": (("a", "b", "beta", "kappa"), lambda p, args: families.schmidt_branch_family(*p)),
    "acin": (("k0", "k1", "k2", "k3", "k4"),
             lambda p, args: families.acin_canonical(*p, args.theta)),
    "acinalt": (("a", "b", "c", "d", "f"),
                lambda p, args: families.acin_alternative(*p, args.theta)),
    "counterexample": (("a", "b"), lambda p, args: families.zha_counterexample(
        *p, args.theta, args.delta, args.gamma)),
    "random": (("n",), lambda p, args: families.random_state(_qubit_count(p[0]), args.seed)),
}


def _build_family(args) -> StateVector:
    family = args.family
    names, build = FAMILY_PARAMS[family]
    if len(args.params) != len(names):
        raise ConstraintViolated(
            f"family '{family}' takes {len(names)} parameter(s) {names}, got {len(args.params)}"
        )
    return build(args.params, args)


def cmd_gen(args) -> int:
    sv = _build_family(args)
    shown = [str(int(p)) if args.family in ("ghz", "random") else repr(p) for p in args.params]
    label = f"{args.family}({', '.join(shown)})"
    doc = document_dict(sv, sv.n - 1, label)
    text = json.dumps(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqtkit",
        description=(
            "Analyze n-qubit resource states for teleporting one qubit: Schmidt "
            "form toward the receiver, concurrence, maximal average fidelity "
            "(2+C)/3, perfect-teleportation conditions, and protocol simulation. "
            "Amplitude index k encodes the bit pattern of k with qubit 0 as the "
            "most significant bit."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", help="path to a state document (JSON)")
        p.add_argument("--bob", type=int, default=None, help="receiver qubit (default: document's, else n-1)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_analyze = sub.add_parser("analyze", help="Schmidt form, concurrence, and (2+C)/3")
    add_io(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="perfect-teleportation conditions (exit 0 iff they hold)")
    add_io(p_check)
    p_check.add_argument("--tol", type=_tolerance, default=VERDICT_TOL,
                         help=f"verdict tolerance (default {VERDICT_TOL})")
    p_check.set_defaults(func=cmd_check)

    p_tel = sub.add_parser("teleport", help="outcome table for a given info qubit, or MC average fidelity")
    add_io(p_tel)
    mode = p_tel.add_mutually_exclusive_group(required=True)
    mode.add_argument("--info", metavar="RE0,IM0,RE1,IM1", help="information qubit amplitudes")
    mode.add_argument("--haar", action="store_true", help="draw a Haar-random information qubit")
    mode.add_argument("--samples", type=int, help="Monte Carlo sample count for the average fidelity")
    p_tel.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p_tel.set_defaults(func=cmd_teleport)

    p_gen = sub.add_parser("gen", help="generate a named family state document")
    p_gen.add_argument("family", choices=sorted(FAMILY_PARAMS))
    p_gen.add_argument("params", type=float, nargs="*", help="family parameters (see README)")
    p_gen.add_argument("--theta", type=float, default=0.0, help="phase parameter (radians)")
    p_gen.add_argument("--delta", type=float, default=0.0, help="phase parameter (radians)")
    p_gen.add_argument("--gamma", type=float, default=0.0, help="phase parameter (radians)")
    p_gen.add_argument("--seed", type=_seed, default=0, help="RNG seed for family 'random'")
    p_gen.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SqtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a broken internal invariant
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
