"""Seeded inputs and checked operations for the sqtkit benchmark.

A workload is a fixed *round*: a list of in-process resources, each taken
through the analysis and, where asked, through the protocol, followed by a
few `python -m sqtkit.cli` invocations. The benchmark repeats the round until
its time is up. Every round has the same composition, so counts per round
(attempted, failed, successes per stratum) do not depend on the speed of the
code or of the host.

The program only ever receives the generated inputs: family parameters,
amplitude arrays, information qubits, seeds and document files. Every
operation checks its own output; a failed check is a failed operation.
Failures that come from defects already known in the program are marked with
the defect's name, so that they are counted (in `fail_ratio`) without being
mistaken for a new regression.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import sqtkit as sq
from sqtkit import cli as sqcli

# `sqtkit analyze` exits 3 when the two concurrence routes differ by more
# than its default --tol; the benchmark applies the same gate.
CONCURRENCE_TOL = 1e-9
# Closed-form table vs explicit projection: both are O(1e-15) apart in
# practice, so 1e-9 only trips on a real disagreement.
TABLE_TOL = 1e-9
# CLI output vs the same computation in-process (JSON floats round-trip).
CLI_TOL = 1e-12
# Monte Carlo vs (2+C)/3: 5 standard errors, plus a rounding floor for
# maximally entangled resources, whose per-sample values are all 1.
MC_STDERRS = 5.0
MC_FLOOR = 1e-12
# Haar samples per average_fidelity_mc call, in every workload
MC_SAMPLES = 10_000

SQRT_HALF = math.sqrt(0.5)

# Names of defects known in the program. An operation that fails on one of
# them is still counted as failed; it only does not make the run incorrect.
NAN_ACCEPTED = "nan-accepted"  # new_state/load_document accept NaN amplitudes
JOINT_OVER_CAP = "joint-over-cap"  # run_teleport tensors n+1 qubits, over the cap at n=12


def teleport_defect(n: int) -> str | None:
    return JOINT_OVER_CAP if n + 1 > sq.MAX_QUBITS else None


@dataclass
class Resource:
    """One resource taken through the analysis (and maybe the protocol)."""

    key: str  # unique within the workload
    stratum: str  # family or size class; rates are also reported per stratum
    n: int
    bob: int
    build: Callable  # builds (family) or validates (new_state/load_document)
    perfect: bool = False  # a perfect-SQT member by construction
    classify: Callable | None = None  # family classifier; returns a bool verdict
    infos: tuple = ()  # information qubits for run_teleport
    mc_seed: int | None = None  # seed of one average_fidelity_mc call
    gen_argv: list | None = None  # `sqtkit gen` arguments that rebuild it


@dataclass
class Reject:
    """A malformed input that the validating call must refuse with SqtError."""

    key: str
    build: Callable
    defect: str | None = None


@dataclass
class CliCall:
    """One `python -m sqtkit.cli` invocation and the reference it is checked
    against (a Resource of the same round, or an expected exit 2)."""

    key: str
    argv: list
    ref: str | None  # key of the reference Resource; None: input error expected
    info: object = None  # InfoQubit passed with --info
    defect: str | None = None


@dataclass
class Workload:
    name: str
    why: str
    resources: list = field(default_factory=list)
    rejects: list = field(default_factory=list)
    cli_calls: list = field(default_factory=list)
    cli_per_round: int = 1  # calls per round, cycling through cli_calls; each follows a pass
    documents: dict = field(default_factory=dict)  # kind -> count


@dataclass
class Outcome:
    """Result of one checked operation."""

    ok: bool
    detail: str = ""
    defect: str | None = None
    value: object = None


# --------------------------------------------------------------------------
# inputs


def haar_amps(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return raw / np.linalg.norm(raw)


def haar_infos(rng: np.random.Generator, count: int) -> tuple:
    pairs = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    pairs /= np.linalg.norm(pairs, axis=1, keepdims=True)
    return tuple(sq.InfoQubit(complex(a), complex(b)) for a, b in pairs)


def validator(n: int, amps: np.ndarray) -> Callable:
    return lambda: sq.new_state(n, amps)


def _disk_point(rng, radius_sq: float) -> tuple[float, float]:
    """Uniform point (a, b) ≥ 0 with a² + b² ≤ radius_sq."""
    r = math.sqrt(radius_sq * rng.uniform(0.0, 1.0))
    phi = rng.uniform(0.0, math.pi / 2)
    return r * math.cos(phi), r * math.sin(phi)


def _positive_unit(rng, k: int) -> list[float]:
    v = np.abs(rng.standard_normal(k))
    return list(v / np.linalg.norm(v))


def acin_items(rng, count: int) -> list[tuple[list[float], float, bool]]:
    """κ-grid of the canonical five-term family: a third on each perfect
    subform (κ1 = 0 / κ0 = 0 with the fixed coefficients) and a third generic."""
    out = []
    side = max(1, int(math.ceil(math.sqrt(count / 3))))
    for i in range(count):
        form = i % 3
        cell = i // 3
        u = (cell % side + rng.uniform(0.0, 1.0)) / side
        v = (cell // side % side + rng.uniform(0.0, 1.0)) / side
        if form == 0:  # κ1 = 0, κ4 = 1/√2, κ3 = √(1/2 − κ0² − κ2²)
            r, phi = SQRT_HALF * math.sqrt(u), v * math.pi / 2
            k0, k2 = r * math.cos(phi), r * math.sin(phi)
            ks = [k0, 0.0, k2, math.sqrt(max(0.5 - k0 * k0 - k2 * k2, 0.0)), SQRT_HALF]
        elif form == 1:  # κ0 = 0, κ3 = √(1/2 − κ2²), κ4 = √(1/2 − κ1²)
            k1, k2 = SQRT_HALF * u, SQRT_HALF * v
            ks = [0.0, k1, k2, math.sqrt(0.5 - k2 * k2), math.sqrt(0.5 - k1 * k1)]
        else:
            ks = _positive_unit(rng, 5)
        out.append((ks, float(rng.uniform(0.0, 2 * math.pi)), form < 2))
    return out


def acinalt_items(rng, count: int) -> list[tuple[list[float], float, bool]]:
    """Alternative canonical family: perfect points (b = d = 0 or b = f = 0
    on the balanced circle) and generic points, some with d·f = 0 but
    unbalanced."""
    out = []
    for i in range(count):
        form = i % 4
        if form == 0:  # d = b = 0, a = 1/√2, c² + f² = 1/2
            phi = rng.uniform(0.0, math.pi / 2)
            vals = [SQRT_HALF, 0.0, SQRT_HALF * math.cos(phi), 0.0, SQRT_HALF * math.sin(phi)]
        elif form == 1:  # f = b = 0, c = 1/√2, a² + d² = 1/2
            phi = rng.uniform(0.0, math.pi / 2)
            vals = [SQRT_HALF * math.cos(phi), 0.0, SQRT_HALF, SQRT_HALF * math.sin(phi), 0.0]
        elif form == 2:  # d·f = 0 but not balanced
            vals = _positive_unit(rng, 5)
            vals[3] = 0.0
            vals = list(np.array(vals) / np.linalg.norm(vals))
        else:
            vals = _positive_unit(rng, 5)
        out.append((vals, float(rng.uniform(0.0, 2 * math.pi)), form < 2))
    return out


def sweep3_resources(rng, per_family: int) -> list:
    """Every family at n = 3 with a random receiver in 0..2; every 4th Haar
    state also gets a teleport and every 12th a Monte Carlo estimate.

    Perfect members are perfect toward qubit 2 (GHZ toward any qubit), so the
    `perfect` expectation only applies there.
    """
    res = []

    def add(stratum, i, build, perfect_at_2, classify=None, any_bob=False, gen_argv=None):
        bob = int(rng.integers(0, 3))
        res.append(Resource(f"{stratum}{i}", stratum, 3, bob, build,
                            perfect=perfect_at_2 and (any_bob or bob == 2), classify=classify,
                            gen_argv=gen_argv))

    for i, (ks, theta, perfect) in enumerate(acin_items(rng, per_family)):
        add("acin", i, lambda ks=ks, t=theta: sq.acin_canonical(*ks, theta=t), perfect,
            classify=(lambda ks=ks, t=theta, p=perfect: sq.classify_zha(ks, t).verdict == p),
            gen_argv=acin_gen_argv(ks, theta))
    for i, (vals, theta, perfect) in enumerate(acinalt_items(rng, per_family)):
        add("acinalt", i, lambda v=vals, t=theta: sq.acin_alternative(*v, theta=t), perfect,
            classify=(lambda v=vals, t=theta, p=perfect: sq.classify_acin_alt(*v, theta=t).perfect == p))
    side = max(1, int(math.sqrt(per_family)))
    for i in range(per_family):
        # (a, b) box on the quarter disk a² + b² ≤ 1/2, plus random phases
        a, b = _disk_point(rng, 0.5 * ((i % side) + 1) / side)
        phases = rng.uniform(0.0, 2 * math.pi, 3)
        add("counterexample", i,
            lambda a=a, b=b, p=phases: sq.zha_counterexample(a, b, p[0], p[1], p[2]), True)
    for i in range(per_family):
        a, b = _disk_point(rng, 0.5)
        add("separable", i, lambda a=a, b=b: sq.separable_branch_family(a, b), True)
    for i in range(per_family):
        kappa, b = _disk_point(rng, 1.0)
        a, beta = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi)
        add("schmidt", i, lambda a=a, b=b, be=beta, k=kappa: sq.schmidt_branch_family(a, b, be, k), True)
    for i in range(per_family):
        ph = np.exp(1j * rng.uniform(0.0, 2 * math.pi, 3))
        if i % 2 == 0:  # |a100|² + |a010|² = |a001|² = 1/2
            phi = rng.uniform(0.0, math.pi / 2)
            mags, perfect = (SQRT_HALF * math.cos(phi), SQRT_HALF * math.sin(phi), SQRT_HALF), True
        else:
            mags, perfect = _positive_unit(rng, 3), False
        c = [complex(m * p) for m, p in zip(mags, ph)]
        add("w", i, lambda c=c: sq.w_general(*c), perfect)
    for i in range(3):
        add("ghz", i, lambda: sq.ghz(3), True, any_bob=True)
    for i in range(per_family):
        amps = haar_amps(rng, 3)
        r = Resource(f"haar{i}", "haar", 3, int(rng.integers(0, 3)), validator(3, amps))
        if i % 4 == 0:
            r.infos = haar_infos(rng, 1)
        if i % 12 == 0:
            r.mc_seed = int(rng.integers(1 << 31))
        res.append(r)
    return res


def raw_rejects(rng) -> list:
    """Raw amplitude vectors that validation must refuse."""
    nan = haar_amps(rng, 3)
    nan[int(rng.integers(0, 8))] = complex("nan")
    return [
        Reject("reject-nan", validator(3, nan), NAN_ACCEPTED),
        Reject("reject-unnormalized", validator(3, 2.0 * haar_amps(rng, 3))),
        Reject("reject-length", validator(3, haar_amps(rng, 3)[:7])),
    ]


# --------------------------------------------------------------------------
# documents and CLI calls


def write_doc(path: Path, sv, bob: int, label: str) -> Path:
    path.write_text(json.dumps(sqcli.document_dict(sv, bob, label)) + "\n", encoding="utf-8")
    return path


def info_arg(info) -> str:
    return f"{info.amp0.real!r},{info.amp0.imag!r},{info.amp1.real!r},{info.amp1.imag!r}"


def doc_calls(res: Resource, path: Path, commands: tuple) -> list:
    """CLI calls on one valid document, referenced to `res`."""
    calls = []
    for cmd in commands:
        if cmd == "analyze":
            calls.append(CliCall(f"analyze:{res.key}", ["analyze", str(path), "--format", "json"], res.key))
        elif cmd == "check":
            calls.append(CliCall(f"check:{res.key}", ["check", str(path), "--format", "json"], res.key))
        elif cmd == "teleport":
            info = res.infos[0]
            # one `--info=` token: argparse would read a leading minus sign as an option
            calls.append(CliCall(f"teleport:{res.key}", ["teleport", str(path), f"--info={info_arg(info)}",
                                                         "--format", "json"], res.key, info=info))
        elif cmd == "samples":
            calls.append(CliCall(f"samples:{res.key}",
                                 ["teleport", str(path), "--samples", str(MC_SAMPLES),
                                  "--seed", str(res.mc_seed), "--format", "json"], res.key))
    return calls


def invalid_docs(rng, workdir: Path) -> tuple[list, list, dict]:
    """Malformed documents: every command must exit 2 on them."""
    nan_amps = haar_amps(rng, 3)
    nan_amps[int(rng.integers(0, 8))] = complex("nan")
    pairs = [[float(a.real), float(a.imag)] for a in nan_amps]
    docs = {
        "nan": {"n": 3, "amplitudes": pairs, "bob": 2},
        "badcount": {"n": 3, "amplitudes": pairs[:7], "bob": 2},
        "unnormalized": {"n": 3, "amplitudes": [[2 * re, 2 * im] for re, im in
                                                 ([float(a.real), float(a.imag)] for a in haar_amps(rng, 3))]},
    }
    rejects, calls = [], []
    for kind, doc in docs.items():
        # json.dumps writes NaN as the bare token NaN, which json.load accepts
        path = workdir / f"invalid-{kind}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        defect = NAN_ACCEPTED if kind == "nan" else None
        rejects.append(Reject(f"doc-{kind}", lambda p=str(path): sqcli.load_document(p), defect))
        calls.append(CliCall(f"analyze:{kind}", ["analyze", str(path), "--format", "json"], None, defect=defect))
        calls.append(CliCall(f"check:{kind}", ["check", str(path), "--format", "json"], None, defect=defect))
    notjson = workdir / "invalid-notjson.json"
    notjson.write_text("{\"n\": 3, \"amplitudes\": [[1, 0]\n", encoding="utf-8")
    rejects.append(Reject("doc-notjson", lambda p=str(notjson): sqcli.load_document(p)))
    calls.append(CliCall("teleport:notjson", ["teleport", str(notjson), "--haar", "--format", "json"], None))
    kinds = {f"invalid-{k}": 1 for k in (*docs, "notjson")}
    return rejects, calls, kinds


def acin_gen_argv(ks: list, theta: float) -> list:
    return ["gen", "acin", *[repr(float(k)) for k in ks], "--theta", repr(float(theta))]


# --------------------------------------------------------------------------
# workloads

WHY = {  # kept equal to the "why" lines of BENCHMARK.json
    "sweep3": "the paper's own use: n=3 family sweeps mapping where perfect SQT holds; call overhead dominates and degenerate and rotated Schmidt paths mix",
    "wide": "Haar resources at n=4..12 with run_teleport per call and Monte Carlo vectorized: 2^n amplitude work grows with n and protocol dominates",
    "cli": "one client running the CLI per document at n=3 and n=12: import-dominated, so it shows per-process costs and stays flat for kernel speed-ups",
}


def build_sweep3(seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    rng = np.random.default_rng([seed, 3])
    per_family = max(6, int(200 * scale))
    wl = Workload("sweep3", WHY["sweep3"])
    wl.resources = sweep3_resources(rng, per_family)
    wl.rejects = raw_rejects(rng)
    # documents: a perfect acin point (check exits 0), a counterexample member
    # and a Haar state that also gets the protocol commands
    acin = next(r for r in wl.resources if r.stratum == "acin" and r.perfect)
    picks = [acin, next(r for r in wl.resources if r.stratum == "counterexample"),
             next(r for r in wl.resources if r.stratum == "haar" and r.infos and r.mc_seed is not None)]
    for r in picks:
        path = write_doc(workdir / f"{r.key}.json", r.build(), r.bob, r.key)
        cmds = ("analyze", "check", "teleport", "samples") if r.infos else ("analyze", "check")
        wl.cli_calls += doc_calls(r, path, cmds)
    wl.cli_calls.append(CliCall(f"gen:{acin.key}", acin.gen_argv, acin.key))
    wl.documents = {"n3-family": 2, "n3-haar": 1}
    return wl


WIDE_SIZES = (4, 6, 8, 10, 11, 12)


def build_wide(seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    rng = np.random.default_rng([seed, 12])
    per_size = max(1, int(16 * scale))
    wl = Workload("wide", WHY["wide"])
    for n in WIDE_SIZES:
        for i in range(per_size):
            amps = haar_amps(rng, n)
            wl.resources.append(Resource(
                f"n{n}-{i}", f"n{n}", n, int(rng.integers(0, n)), validator(n, amps),
                infos=haar_infos(rng, 3), mc_seed=int(rng.integers(1 << 31))))
        # a GHZ resource per size: structured, perfect toward every qubit
        wl.resources.append(Resource(
            f"ghz{n}", f"n{n}", n, int(rng.integers(0, n)), lambda n=n: sq.ghz(n), perfect=True,
            infos=haar_infos(rng, 3), mc_seed=int(rng.integers(1 << 31))))
    # two 3-qubit anchors with known verdicts, so the 3-qubit checker and the
    # family classifiers run here too
    ks, theta, _ = acin_items(rng, 1)[0]  # the first item is a perfect form
    wl.resources.append(Resource("anchor-acin", "n3", 3, 2,
                                 lambda: sq.acin_canonical(*ks, theta=theta), perfect=True,
                                 classify=lambda: sq.classify_zha(ks, theta).verdict))
    vals, t2, _ = acinalt_items(rng, 1)[0]
    wl.resources.append(Resource("anchor-acinalt", "n3", 3, 2,
                                 lambda: sq.acin_alternative(*vals, theta=t2), perfect=True,
                                 classify=lambda: sq.classify_acin_alt(*vals, theta=t2).perfect))
    by_key = {r.key: r for r in wl.resources}
    for key in ("n4-0", "n8-0", "n12-0"):
        r = by_key[key]
        path = write_doc(workdir / f"{key}.json", r.build(), r.bob, key)
        wl.cli_calls += doc_calls(r, path, ("analyze", "check", "teleport", "samples"))
    wl.documents = {"n4-haar": 1, "n8-haar": 1, "n12-haar": 1}
    return wl


def build_cli(seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    rng = np.random.default_rng([seed, 7])
    wl = Workload("cli", WHY["cli"])
    ks, theta, _ = acin_items(rng, 1)[0]
    sources = {
        "n3-haar": (sq.StateVector(3, haar_amps(rng, 3)), int(rng.integers(0, 3))),
        "n3-acin": (sq.acin_canonical(*ks, theta=theta), 2),
        "n12-haar": (sq.StateVector(12, haar_amps(rng, 12)), int(rng.integers(0, 12))),
        "n12-ghz": (sq.ghz(12), int(rng.integers(0, 12))),
    }
    for kind, (sv, bob) in sources.items():
        path = write_doc(workdir / f"{kind}.json", sv, bob, kind)
        haar = kind.endswith("haar")
        res = Resource(kind, kind.split("-")[0], sv.n, bob,
                       lambda p=str(path): sqcli.load_document(p)[0],
                       perfect=not haar,
                       # the CLI gets the first; the rest steady the in-process rate
                       infos=haar_infos(rng, 8 if sv.n == 3 else 1) if haar else (),
                       mc_seed=int(rng.integers(1 << 31)) if haar else None)
        wl.resources.append(res)
        wl.cli_calls += doc_calls(res, path, ("analyze", "check", "teleport", "samples") if haar
                                  else ("analyze", "check"))
    # `gen` of the acin document's parameters, referenced to an in-process build
    wl.resources.append(Resource("gen-acin", "n3", 3, 2, lambda: sq.acin_canonical(*ks, theta=theta),
                                 perfect=True, classify=lambda: sq.classify_zha(ks, theta).verdict))
    wl.cli_calls.append(CliCall("gen:acin", acin_gen_argv(ks, theta), "gen-acin"))
    wl.rejects, calls, kinds = invalid_docs(rng, workdir)
    wl.cli_calls += calls
    wl.cli_per_round = len(wl.cli_calls)
    wl.documents = {k: 1 for k in sources} | kinds
    return wl


BUILDERS = {"sweep3": build_sweep3, "wide": build_wide, "cli": build_cli}


# --------------------------------------------------------------------------
# operations: each returns an Outcome and is timed by the caller


def analyze(res: Resource):
    """build or validate → schmidt_form → concurrence_via_density → checks → maf."""
    sv = res.build()
    form = sq.schmidt_form(sv, res.bob)
    dens = sq.concurrence_via_density(sv, res.bob)
    general = sq.check_general(sv, res.bob)
    amp = sq.check_3qubit(sv, res.bob) if sv.n == 3 else None
    classified = res.classify() if res.classify is not None else None
    fidelity = sq.maf(form.concurrence)
    return sv, form, dens, general, amp, classified, fidelity


@dataclass
class Analysis:
    sv: object
    form: object
    density_concurrence: float
    general: object
    amp: object
    maf: float
    tables: dict = field(default_factory=dict)  # id(info) -> outcome table
    mc: object = None

    @property
    def rotated(self) -> bool:
        return self.form.z != 0


def check_analysis(res: Resource, out) -> Outcome:
    if isinstance(out, Exception):
        return Outcome(False, f"{res.key}: analysis raised {out!r}")
    sv, form, dens, general, amp, classified, fidelity = out
    a = Analysis(sv, form, dens, general, amp, fidelity)
    delta = abs(form.concurrence - dens)
    if not delta <= CONCURRENCE_TOL:
        return Outcome(False, f"{res.key}: concurrence routes differ by {delta}", value=a)
    if amp is not None and amp.verdict != general.verdict:
        return Outcome(False, f"{res.key}: 3-qubit verdict {amp.verdict} vs general {general.verdict}", value=a)
    if res.perfect and not general.verdict:
        return Outcome(False, f"{res.key}: perfect member judged not perfect", value=a)
    if classified is not None and not classified:
        return Outcome(False, f"{res.key}: family classifier disagrees with the construction", value=a)
    if not abs(fidelity - (2.0 + min(max(form.concurrence, 0.0), 1.0)) / 3.0) <= 1e-15:
        return Outcome(False, f"{res.key}: maf is not (2+C)/3", value=a)
    return Outcome(True, value=a)


def teleport(res: Resource, a: Analysis, info, seed: int):
    """The outcome table, and run_teleport or the SqtError it raised (the
    table stays the reference of `teleport --info` either way)."""
    table = sq.outcome_table(info, a.form)
    try:
        run = sq.run_teleport(info, a.sv, res.bob, seed=seed)
    except sq.SqtError as exc:
        return table, exc.with_traceback(None)  # keeps no frames alive
    return table, run


def check_teleport(res: Resource, out) -> Outcome:
    if isinstance(out, Exception):
        return Outcome(False, f"{res.key}: outcome_table raised {out!r}")
    table, run = out
    if isinstance(run, Exception):
        defect = teleport_defect(res.n) if isinstance(run, sq.TooManyQubits) else None
        return Outcome(False, f"{res.key}: run_teleport raised {run!r}", defect, value=table)
    row = table[run.record.outcome]
    dp = abs(run.record.prob - row.prob)
    df = abs(run.record.fidelity - row.fidelity)
    if not (dp <= TABLE_TOL and df <= TABLE_TOL):
        return Outcome(False, f"{res.key}: run_teleport vs outcome_table: Δp={dp} ΔF={df}", value=table)
    return Outcome(True, value=table)


def monte_carlo(res: Resource, a: Analysis):
    return sq.average_fidelity_mc(a.sv, res.bob, MC_SAMPLES, seed=res.mc_seed)


def check_monte_carlo(res: Resource, a: Analysis, est) -> Outcome:
    if isinstance(est, Exception):
        return Outcome(False, f"{res.key}: average_fidelity_mc raised {est!r}")
    closed = sq.maf(a.form.concurrence)
    gap = abs(est.mean - closed)
    if not gap <= MC_STDERRS * est.stderr + MC_FLOOR:
        return Outcome(False, f"{res.key}: MC {est.mean} is {gap} from (2+C)/3 = {closed} "
                              f"(stderr {est.stderr})", value=est)
    return Outcome(True, value=est)


def check_reject(rej: Reject, out) -> Outcome:
    if isinstance(out, sq.SqtError):
        return Outcome(True)
    if isinstance(out, Exception):
        return Outcome(False, f"{rej.key}: raised {out!r} instead of SqtError")
    return Outcome(False, f"{rej.key}: malformed input accepted", rej.defect)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= CLI_TOL


def check_cli(call: CliCall, code: int, stdout: str, refs: dict) -> Outcome:
    """Exit code and JSON fields of one CLI invocation against the in-process
    results of the same round."""
    def fail(msg):
        return Outcome(False, f"{call.key}: {msg}", call.defect)

    if call.ref is None:
        return Outcome(True) if code == 2 else fail(f"exit {code} on malformed input, expected 2")
    ref = refs.get(call.ref)
    if ref is None:
        return fail("no in-process reference this round")
    cmd = call.argv[0]
    if cmd == "check":
        want = 0 if ref.general.verdict else 1
    else:
        want = 0
    if code != want:
        return fail(f"exit {code}, expected {want}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return fail("stdout is not one JSON document")
    if cmd == "analyze":
        pairs = (("coeff0", ref.form.coeff0), ("coeff1", ref.form.coeff1),
                 ("concurrence", ref.form.concurrence), ("oracle_concurrence", ref.density_concurrence),
                 ("maf", ref.maf))
        bad = [k for k, v in pairs if not _close(doc[k], v)]
        return fail(f"fields {bad} differ") if bad else Outcome(True)
    if cmd == "check":
        pairs = [("residual_balance", ref.general.residual_balance),
                 ("residual_overlap", ref.general.residual_overlap)]
        if ref.amp is not None:
            pairs += [("amp_residual_balance", ref.amp.residual_balance),
                      ("amp_residual_overlap", ref.amp.residual_overlap)]
        bad = [k for k, v in pairs if not _close(doc[k], v)]
        if doc["verdict"] != ref.general.verdict:
            bad.append("verdict")
        return fail(f"fields {bad} differ") if bad else Outcome(True)
    if cmd == "teleport" and "--samples" in call.argv:
        est = ref.mc
        closed = doc["closed_form"]
        if not (_close(doc["estimate"], est.mean) and _close(doc["stderr"], est.stderr)
                and _close(closed, ref.maf)):
            return fail("MC fields differ from the in-process estimate")
        if not abs(doc["estimate"] - closed) <= MC_STDERRS * doc["stderr"] + MC_FLOOR:
            return fail("MC estimate is more than 5 stderr from (2+C)/3")
        return Outcome(True)
    if cmd == "teleport":
        table = ref.tables[id(call.info)]
        got = doc["outcomes"]
        if len(got) != 4 or any(not (_close(g["prob"], t.prob) and _close(g["fidelity"], t.fidelity))
                                for g, t in zip(got, table)):
            return fail("outcome table differs from the in-process table")
        return Outcome(True)
    if cmd == "gen":
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        if amps.shape != ref.sv.amps.shape or not np.max(np.abs(amps - ref.sv.amps)) <= CLI_TOL:
            return fail("generated amplitudes differ from the in-process build")
        return Outcome(True)
    return fail(f"unknown command {cmd}")
