"""sqtkit benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload {sweep3,wide,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports sqtkit from `src/` and runs the
CLI as `python -m sqtkit.cli` with that source tree, one subprocess at a time.
Scratch documents go under `.bench_build/perfbench/` and are removed at exit.

Output, on stdout: a `{"meta": ...}` line (versions, host, host-speed probe,
input properties), a `{"detail": ...}` line (per-stratum and per-size
breakdowns) and, last, the result:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, taken from traced rounds that alternate with untraced
rounds of the same run (their difference is `trace.overhead_pct`).

Timing on a shared host: the host alternates between speeds about 2x apart,
for seconds and sometimes tens of seconds at a time, so a mean or median over
a run mostly measures the host. Each in-process operation runs once per pass
and so is repeated many times over a run; its time is the minimum of its
repeats, and a rate is successful operations over the sum of those times.
CLI latencies are reported as measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
CLI_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

END_TO_END = {
    "states_per_s": "1/s", "teleports_per_s": "1/s", "mc_samples_per_s": "1/s",
    "cli_p50_ms": "ms", "cli_tail_ms": "ms", "fail_ratio": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "families.build_us": "us",
    "statevec.new_state_us": "us",
    "statevec.permute_qubits_us": "us",
    "statevec.constructions_per_state": "count",
    "schmidt.split_by_receiver_us": "us",
    "schmidt.schmidt_form_self_us": "us",
    "schmidt.concurrence_via_density_us": "us",
    "schmidt.rotated_share": "ratio",
    "conditions.check_general_us": "us",
    "conditions.check_3qubit_us": "us",
    "conditions.classify_us": "us",
    "protocol.outcome_table_us": "us",
    "protocol.run_teleport_self_us": "us",
    "protocol.run_teleport_failed": "count",
    "protocol.mc_ns_per_sample": "ns",
    "cli.import_numpy_ms": "ms",
    "cli.import_sqtkit_ms": "ms",
    "cli.load_document_us": "us",
    "cli.main_us": "us",
    "trace.overhead_pct": "%",
}

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import sqtkit, sqtkit.cli\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, sqtkit.__file__)\n"
)




def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# --------------------------------------------------------------------------
# recording


class Recorder:
    """Per-operation times and outcomes. Operations are keyed by
    (kind, key); each key runs once per in-process pass."""

    def __init__(self):
        self.times = defaultdict(list)  # (kind, key) -> seconds, untraced rounds
        self.traced_times = defaultdict(list)  # same, traced rounds
        self.attempts = Counter()
        self.successes = Counter()
        self.stratum = {}
        self.cli_latencies = []  # seconds
        self.failed = 0
        self.defects = Counter()
        self.unexpected = []
        self.rotated = Counter()  # True/False -> analyses

    def op(self, kind, key, stratum, seconds, outcome, traced):
        k = (kind, key)
        (self.traced_times if traced else self.times)[k].append(seconds)
        self.stratum[k] = stratum
        self.attempts[k] += 1
        if outcome.ok:
            self.successes[k] += 1
            return
        self.failed += 1
        if outcome.defect:
            self.defects[outcome.defect] += 1
        elif len(self.unexpected) < 20:
            self.unexpected.append(outcome.detail)

    @property
    def attempted(self):
        return sum(self.attempts.values())

    def rate(self, kind, weight=1.0, stratum=None):
        """Successful operations of `kind` (times `weight`) per second, each
        operation timed by the minimum of its untraced repeats."""
        done = spent = 0.0
        for (kd, key), ts in self.times.items():
            if kd != kind or (stratum is not None and self.stratum[(kd, key)] != stratum) or not ts:
                continue
            done += weight * self.successes[(kd, key)] / self.attempts[(kd, key)]
            spent += min(ts)
        return done / spent if spent else 0.0


# --------------------------------------------------------------------------
# one round


def run_round(wl, calls, rec, tracer, traced):
    """Each CLI call of the round follows one in-process pass over the
    workload's inputs, whose results are the call's reference."""
    for call in calls:
        refs = in_process_pass(wl, rec, tracer, traced)
        cli_call(call, refs, rec, tracer, traced)


def timed(fn, *args):
    """(seconds, result); an exception is returned as the result, so that the
    check counts it as a failed operation instead of ending the run."""
    t0 = time.perf_counter()
    try:
        with np.errstate(all="ignore"):  # NaN inputs warn on their way through
            out = fn(*args)
    except Exception as exc:
        # without its traceback the error keeps no frames, and their arrays, alive
        out = exc.with_traceback(None)
    return time.perf_counter() - t0, out


def in_process_pass(wl, rec, tracer, traced) -> dict:
    """Analysis (and protocol) of every resource, then the malformed inputs.
    Returns the analyses by resource key, as references for CLI calls."""
    import workloads as w

    refs = {}
    for res in wl.resources:
        if tracer:
            tracer.tag = res.stratum
            before = tracer.constructions
        dt, out = timed(w.analyze, res)
        if tracer:
            tracer.state_constructions += tracer.constructions - before
            tracer.states += 1
        outcome = w.check_analysis(res, out)
        rec.op("analysis", res.key, res.stratum, dt, outcome, traced)
        if not outcome.ok:
            continue
        a = outcome.value
        rec.rotated[a.rotated] += 1
        for j, info in enumerate(res.infos):
            dt, out = timed(w.teleport, res, a, info, j)
            outcome = w.check_teleport(res, out)
            a.tables[id(info)] = outcome.value
            rec.op("teleport", f"{res.key}/{j}", res.stratum, dt, outcome, traced)
        if res.mc_seed is not None:
            dt, out = timed(w.monte_carlo, res, a)
            outcome = w.check_monte_carlo(res, a, out)
            a.mc = outcome.value
            rec.op("mc", res.key, res.stratum, dt, outcome, traced)
        refs[res.key] = a
    for rej in wl.rejects:
        if tracer:
            tracer.tag = "reject"
        dt, out = timed(rej.build)
        rec.op("reject", rej.key, "reject", dt, w.check_reject(rej, out), traced)
    return refs


def cli_call(call, refs, rec, tracer, traced):
    import sqtkit.cli as sqcli
    import workloads as w

    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "sqtkit.cli", *call.argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        dt = time.perf_counter() - t0
        rec.op("cli", call.key, "cli", dt, w.Outcome(False, f"{call.key}: timed out"), traced)
        return
    dt = time.perf_counter() - t0
    rec.cli_latencies.append(dt)
    try:
        outcome = w.check_cli(call, proc.returncode, proc.stdout, refs)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # output without the expected fields
        outcome = w.Outcome(False, f"{call.key}: unreadable output ({exc!r})", call.defect)
    rec.op("cli", call.key, "cli", dt, outcome, traced)
    if traced:
        # the same command in-process, so that its layers show in the trace
        tracer.tag = "cli"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), np.errstate(all="ignore"):
            try:
                sqcli.main(call.argv)
            except SystemExit:  # argparse refusing the arguments
                pass


# --------------------------------------------------------------------------
# set-up


def import_probe() -> tuple[float, float]:
    """Fresh interpreter importing numpy, then sqtkit: seconds for each."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
    numpy_s, sqtkit_s, where = proc.stdout.split()
    if Path(where).resolve().parent != (SRC / "sqtkit").resolve():
        raise RuntimeError(f"child imported sqtkit from {where}, not from {SRC}")
    return float(numpy_s), float(sqtkit_s)


def warm_up(wl):
    """One operation of each kind per stratum, so lazy initialisation is done
    before timing. Outcomes are not counted."""
    import workloads as w

    seen = set()
    for res in wl.resources:
        kinds = (res.stratum, bool(res.infos), res.mc_seed is not None)
        if kinds in seen:
            continue
        seen.add(kinds)
        a = w.check_analysis(res, timed(w.analyze, res)[1]).value
        if a is None:
            continue
        if res.infos:
            timed(w.teleport, res, a, res.infos[0], 0)
        if res.mc_seed is not None:
            timed(w.monte_carlo, res, a)


def set_up(name, seed, workdir, scale):
    """Build inputs and warm up, SETUP_REPEATS times; the last build is used."""
    import workloads as w

    times, imports, wl = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        imports.append(import_probe())
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        wl = w.BUILDERS[name](seed, workdir, scale)
        warm_up(wl)
        times.append(time.perf_counter() - t0)
    return wl, times, imports


# --------------------------------------------------------------------------
# metadata


def host_probe() -> float:
    """Fixed interpreter-bound loop, in million iterations per second (median
    of five). Recorded beside the metrics; no metric is scaled by it."""
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        rates.append(0.2 / (time.perf_counter() - t0))
    return statistics.median(rates)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def input_properties(wl, rec) -> dict:
    res = wl.resources
    return {
        "why": wl.why,
        "n_mix": dict(sorted(Counter(r.n for r in res).items())),
        "receivers": dict(sorted(Counter(r.bob for r in res).items())),
        "resources_per_round": len(res) * wl.cli_per_round,
        "perfect_share": sum(r.perfect for r in res) / len(res),
        "rotated_share": rec.rotated[True] / max(1, sum(rec.rotated.values())),
        "teleports_per_resource": sum(len(r.infos) for r in res) / len(res),
        "mc_calls_per_round": sum(r.mc_seed is not None for r in res) * wl.cli_per_round,
        "rejects_per_round": len(wl.rejects) * wl.cli_per_round,
        "documents": wl.documents,
        "cli_calls_per_round": wl.cli_per_round,
        "cli_commands": dict(Counter(c.argv[0] for c in wl.cli_calls)),
    }


# --------------------------------------------------------------------------
# metrics


def cli_stats(latencies) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile): the tail is the highest order
    statistic with at least TAIL_BEYOND samples above it."""
    s = sorted(latencies)
    k = max(0, len(s) - TAIL_BEYOND - 1)
    return statistics.median(s) * 1e3, s[k] * 1e3, 100.0 * (k + 1) / len(s)


def peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def end_to_end(rec, setup_times) -> dict:
    import workloads as w

    p50, tail, _ = cli_stats(rec.cli_latencies)
    return {
        "states_per_s": rec.rate("analysis"),
        "teleports_per_s": rec.rate("teleport"),
        "mc_samples_per_s": rec.rate("mc", weight=w.MC_SAMPLES),
        "cli_p50_ms": p50,
        "cli_tail_ms": tail,
        "fail_ratio": rec.failed / rec.attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(rec, tracer, imports) -> dict:
    import workloads as w

    def med_us(name, minus=None):
        return statistics.median(tracer.durations(name, minus=minus)) * 1e6

    traced = untraced = 0.0
    for k, ts in rec.traced_times.items():
        if k[0] != "cli" and rec.times.get(k):
            traced += min(ts)
            untraced += min(rec.times[k])
    return {
        "families.build_us": med_us("families.build"),
        "statevec.new_state_us": med_us("statevec.new_state"),
        "statevec.permute_qubits_us": med_us("statevec.permute_qubits"),
        "statevec.constructions_per_state": tracer.state_constructions / tracer.states,
        "schmidt.split_by_receiver_us": med_us("schmidt.split_by_receiver"),
        "schmidt.schmidt_form_self_us": med_us("schmidt.schmidt_form", minus="schmidt.split_by_receiver"),
        "schmidt.concurrence_via_density_us": med_us("schmidt.concurrence_via_density"),
        "schmidt.rotated_share": rec.rotated[True] / sum(rec.rotated.values()),
        "conditions.check_general_us": med_us("conditions.check_general"),
        "conditions.check_3qubit_us": med_us("conditions.check_3qubit"),
        "conditions.classify_us": med_us("conditions.classify"),
        "protocol.outcome_table_us": med_us("protocol.outcome_table"),
        "protocol.run_teleport_self_us": med_us("protocol.run_teleport", minus="schmidt.schmidt_form"),
        "protocol.run_teleport_failed": tracer.failed("protocol.run_teleport") / tracer.rounds,
        "protocol.mc_ns_per_sample": med_us("protocol.average_fidelity_mc") * 1e3 / w.MC_SAMPLES,
        "cli.import_numpy_ms": statistics.median(i[0] for i in imports) * 1e3,
        "cli.import_sqtkit_ms": statistics.median(i[1] for i in imports) * 1e3,
        "cli.load_document_us": med_us("cli.load_document"),
        "cli.main_us": med_us("cli.main"),
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
    }


def detail(rec, tracer) -> dict:
    """Per-stratum rates (e.g. states_per_s.n12) and, when traced, per-tag
    span medians (e.g. schmidt.split_by_receiver_us.n12)."""
    import workloads as w

    out = {}
    for stratum in sorted(set(rec.stratum.values()) - {"cli", "reject"}):
        for metric, kind, weight in (("states_per_s", "analysis", 1.0), ("teleports_per_s", "teleport", 1.0),
                                     ("mc_samples_per_s", "mc", w.MC_SAMPLES)):
            if any(k[0] == kind and rec.stratum[k] == stratum for k in rec.times):
                out[f"{metric}.{stratum}"] = rec.rate(kind, weight, stratum)
    if tracer:
        for tag in tracer.tags():
            for name in ("statevec.new_state", "statevec.permute_qubits", "schmidt.split_by_receiver",
                         "schmidt.concurrence_via_density", "conditions.check_general",
                         "protocol.outcome_table", "protocol.average_fidelity_mc"):
                ds = tracer.durations(name, tag)
                if ds:
                    out[f"{name}_us.{tag}"] = statistics.median(ds) * 1e6
            for name, minus in (("schmidt.schmidt_form", "schmidt.split_by_receiver"),
                                ("protocol.run_teleport", "schmidt.schmidt_form")):
                ds = tracer.durations(name, tag, minus=minus)
                if ds:
                    out[f"{name}_self_us.{tag}"] = statistics.median(ds) * 1e6
    return out


# --------------------------------------------------------------------------


def run(workload, seed, seconds, trace, scale=1.0):
    """Set up, measure for `seconds`, and return (meta, detail, result)."""
    import sqtkit
    from tracing import Tracer

    if Path(sqtkit.__file__).resolve().parent != (SRC / "sqtkit").resolve():
        raise RuntimeError(f"imported sqtkit from {sqtkit.__file__}, not from {SRC}")
    probe_before = host_probe()
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        wl, setup_times, imports = set_up(workload, seed, workdir, scale)
        rec = Recorder()
        tracer = None
        if trace:
            tracer = Tracer()
        rounds, start, cursor = 0, time.perf_counter(), 0
        while True:
            traced = bool(trace) and rounds % 2 == 1
            calls = [wl.cli_calls[(cursor + i) % len(wl.cli_calls)] for i in range(wl.cli_per_round)]
            cursor += wl.cli_per_round
            if traced:
                tracer.rounds += 1
                tracer.install()
            try:
                run_round(wl, calls, rec, tracer if traced else None, traced)
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= (2 if trace else 1) and elapsed * (1 + 0.5 / rounds) >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(rec, tracer, imports) if trace else end_to_end(rec, setup_times)
    units = PER_LAYER if trace else END_TO_END
    tail_pct = cli_stats(rec.cli_latencies)[2]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "python": platform.python_version(), "numpy": np.__version__,
        "sqtkit": sqtkit.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "commit": git_commit(), "host_probe_mips": [probe_before, host_probe()],
        "rounds": rounds, "measured_s": elapsed,
        "setup_s_each": setup_times,
        "cli_samples": len(rec.cli_latencies), "cli_tail_percentile": tail_pct,
        "known_defect_failures": dict(rec.defects), "unexpected_failures": rec.unexpected,
        "inputs": input_properties(wl, rec),
    }
    result = {
        "correct": not rec.unexpected,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return meta, detail(rec, tracer), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep3", "wide", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqtkit" / "__init__.py").is_file():
        print(f"perfbench: no sqtkit sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    meta, det, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"detail": det}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
