"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on stdout.  With
``--setup-only`` it stops after importing skewcalc and generating the
inputs, so the launcher can time set-up several times per run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import types
from collections import Counter
from fractions import Fraction

import layertrace
from workloads import BUILDERS, TRACE_GROUPS, Failed, build_known_defects

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_skewcalc():
    """Import the checkout's skewcalc, never an installed copy."""
    sys.path.insert(0, SRC)
    import skewcalc.cli  # noqa: F401  (imports every layer)

    package = sys.modules["skewcalc"]
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "skewcalc"):
        raise SystemExit(f"skewcalc imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{layer: sys.modules[f"skewcalc.{layer}"] for layer in layertrace.LAYERS})


class Pass:
    """Latencies and check outcomes of a sequence of groups."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.passed = 0
        self.failures = Counter()  # group kind -> failed ops
        self.exits = Counter()  # CLI exit codes of query groups
        self.checks = self.tight = 0  # oracle sandwich checks, and those met with equality
        self.raw_latencies: list[float] = []  # unscaled, for the report (run_for)

    def record(self, group, results, latencies, ok: bool):
        n = len(group.ops)
        self.latencies += latencies
        self.attempted += n
        if ok:
            self.passed += n
        else:
            self.failures[group.kind] += n
        if group.query:
            for result in results:
                code = result[0] if isinstance(result, tuple) else None
                self.exits[str(code) if code in (0, 2, 3) else "other"] += 1
        self.checks += group.stats.get("checks", 0)
        self.tight += group.stats.get("tight", 0)

    @property
    def failed(self) -> int:
        return self.attempted - self.passed


def execute(group, tracer=None) -> tuple:
    """Run a group's operations; returns (results, per-operation seconds)."""
    latencies = []

    def timed(op, results):
        if tracer is not None:
            tracer.on = True
            tracer.stack.append(0.0)  # root span: glue outside every layer
        t0 = time.perf_counter()
        try:
            result = op(results)
        except Exception as exc:  # an operation that raises counts as failed
            result = Failed(exc)
        dt = time.perf_counter() - t0
        latencies.append(dt)
        if tracer is not None:
            tracer.on = False
            stat = tracer.stats.setdefault("op", [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - tracer.stack.pop()
        return result

    return group.execute(timed), latencies


def run_once(groups, tracer=None) -> Pass:
    """Every group once, in order; checks run untimed and untraced."""
    run = Pass()
    for group in groups:
        results, latencies = execute(group, tracer)
        run.record(group, results, latencies, group.check(results))
    return run


REPEATS = 3
FIRST_PASS = 1 / 4  # share of --seconds the first pass covers, at the reference speed
OVERRUN = 1.25  # repeats stop at this multiple of --seconds, even when unfinished
# Seconds calibrate() takes at the reference speed (roughly its time on a
# 2-vCPU Intel Xeon VM under CPython 3.11.7); timings are reported scaled
# to it (see end_to_end).
CALIBRATION_REF_S = 500e-6
CALIBRATION_SPAN = 8  # calibrations behind one speed factor (speed_factors)


def calibrate() -> float:
    """Seconds for a fixed stdlib-only workload shaped like skewcalc's.

    Sparse products of Fraction polynomials accumulated in dicts (the
    allocation-heavy mix of every workload) and Horner evaluation with
    big-integer Fractions (the mix of the interval sup-norm).  It never
    touches skewcalc, so a change to the program cannot move it, while a
    slower machine slows it about as much as the operations around it.
    """
    t0 = time.perf_counter()
    a = {m: Fraction(m + 1, 2 * m + 3) for m in range(8)}
    b = {m: Fraction(3 * m + 1, m + 2) for m in range(8)}
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    # and Horner steps at points with long dyadic denominators, the
    # big-integer work of root isolation
    x = Fraction(1, 3)
    for k in range(8):
        x = (x + Fraction(2 * k + 1, 2**40)) / 2
        acc = Fraction(0)
        for c in b.values():
            acc = acc * x + c
    return time.perf_counter() - t0


class Measured:
    """One group of the timed run: per operation, its fastest repeat."""

    def __init__(self, group, codes, ok):
        self.group, self.codes, self.ok = group, codes, ok
        self.raw = [float("inf")] * len(group.ops)
        self.scaled = [float("inf")] * len(group.ops)

    def keep(self, latencies, factor: float):
        """Fold in one execution and the speed factor of its moment."""
        self.raw = [min(a, b) for a, b in zip(self.raw, latencies)]
        self.scaled = [min(a, b * factor) for a, b in zip(self.scaled, latencies)]


def speed_factors(calibrations) -> list:
    """Per group of a pass, the reference time over the machine's time then.

    calibrations[i] and calibrations[i + 1] were taken just before and
    just after group i; the factor uses the median of the CALIBRATION_SPAN
    calibrations around it, which follows the drift of a shared machine
    over tens of milliseconds while one slow calibrate() run moves it little.
    """
    k = CALIBRATION_SPAN // 2
    return [CALIBRATION_REF_S / statistics.median(calibrations[max(0, i + 1 - k):i + 1 + k])
            for i in range(len(calibrations) - 1)]


def run_for(groups, seconds: float) -> Pass:
    """Closed loop over the groups (cycling) for about ``seconds``.

    calibrate() runs between every two groups, and each execution's
    latencies are scaled by the speed factor of its moment (see
    speed_factors and end_to_end).  The first pass runs and checks groups
    until their operations have taken FIRST_PASS * seconds at the
    reference speed, so that a run holds the same work however fast the
    machine is at the moment.  The same groups then run REPEATS - 1 more
    times, and each operation keeps the fastest of its scaled repeats:
    the work is deterministic, so repeats differ only by interference
    from other tenants of the machine, and spacing them a pass apart
    keeps a slow stretch of several seconds from reaching all of them.
    Should the repeats run past OVERRUN * seconds, the remaining
    operations keep the repeats they had.
    """
    def fold(executions, calibrations):
        for (entry, latencies), factor in zip(executions, speed_factors(calibrations)):
            entry.keep(latencies, factor)

    start = time.perf_counter()
    measured, executions, calibrations = [], [], [calibrate()]
    busy = 0.0
    # busy time at the reference speed: scaled by the pass's mean calibration
    while busy * CALIBRATION_REF_S * len(calibrations) / sum(calibrations) < seconds * FIRST_PASS:
        group = groups[len(measured) % len(groups)]
        results, latencies = execute(group)
        calibrations.append(calibrate())
        busy += sum(latencies)
        ok = group.check(results)
        # keep only the exit codes: holding every result would make the
        # peak memory grow with the number of operations a run completes
        codes = [(r[0],) if isinstance(r, tuple) else None for r in results] if group.query else []
        measured.append(Measured(group, codes, ok))
        executions.append((measured[-1], latencies))
    fold(executions, calibrations)
    for _ in range(REPEATS - 1):
        executions, calibrations = [], [calibrate()]
        for entry in measured:
            if time.perf_counter() - start > OVERRUN * seconds:
                break
            results, latencies = execute(entry.group)
            calibrations.append(calibrate())
            if any(isinstance(r, Failed) for r in results):
                entry.ok = False
            executions.append((entry, latencies))
        fold(executions, calibrations)
    run = Pass()
    for entry in measured:
        run.record(entry.group, entry.codes, entry.scaled, entry.ok)
        run.raw_latencies += entry.raw
    return run


def tail(latencies) -> tuple:
    """(percentile, value, samples beyond) for the highest of p90, p99,
    p99.9, ... that has at least ten samples beyond it (p50 below 20 samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50.0, ordered[(n - 1) // 2], n - (n + 1) // 2)
    nines = 1
    while True:
        beyond = n // 10**nines  # samples strictly above the percentile sample
        if beyond < 10:
            return best
        best = (100.0 * (1 - 10.0**-nines), ordered[n - beyond - 1], beyond)
        nines += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Pass) -> dict:
    """Timings at the reference speed, plus the raw ones.

    Each execution of a group is scaled by its speed factor: the reference
    time over the median of the calibrate() runs around it
    (speed_factors).  The speed of a shared machine drifts within
    seconds; calibrations taken beside each operation follow that drift,
    which neither the repeats inside one run nor a single factor for the
    whole run can.
    """
    pct, value, beyond = tail(run.latencies)
    _, raw_value, _ = tail(run.raw_latencies)
    out = {
        "throughput_ops_s": run.passed / sum(run.latencies),
        "latency_p50_ms": statistics.median(run.latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "throughput_ops_s": run.passed / sum(run.raw_latencies),
        "latency_p50_ms": statistics.median(run.raw_latencies) * 1e3,
        "latency_tail_ms": raw_value * 1e3,
    }
    return dict(out, raw=raw, scale=sum(run.latencies) / sum(run.raw_latencies),
                tail_percentile=pct, tail_samples_beyond=beyond, samples=len(run.latencies))


def per_layer(tracer, traced: Pass, untraced: Pass) -> dict:
    out = {}
    for name, (calls, total, self_s) in sorted(tracer.stats.items()):
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
    for layer in ("scalars", "words"):
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    for code in ("0", "2", "3", "other"):
        out[f"cli.exit.{code}"] = traced.exits[code]
    out["oracles.tight_ratio"] = traced.tight / traced.checks if traced.checks else 0.0
    out["oracles.tight_checks"] = traced.checks
    out["trace.overhead_ratio"] = sum(traced.latencies) / sum(untraced.latencies)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sk = import_skewcalc()
    imported = time.monotonic()
    groups = BUILDERS[args.workload](sk, args.seed)
    ready = time.monotonic()
    result = {
        "setup_s": ready - args.spawned_at,
        "import_s": imported - args.spawned_at,
        "generate_s": ready - imported,
        "setup_scale": CALIBRATION_REF_S / statistics.median([calibrate() for _ in range(21)]),
    }
    if not args.setup_only:
        if args.trace:
            # one untraced pass, then the same groups traced: the counts
            # depend on the seed only, never on the machine or the clock
            sample = groups[:TRACE_GROUPS[args.workload]]
            untraced = run_once(sample)
            tracer = layertrace.Tracer().install()
            traced = run_once(sample, tracer=tracer)
            tracer.uninstall()
            runs = (untraced, traced)
            result["layers"] = per_layer(tracer, traced, untraced)
        else:
            timed = run_for(groups, args.seconds)
            runs = (timed,)
            result["end_to_end"] = end_to_end(timed)
        last = runs[-1]
        result.update(
            attempted=last.attempted,
            failed=last.failed,
            failures=dict(last.failures),
            failed_untraced=sum(r.failed for r in runs[:-1]),
            groups=len(groups),
        )
        if args.workload == "queries":
            # each ROADMAP D reproduction once, untimed and untraced; a
            # failed check means the defect still stands
            result["known_defects"] = {
                group.kind: "fixed" if group.check(execute(group)[0]) else "reproduced"
                for group in build_known_defects(sk)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
