"""Self-test of the benchmark's checks and of the determinism of its counts.

    python3 perfbench/selftest.py

1. For every kind of group in every workload, the check must pass on the
   program's real answer and must count a deliberately wrong answer (a
   perturbed float, a flipped true/false, a wrong exit code, a changed
   printed element) as a failure.  The known-defect reproductions are
   tested the other way round: the answer the defect gives must fail and
   the answer ROADMAP item D asks for must pass.
2. Two traced runs with the same seed must report identical counts.

Exits 0 when everything holds; prints each failed assertion otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import worker
from workloads import BUILDERS, build_known_defects

SEED = 7
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scale_first_float(text: str, factor: float) -> str:
    match = re.search(r"-?\d+\.\d+(e-?\d+)?", text)
    value = float(match.group(0)) * factor + (1.0 if float(match.group(0)) == 0 else 0.0)
    return text[:match.start()] + repr(value) + text[match.end():]


def _swap_code(code):
    return {0: 2, 2: 3, 3: 2}.get(code, 0)


# Wrong answers per group kind: each maps the real results to a mutated copy.
def _query(mutate_out=None, code=False, index=0):
    def mutate(results):
        results = list(results)
        c, out, err = results[index]
        if code:
            c = _swap_code(c)
        if mutate_out is not None:
            out = mutate_out(out)
        results[index] = (c, out, err)
        return results
    return mutate


def _norm_below_qnorm(results):
    """A coset group's norm(f) just under half its qnorm(f): a halved norm
    alone can stay above the qnorm and so be no wrong answer."""
    results = list(results)
    code, out, err = results[2]
    qn = float(results[0][1].split()[0])
    match = re.search(r"-?\d+\.\d+(e-?\d+)?", out)
    results[2] = (code, out[:match.start()] + repr(qn / 2 - 1e-3) + out[match.end():], err)
    return results


def _table_decreasing(out: str) -> str:
    lines = out.splitlines()
    head, rows = lines[0], [line.split(",") for line in lines[1:]]
    rows[1][2] = repr(float(rows[0][2]) / 2 - 1)  # below the row before it (same lambda)
    return "\n".join([head] + [",".join(r) for r in rows]) + "\n"


def _flip_forward(out: str) -> str:
    if "forward growing" in out:
        return out.replace("forward growing", "forward bounded")
    return out.replace("forward bounded", "forward growing")


def _flip_verdict(out: str) -> str:
    first, _, rest = out.partition("\n")
    other = "NoDecay" if first != "NoDecay" else "RapidDecayObserved"
    return other + "\n" + rest


WRONG = {
    "homomorphism": [
        lambda r: [(True,) + r[0][1:]],  # a truncated product
        lambda r: [(r[0][0], r[0][1], r[0][2] + r[0][2])],  # a wrong product
    ],
    "sandwich": [
        lambda r: [[(e, t, e / 2 - 1e-6) for e, t, _ in r[0]]],  # oracle below the closed form
        lambda r: [[(e, "upper_bound", o) for e, _, o in r[0]]],
    ],
    "slice": [lambda r: [(r[0][0], r[0][0] / 2 - 1e-6)]],
    "coset": [_query(lambda o: _scale_first_float(o, 1.25), index=1),
              _norm_below_qnorm,
              _query(code=True)],
    "interval": [_query(lambda o: _scale_first_float(o, 1.25)),
                 _query(lambda o: _scale_first_float(o, 0.8)),
                 _query(code=True)],
    "power": [_query(lambda o: _scale_first_float(o, 1 + 1e-6)), _query(code=True)],
    "table": [_query(_table_decreasing), _query(code=True)],
    "reduce": [_query(lambda o: "7*z^9*x1 + " + o), _query(code=True)],
    "phi": [_query(lambda o: o + "phi(9,9) = 1\n"), _query(code=True)],
    "to-ore": [_query(lambda o: "7*z^9*t + " + o), _query(code=True)],
    "mul": [_query(lambda o: "7*z^9*t + " + o), _query(code=True)],
    "vanishing": [_query(_flip_verdict), _query(code=True)],
    "localizability": [_query(_flip_forward), _query(code=True)],
    "invalid": [_query(code=True), _query(lambda o: o + "0.0 (exact)\n")],
}

# Products' ideal groups return (member(g), member(g + off)): flip either.
WRONG["ideal_products"] = [lambda r: [(not r[0][0], r[0][1])], lambda r: [(r[0][0], not r[0][1])]]
# Queries' ideal groups answer true then false: flip the member's answer.
WRONG["ideal_queries"] = [_query(lambda o: "false\n"), _query(lambda o: "true\n", index=1),
                          _query(code=True)]

# Known-defect reproductions: (the defective answer, the answer asked for).
DEFECTS = {
    "D1": ((0, "CollapseCertified\n", ""), (0, "RapidDecayObserved\n", "")),
    "D2": ((0, "(z^2)*x1^2*x2\n", ""), (0, "(z^2)*x1\n", "")),
    "D3": ((0, "0.0 (exact)\n", ""), (0, "0.0 (upper_bound)\n", "")),
    "D4": (("raise:OverflowError", "", ""), (2, "", "error: degree beyond the caps\n")),
}


def counted_as_failure(group, results) -> bool:
    run = worker.Pass()
    run.record(group, results, [0.0] * len(results), group.check(results))
    return run.failed == len(group.ops)


def check_checkers(problems: list):
    sk = worker.import_skewcalc()
    for name, build in BUILDERS.items():
        seen = set()
        for group in build(sk, SEED):
            key = group.kind if group.kind != "ideal" else f"ideal_{name}"
            if key in seen:
                continue
            seen.add(key)
            results, _ = worker.execute(group)
            if counted_as_failure(group, results):
                problems.append(f"{name}/{key}: the real answer failed: {results!r:.300}")
            for i, wrong in enumerate(WRONG[key]):
                mutated = wrong(results)
                if not counted_as_failure(group, mutated):
                    problems.append(f"{name}/{key}: wrong answer {i} passed: {mutated!r:.300}")
        print(f"{name}: checked kinds {sorted(seen)}")
    for group in build_known_defects(sk):
        defective, fixed = DEFECTS[group.kind]
        if not counted_as_failure(group, [defective]):
            problems.append(f"{group.kind}: the defective answer passed")
        if counted_as_failure(group, [fixed]):
            problems.append(f"{group.kind}: the answer asked for failed")
    print(f"known defects: checked {sorted(DEFECTS)}")
    return problems


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k.startswith("cli.exit.")}


def check_counts(problems: list):
    for workload in BUILDERS:
        first, second = traced_counts(workload), traced_counts(workload)
        differ = {k for k in first if first[k] != second.get(k)}
        print(f"{workload}: {len(first)} counts, {len(differ)} differ between two traced runs")
        if differ:
            problems.append(f"{workload}: traced counts differ: {sorted(differ)}")


def main() -> int:
    problems: list = []
    check_checkers(problems)
    check_counts(problems)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
