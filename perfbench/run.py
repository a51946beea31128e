"""skewcalc benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload products|queries|oracle
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is timed SETUP_PROBES times in
fresh interpreters (spawn, ``import skewcalc.cli``, input generation)
and reported as the median.  The measured run then happens in one more
fresh interpreter (``worker.py``):

* ``--trace 0`` runs and checks the workload's groups until their
  operations have taken S / 4 seconds at the reference speed, then runs
  the same groups twice more and keeps each operation's fastest time,
  and reports the end-to-end metrics;
* ``--trace 1`` runs every group once untraced and once with the layer
  wrappers of ``layertrace`` installed, and reports the per-layer
  metrics.  Its work depends on the seed only, so its counts repeat.

The last line of stdout is the JSON result; lines before it are for
people.  Exit code 0 on a completed run, 1 on a failed one, 2 on bad
usage or when the checkout holds no skewcalc sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 6
RUN_BUDGET_S = 170.0


def load_contract() -> dict:
    """BENCHMARK.json: the workload names and the metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn(args, extra, deadline) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run budget exhausted before the worker started")
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(argv + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    contract = load_contract()
    end_to_end_units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "skewcalc", "cli.py")):
        print(f"no skewcalc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        probes = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        run = spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups = probes + [run]
    setup = {key: statistics.median(p[key] for p in setups)
             for key in ("setup_s", "import_s", "generate_s")}
    # each interpreter times calibrate() right after its set-up; scaled
    # like the operation timings (see worker.end_to_end)
    setup["setup_scaled_s"] = statistics.median(p["setup_s"] * p["setup_scale"] for p in setups)

    if args.trace:
        layers = run["layers"]
        layers["setup.import_s"] = setup["import_s"]
        layers["setup.generate_s"] = setup["generate_s"]
        report_layers(layers, per_layer_units)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in per_layer_units.items()}
    else:
        e2e = dict(run["end_to_end"], setup_s=setup["setup_scaled_s"])
        e2e["raw"]["setup_s"] = setup["setup_s"]
        report_end_to_end(args, run, e2e, end_to_end_units)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in end_to_end_units.items()}

    # Every operation of a workload has a right answer on the seed commit,
    # so any failure (of the traced or the untraced pass) is a wrong answer.
    # The ROADMAP D reproductions run outside the workload (report_defects).
    correct = run["failed"] == 0 and run["failed_untraced"] == 0
    report_defects(run)
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def report_end_to_end(args, run, e2e, units):
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"one closed-loop client, {run['groups']} generated groups")
    print(f"timings at the reference speed (raw x {e2e['scale']:.4g}; raw in brackets)")
    for name, unit in units.items():
        line = f"  {name:<18} {e2e[name]:.6g} {unit}"
        if name in e2e["raw"]:
            line += f"  [{e2e['raw'][name]:.6g}]"
        if name == "latency_tail_ms":
            line += (f"  (p{e2e['tail_percentile']:g} of {e2e['samples']} samples,"
                     f" {e2e['tail_samples_beyond']} beyond it)")
        print(line)
    print(f"  {'failed ops':<18} {run['failed']} of {run['attempted']}"
          f" (by kind: {run['failures'] or 'none'})")


def report_defects(run):
    """The ROADMAP D reproductions, and the error rate counting them.

    Each runs once per queries run, outside the timed operations, so that
    the result line counts only the workload's own operations; the error
    rate printed here adds the reproductions that still fail.
    """
    defects = run.get("known_defects")
    if defects is None:
        return
    standing = sum(outcome == "reproduced" for outcome in defects.values())
    rate = (run["failed"] + standing) / (run["attempted"] + len(defects))
    print("  known defects (ROADMAP D, once each, untimed): "
          + ", ".join(f"{label} {outcome}" for label, outcome in sorted(defects.items())))
    print(f"  {'error_rate':<18} {rate:.6g}  ({run['failed'] + standing} of"
          f" {run['attempted'] + len(defects)}, the known defects included)")


def report_layers(layers, units):
    print("per-layer breakdown of the traced pass (self time, calls)")
    spans = sorted((k[:-len(".calls")] for k in layers
                    if k.endswith(".calls") and layers[k] > 0),
                   key=lambda k: -layers[k + ".self_s"])
    for name in spans:
        print(f"  {name:<48} {layers[name + '.self_s']:10.4f} s {layers[name + '.calls']:>10}")
    for name, unit in units.items():
        print(f"  {name:<48} {layers.get(name, 0):.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
