"""Benchmark for exptree: tree building, entropy and single queries.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seeds
    python3 perfbench/run.py --record-reference      # rewrite reference.json

Workloads (an op is one unit of user work; see ``inputs.py``):

* ``corpus``: ``validate_base -> build_tree -> core_entropy -> to_json`` on
  acceptance-shaped bases (preperiod <= 3, period <= 4, entries in
  [-3, 3]).  Power iteration is about half the time, the triod passes
  about a quarter, the realization search about a tenth.
* ``long``: the same op on bases with preperiod <= 6, period <= 8,
  entries in [-5, 5], served one per period length in turn.  The
  exponential periodic search is about half the time, and only about a
  fifth of the searches are for a new itinerary, so a memo or a new
  search shows here.
* ``queries``: one library call per op -- ``itinerary``, ``same_map``,
  ``middle_point`` + ``classify`` and ``addresses_of`` of a middle
  point -- on acceptance-shaped bases.  The inputs share little work and
  no numpy runs, so a per-call cost or set-up work that tree building
  hides shows here, and a memo should not.

Every run happens in fresh interpreters that import ``exptree`` from the
checkout's ``src``.  With ``--trace 0`` it prints the end-to-end metrics:
``setup_s`` (median of 11 starts, each from a fresh interpreter through
``import exptree`` and the first batch of inputs), and from one timed
run of ``--seconds`` (at least 100 ops, in whole rounds of input
shapes): ``ops_per_s`` (ops over the time spent in them), ``op_p50_ms``,
``op_p90_ms`` and ``peak_rss_mb``.  Times are scaled to a reference
host speed by yardsticks that do not use the library (see
``calibration.py``); the wall-clock values, and the CPU time of the
starts, are printed next to them.  With ``--trace 1`` it runs the first
batch of inputs once untraced and once with wrappers around the
library's layers, and prints per-layer wall times and counts, the import
times, and the tracing overhead (traced minus untraced op time, scaled).
A fixed batch makes the counts repeat exactly.  Metric units are those
given in ``BENCHMARK.json``.

Every answer is checked outside the timed region: trees round-trip
through ``tree_from_json`` and ``check_tree_invariants``, kneading data,
itineraries and realizing addresses are recomputed independently, and
for each workload's default seed the first batch must match
``reference.json`` (``to_json`` byte for byte, entropy within 1e-9,
query answers exactly).  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

import calibration
from inputs import BATCH, DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_STARTS = 11
IMPORT_PROBES = 3
BUDGET_S = 170  # per workload; a run that takes longer is stopped and fails

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _spec = json.load(_f)
UNITS = {m["name"]: m["unit"] for m in _spec["end_to_end"] + _spec["per_layer"]}


class ChildFailed(Exception):
    pass


def _out_of_time(signum, frame):
    # subprocess.run kills and reaps its child when this propagates.
    raise ChildFailed(f"run exceeded {BUDGET_S} s per workload")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # set orders, hence traced counts, repeat exactly
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    return proc


def worker(workload: str, seed: int, *extra: str) -> dict:
    argv = [WORKER, "--workload", workload, "--seed", str(seed), *extra]
    return json.loads(run_child(argv).stdout.splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> dict[str, list[float]]:
    """Set-up times of several fresh starts: scaled by the start of the
    yardstick interpreter next to each (see ``calibration.py``), wall
    clock, and CPU."""
    worker(workload, seed, "--mode", "setup")  # compiles bytecode, warms the file cache
    out: dict[str, list[float]] = {"scaled": [], "wall": [], "cpu": []}
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        ready = worker(workload, seed, "--mode", "setup")
        wall = ready["ready"] - t0
        t0 = time.monotonic()
        run_child(list(calibration.START_ARGV))
        yardstick = time.monotonic() - t0
        out["scaled"].append(wall * calibration.START_REF_S / yardstick)
        out["wall"].append(wall)
        out["cpu"].append(ready["cpu_s"])
    return out


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times_ms() -> dict[str, float]:
    """Cumulative import times of ``exptree`` and ``numpy`` in a fresh
    interpreter, medians of several probes, from ``-X importtime``."""
    samples: dict[str, list[float]] = {"exptree": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        proc = run_child(["-X", "importtime", "-c", "import exptree"])
        for m in _IMPORTTIME.finditer(proc.stderr):
            if m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1000.0)
    return {
        "exptree.import_ms": statistics.median(samples["exptree"]),
        "exptree.numpy_import_ms": (
            statistics.median(samples["numpy"]) if samples["numpy"] else 0.0
        ),
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict[str, int]]:
    """End-to-end metrics: (worker result, metric values, sample counts)."""
    setup = {k: statistics.median(v) for k, v in setup_seconds(workload, seed).items()}
    res = worker(workload, seed, "--mode", "run", "--seconds", str(seconds))
    values = {"setup_s": setup["scaled"], **res["scaled"]}
    values["peak_rss_mb"] = res["peak_rss_mb"]
    samples = {"setup_s": SETUP_STARTS, "peak_rss_mb": 1}
    res["notes"] = {name: f"wall clock {v:.6g}" for name, v in res["raw"].items()}
    res["notes"]["setup_s"] = f"wall clock {setup['wall']:.6g}, CPU {setup['cpu']:.6g}"
    return res, values, samples


def measure_traced(workload: str, seed: int) -> tuple[dict, dict, dict[str, int]]:
    """Per-layer metrics from a traced run of the first batch of inputs."""
    plain = worker(workload, seed, "--mode", "run", "--ops", str(BATCH[workload]))
    traced = worker(
        workload, seed, "--mode", "run", "--ops", str(BATCH[workload]), "--trace"
    )
    values = dict(traced["layers"])
    values.update(import_times_ms())
    # Scaled, since the host's speed drifts by more than the overhead
    # between the two runs.
    values["trace.overhead_s"] = traced["op_s_scaled_sum"] - plain["op_s_scaled_sum"]
    res = {key: plain[key] + traced[key] for key in ("ops", "raised", "wrong", "errors")}
    res["traced_s"] = traced["op_s_sum"]
    samples = {name: 1 for name in values}
    samples.update({"exptree.import_ms": IMPORT_PROBES, "exptree.numpy_import_ms": IMPORT_PROBES})
    return res, values, samples


def record_reference() -> int:
    """Store the answers for each workload's default seed, one per line."""
    parts = []
    for w in WORKLOADS:
        res = worker(w, DEFAULT_SEED[w], "--mode", "run", "--ops", str(BATCH[w]), "--record")
        if res["raised"] or res["wrong"]:
            print(f"{w}: failed ops: {res['errors']}", file=sys.stderr)
            return 1
        rows = ",\n".join(json.dumps(a) for a in res["digests"])
        parts.append(f'"{w}": {{"seed": {DEFAULT_SEED[w]}, "answers": [\n{rows}\n]}}')
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        f.write("{\n" + ",\n".join(parts) + "\n}\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, help="default: the workload's reference seed")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "exptree", "__init__.py")):
        print(f"no exptree sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(BUDGET_S * len(workloads))
    attempted = raised = wrong = 0
    metrics: dict[str, dict] = {}
    try:
        for w in workloads:
            seed = DEFAULT_SEED[w] if args.seed is None else args.seed
            if args.trace:
                res, values, samples = measure_traced(w, seed)
            else:
                res, values, samples = measure(w, seed, args.seconds)
            attempted += res["ops"]
            raised += res["raised"]
            wrong += res["wrong"]
            for err in res["errors"]:
                print(f"{w} FAILED: {err}")
            for name, value in values.items():
                unit = UNITS[name]
                n = samples.get(name, res["ops"])
                note = ""
                if args.trace and unit == "s" and name != "trace.overhead_s":
                    note = f", {value / res['traced_s']:.1%} of traced op time"
                elif name in res.get("notes", {}):
                    note = ", " + res["notes"][name]
                shown = value if isinstance(value, int) else f"{value:.6g}"
                print(f"{w} seed={seed} {name} = {shown} {unit} (n={n}{note})")
                key = name if len(workloads) == 1 else f"{w}.{name}"
                metrics[key] = {"value": value, "unit": unit}
            failed_frac = (res["raised"] + res["wrong"]) / res["ops"]
            print(f"{w} seed={seed} failed_frac = {failed_frac:.6g} (n={res['ops']})")
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    signal.alarm(0)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": raised + wrong,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
