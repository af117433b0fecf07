"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src``, so ``exptree`` is the measured commit's and its module-level
caches start empty.  The script prints one JSON object on its last line.

Modes:

* ``setup``: import ``exptree`` and make the first batch of inputs, then
  report the monotonic clock, from which ``run.py`` takes the set-up time;
* ``run``: time ops for ``--seconds`` (at least ``MIN_OPS`` of them, in
  whole rounds of the workload's input shapes) or exactly ``--ops``,
  checking each answer outside the timed region;
  ``--trace`` wraps the library modules and reports per-layer numbers,
  ``--record`` prints the answer digests instead of comparing them with
  ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from bisect import bisect
from itertools import chain, islice
from time import perf_counter

import calibration
import inputs

import exptree as ex

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_OPS = 100  # so that ten samples lie beyond op_p90_ms
ENTROPY_TOL = 1e-9


# ------------------------------------------------------------------ ops
# Library functions are looked up on the module at call time, so the
# tracer's wrappers see every call.


def tree_op(base):
    P = ex.validate_base(base)
    tree = ex.build_tree(P)
    entropy = ex.core_entropy(tree)
    return ex.to_json(tree), entropy


def _itinerary_triod(base, members):
    P = ex.validate_base(base)
    return P, ex.Triod(tuple(ex.itinerary(P, a) for a in members), P)


def q_itinerary(base, t):
    return ex.itinerary(ex.validate_base(base), t)


def q_same_map(s1, s2):
    return ex.same_map(s1, s2)


def q_triod(base, members):
    _, T = _itinerary_triod(base, members)
    return ex.middle_point(T), ex.classify(T)


def q_addresses(base, members, m_range):
    P, T = _itinerary_triod(base, members)
    b = ex.middle_point(T)
    if isinstance(b, ex.PreSingular):
        return b, ex.addresses_of(P, b, m_range=m_range)
    return b, ex.addresses_of(P, b)


QUERY_OPS = {
    "itinerary": q_itinerary,
    "same_map": q_same_map,
    "triod": q_triod,
    "addresses": q_addresses,
}


# -------------------------------------------------------- inputs, checks


def lib(a: inputs.Address):
    return ex.canonicalize(*a)


def own(a) -> inputs.Address:
    return tuple(a.preperiod), tuple(a.period)


class TreeTask:
    """corpus and long: validate_base -> build_tree -> core_entropy -> to_json."""

    def __init__(self, a: inputs.Address):
        self.a = a
        self.name = inputs.fmt(a)
        self.args = (lib(a),)

    op = staticmethod(tree_op)

    def answer(self, result) -> str:
        return result[0]

    def check(self, result) -> str | None:
        text, entropy = result
        doc = json.loads(text)
        if doc["base"] != self.name:
            return f"base {doc['base']} != {self.name}"
        kneading = inputs.Partition(self.a).kneading
        if doc["kneading"] != kneading:
            return f"{self.name}: kneading {doc['kneading']} != {kneading}"
        tree = ex.tree_from_json(text)
        ex.check_tree_invariants(tree)
        if ex.to_json(tree) != text:
            return f"{self.name}: JSON does not round-trip"
        if not (math.isfinite(entropy) and entropy >= 0.0):
            return f"{self.name}: entropy {entropy}"
        return None


class QueryTask:
    """queries: one library call on an acceptance-shaped base."""

    def __init__(self, kind: str, P: inputs.Partition, args: tuple):
        self.kind, self.P, self.own_args = kind, P, args
        self.name = f"{kind} on {inputs.fmt(P.s)}"
        base = lib(P.s)
        if kind in ("itinerary", "same_map"):
            self.args = (base, lib(args[0]))
        else:
            self.args = (base, tuple(map(lib, args)))
            if kind == "addresses":
                firsts = [inputs.entry(a, 0) for a in args]
                self.args += (range(min(firsts) - 1, max(firsts) + 2),)
        self.op = QUERY_OPS[kind]

    def answer(self, r) -> str:
        if self.kind == "triod":
            return f"{r[0]}|{r[1]}"
        if self.kind == "addresses":
            return f"{r[0]}|" + ";".join(map(str, r[1]))
        return str(r)

    def check(self, r) -> str | None:
        P, args, where = self.P, self.own_args, self.name
        if self.kind == "itinerary":
            want = P.itinerary(args[0])
            return None if str(r) == want else f"{where}: {r} != {want}"
        if self.kind == "same_map":
            want = P.itinerary(args[0]) == P.kneading
            return None if r is want else f"{where}: {r} != {want}"
        if self.kind == "triod":
            its = [P.itinerary(m) for m in args]
            b, shape = str(r[0]), str(r[1])
            kind = "presingular-" if b.endswith("*") else ""
            if b in its:
                want = f"{kind}linear(middle={its.index(b) + 1})"
            else:
                want = f"{kind}branched"
            return None if shape == want else f"{where}: shape {shape} != {want}"
        b, found = str(r[0]), [own(a) for a in r[1]]
        if not found or any(P.itinerary(a) != b for a in found):
            return f"{where}: addresses do not realize {b}"
        if any(inputs.compare(x, y) >= 0 for x, y in zip(found, found[1:])):
            return f"{where}: addresses not strictly increasing"
        return None


def task_stream(workload: str, seed: int):
    if workload == "queries":
        return (QueryTask(*q) for q in inputs.query_inputs(seed))
    gen = inputs.corpus_inputs if workload == "corpus" else inputs.long_inputs
    return (TreeTask(a) for a in gen(seed))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> list | None:
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f).get(workload)
    return ref["answers"] if ref and ref["seed"] == seed else None


def compare_reference(task, result, ref) -> str | None:
    if isinstance(task, TreeTask):
        want, want_entropy = ref
        if abs(result[1] - want_entropy) > ENTROPY_TOL:
            return f"{task.name}: entropy {result[1]!r} != {want_entropy!r}"
    else:
        want = ref
    if digest(task.answer(result)) != want:
        return f"{task.name}: answer differs from the reference"
    return None


# -------------------------------------------------------------- tracing


def install_tracer():
    from exptree import analysis, partition, realization, sequences, treebuild, triods

    from tracing import Tracer

    tr = Tracer()
    tr.counted(sequences, "canonicalize", "sequences.canonicalize")
    tr.counted(sequences, "compare_lex", "sequences.compare_lex")
    tr.counted(sequences.ExtAddress, "shift", "sequences.shift")
    tr.timed(partition, "validate_base", "partition.validate_base")
    tr.timed(partition, "itinerary", "partition.itinerary")
    tr.timed(triods, "middle_point", "triods.middle_point")
    tr.timed(
        realization,
        "addresses_of_periodic",
        "realization.periodic_search",
        key=lambda args: (args[0], args[1]),
    )
    tr.timed(realization, "addresses_of", "realization.addresses_of")
    tr.timed(treebuild, "vertex_set", "treebuild.vertex_set")
    tr.timed(
        treebuild, "build_tree", "treebuild.build_tree", size=lambda t: len(t.vertices)
    )
    tr.timed(treebuild, "check_tree_invariants", "treebuild.check_tree_invariants")
    tr.timed(treebuild, "to_json", "treebuild.to_json")
    tr.timed(analysis, "core_entropy", "analysis.core_entropy")
    tr.timed(analysis, "transition_matrix", "analysis.transition_matrix")
    tr.timed(analysis, "spectral_radius_power", "analysis.spectral_radius_power")
    tr.counted(analysis, "spectral_radius_exact", "analysis.spectral_radius_exact")
    tr.timed(analysis, "same_map", "analysis.same_map")
    return tr


def layer_metrics(tr) -> dict[str, float]:
    L = tr.layers
    search = L["realization.periodic_search"]
    out = {
        "realization.periodic_search_calls": search.calls,
        "realization.periodic_search_s": search.total_s,
        "realization.periodic_search_useful_frac": (
            len(search.keys) / search.calls if search.calls else 0.0
        ),
        "triods.middle_point_calls": L["triods.middle_point"].calls,
        "treebuild.build_tree_self_s": L["treebuild.build_tree"].self_s,
        "treebuild.vertices": L["treebuild.build_tree"].sizes,
        "analysis.spectral_exact_fallbacks": L["analysis.spectral_radius_exact"].calls,
        "partition.itinerary_calls": L["partition.itinerary"].calls,
        "sequences.canonicalize_calls": L["sequences.canonicalize"].calls,
        "sequences.shift_calls": L["sequences.shift"].calls,
        "sequences.compare_lex_calls": L["sequences.compare_lex"].calls,
    }
    for name in (
        "realization.addresses_of",
        "triods.middle_point",
        "treebuild.vertex_set",
        "treebuild.build_tree",
        "treebuild.check_tree_invariants",
        "treebuild.to_json",
        "analysis.core_entropy",
        "analysis.transition_matrix",
        "analysis.spectral_radius_power",
        "analysis.same_map",
        "partition.validate_base",
        "partition.itinerary",
    ):
        out[name + "_s"] = L[name].total_s
    return out


# ------------------------------------------------------------- timings


class Clock:
    """Op durations, with calibration samples taken between ops."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self.cal_at = array("d")
        self.cal_s = array("d")

    def calibrate(self) -> None:
        self.cal_at.append(perf_counter())
        self.cal_s.append(calibration.task_seconds())

    def maybe_calibrate(self) -> None:
        if not self.cal_at or perf_counter() - self.cal_at[-1] >= calibration.EVERY_S:
            self.calibrate()

    def scaled(self) -> array:
        out = array("d")
        w = calibration.WINDOW
        for start, d in zip(self.starts, self.durations):
            j = bisect(self.cal_at, start)
            out.append(d * calibration.scale(self.cal_s[max(0, j - w) : j + w]))
        return out


def summary(durations) -> dict[str, float]:
    return {
        "ops_per_s": len(durations) / math.fsum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": statistics.quantiles(durations, n=10)[-1] * 1e3,
    }


# ----------------------------------------------------------------- main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if os.path.dirname(os.path.abspath(ex.__file__)) != os.path.join(SRC, "exptree"):
        print(f"exptree imported from {ex.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    stream = task_stream(args.workload, args.seed)
    batch = list(islice(stream, inputs.BATCH[args.workload]))
    if args.mode == "setup":
        print(json.dumps({"ready": time.monotonic(), "cpu_s": time.process_time()}))
        return 0

    reference = None if args.record else load_reference(args.workload, args.seed)
    tracer = install_tracer() if args.trace else None
    clock = Clock()
    digests: list = []
    errors: list[str] = []
    raised = wrong = 0
    whole = inputs.ROUND[args.workload]
    deadline = perf_counter() + args.seconds
    for i, task in enumerate(chain(batch, stream)):
        clock.maybe_calibrate()
        if tracer:
            tracer.active = True
        t0 = perf_counter()
        try:
            result = task.op(*task.args)
        except Exception as exc:  # noqa: BLE001 - a raised error is a failed op
            result = exc
        clock.durations.append(perf_counter() - t0)
        clock.starts.append(t0)
        if tracer:
            tracer.active = False
        if isinstance(result, Exception):
            raised += 1
            problem = f"raised {type(result).__name__}: {result}"
        else:
            try:
                problem = task.check(result)
                if problem is None and args.record and i < inputs.BATCH[args.workload]:
                    d = digest(task.answer(result))
                    digests.append([d, result[1]] if isinstance(task, TreeTask) else d)
                elif problem is None and reference is not None and i < len(reference):
                    problem = compare_reference(task, result, reference[i])
            except Exception as exc:  # noqa: BLE001 - a failed check is a wrong answer
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                wrong += 1
                problem = "wrong answer: " + problem
        if problem is not None and len(errors) < 5:
            errors.append(problem)
        n = len(clock.durations)
        if n == args.ops:
            break
        if not args.ops and n >= MIN_OPS and n % whole == 0 and perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.calibrate()
    if tracer:
        tracer.uninstall()

    scaled = clock.scaled()
    out = {
        "ops": len(clock.durations),
        "raised": raised,
        "wrong": wrong,
        "errors": errors,
        "op_s_sum": math.fsum(clock.durations),
        "op_s_scaled_sum": math.fsum(scaled),
        "raw": summary(clock.durations),
        "scaled": summary(scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer)
    if args.record:
        out["digests"] = digests
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
