"""One workload in one fresh interpreter; `run.py` starts it.

    worker.py --workload NAME --seed N --cold
        import dimvar.cli, then run the workload's first operation once;
        prints {"setup_s": ...}.
    worker.py --workload NAME --seed N --seconds S --trace 0|1
        make a fixed number of passes over the workload's operations,
        about S seconds of them at the workload's nominal pass time.
        With --trace 1, passes alternate between untraced and traced,
        and the result carries per-layer figures of the traced passes.

The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3          # enough for a median per operation
# A run ends early, after the pass in progress, once it has taken this
# many times --seconds: only a large slowdown gets there, and it keeps
# the run within the time limit at the cost of a smaller sample.
MAX_STRETCH = 4
LAYERS = ("cli", "realization", "controllability", "simulation", "systems",
          "mixdim", "numerics")
ELIM = {f"numerics.{f}" for f in ("rank", "pivot_columns", "column_space_basis",
                                  "in_span", "solve", "inverse")}
# inclusive time of one function, reported as a per-layer figure
FUNCTION_TIMES = {
    "controllability.ctrb_s": "controllability.ctrb_matrix",
    "controllability.kalman_s": "controllability.kalman_decomposition",
    "controllability.gramian_s": "controllability.ctrb_gramian",
    "simulation.design_s": "simulation.min_energy_control",
    "simulation.rk4_s": "simulation.rk4_integrate",
    "simulation.export_s": "simulation.export_trajectory",
    "realization.modeling_s": "realization.check_modeling_condition",
    "realization.check_s": "realization.check_realization",
}


def _run_op(op):
    """Run one operation; return (wall seconds, ok, why it failed)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:        # a failed operation is a measurement
        return time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception as exc:        # a malformed output fails its check
        return dt, False, f"check raised {type(exc).__name__}: {exc}"
    return dt, ok, None if ok else "output check failed"


def _elim_cells(tracer, args, kwargs, result):
    if tracer.open_labels() & ELIM:
        return                      # counted by the enclosing elimination
    M = args[0]
    if hasattr(M, "basis"):         # in_span(S, v): the augmented matrix
        rows, cols = M.basis.shape[0], M.basis.shape[1] + 1
    else:
        rows, cols = M.shape[0], (M.shape[1] if M.ndim == 2 else 1)
    tracer.counters["numerics.elim_cells"] += rows * cols


def _krylov_cols(tracer, args, kwargs, result):
    tracer.counters["controllability.krylov_cols"] += result.shape[1]


def _rk4_steps(tracer, args, kwargs, result):
    tracer.counters["simulation.rk4_steps"] += len(result.times) - 1


def make_tracer():
    import importlib

    import scipy.linalg

    import spans
    import workloads

    mods = {layer: importlib.import_module(f"dimvar.{layer}") for layer in LAYERS}
    namespaces = [vars(m) for m in mods.values()]
    namespaces += [vars(importlib.import_module("dimvar")), vars(workloads)]
    tracer = spans.Tracer()
    counters = {f: _elim_cells for f in ELIM}
    counters["controllability.ctrb_matrix"] = _krylov_cols
    counters["simulation.rk4_integrate"] = _rk4_steps
    tracer.instrument(mods, namespaces, extra=[(scipy.linalg, "expm", "scipy")],
                      counters=counters)
    return tracer


def layer_figures(tracer, traced_wall_s, passes, overhead):
    """Per-layer figures per traced pass."""
    agg = tracer.aggregate()
    out = {}
    for layer in LAYERS:
        rows = [v for k, v in agg.items() if k.split(".")[0] == layer]
        out[f"{layer}.self_s"] = sum(r["self_ns"] for r in rows) / 1e9 / passes
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows) / passes
        out[f"{layer}.failed"] = sum(r["failed"] for r in rows) / passes
    expm = agg.get("scipy.expm", {"calls": 0, "incl_ns": 0})
    out["scipy.expm_calls"] = expm["calls"] / passes
    out["scipy.expm_s"] = expm["incl_ns"] / 1e9 / passes
    for name, label in FUNCTION_TIMES.items():
        out[name] = agg.get(label, {"incl_ns": 0})["incl_ns"] / 1e9 / passes
    for name in ("numerics.elim_cells", "controllability.krylov_cols",
                 "simulation.rk4_steps"):
        out[name] = tracer.counters.get(name, 0) / passes
    out["traced_wall_s"] = traced_wall_s / passes
    out["unattributed_s"] = (traced_wall_s - tracer.root_ns() / 1e9) / passes
    out["trace_overhead"] = overhead
    return out


def planned_passes(seconds, pass_s):
    """The fixed number of passes of a run: a seed always gives the
    same operations, so `attempted` and `failed` do not depend on the
    machine's speed."""
    return max(MIN_PASSES, round(seconds / pass_s))


def measure(name, seed, seconds, trace):
    import workloads

    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        wl = workloads.WORKLOADS[name](seed, tmpdir)
        _run_op(wl.ops[0])          # warm-up: lazy imports, first-call costs
        tracer = make_tracer() if trace else None
        op_samples = [[] for _ in wl.ops]
        pass_times = {False: [], True: []}
        attempted = failed = 0
        incorrect = []
        t_stop = time.perf_counter() + MAX_STRETCH * seconds
        for i in range(planned_passes(seconds, wl.pass_s)):
            if i >= 2 and time.perf_counter() >= t_stop:
                break
            traced = trace and i % 2 == 1
            t0 = time.perf_counter()
            for op, samples in zip(wl.ops, op_samples):
                if traced:
                    with tracer.active():
                        dt, ok, why = _run_op(op)
                else:
                    dt, ok, why = _run_op(op)
                attempted += 1
                failed += not ok
                if not ok and op.gated and len(incorrect) < 20:
                    incorrect.append(f"{op.label}: {why}")
                samples.append((dt, ok))
            pass_times[traced].append(time.perf_counter() - t0)
        summary = {"rungs": {}, "labels": {}}
        for rung in wl.rungs:
            mine = [s for op, s in zip(wl.ops, op_samples) if op.rung == rung]
            summary["rungs"][rung] = (metrics.pass_summary(mine) if rung in wl.pass_rungs
                                      else metrics.rung_summary(sum(mine, [])))
        for label in dict.fromkeys(op.label for op in wl.ops):
            summary["labels"][label] = metrics.rung_summary(sum(
                (s for op, s in zip(wl.ops, op_samples) if op.label == label), []))
        result = {
            "correct": not incorrect,
            "incorrect": incorrect,
            "attempted": attempted,
            "failed": failed,
            "passes": len(pass_times[False]) + len(pass_times[True]),
            "pass_s": metrics.median(pass_times[False]),
            "rungs": list(wl.rungs),
            "summary": summary,
            "report": wl.report(summary),
        }
        if trace:
            overhead = (metrics.median(pass_times[True])
                        / metrics.median(pass_times[False]))
            result["layers"] = layer_figures(tracer, sum(pass_times[True]),
                                             len(pass_times[True]), overhead)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        return result
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def cold(name, seed):
    t0 = time.perf_counter()
    import dimvar.cli  # noqa: F401  (the import a CLI user pays for)
    import_s = time.perf_counter() - t0
    import workloads

    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        op = workloads.WORKLOADS[name](seed, tmpdir).ops[0]
        first_op_s, ok, why = _run_op(op)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return {"setup_s": import_s + first_op_s, "import_s": import_s,
            "first_op_s": first_op_s, "ok": ok, "why": why}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold", action="store_true")
    args = ap.parse_args()
    if args.cold:
        result = cold(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
