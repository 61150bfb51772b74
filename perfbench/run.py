"""dimvar benchmark: run from the root of a checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter (worker.py) with one
BLAS/OpenMP thread; the load is one closed loop with a single caller.  With --trace 0 the
set-up time is the median over SETUP_RUNS further fresh interpreters.
Every metric is printed by name with its unit; the last line of stdout
is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("example1_cli", "ladder_exact", "steer_ladder", "class_reduce")
SETUP_RUNS = 5
DEADLINE_S = 170            # every workload run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    # One BLAS thread: the matrices are small (n <= 77), and a second
    # OpenBLAS thread made steering 10-50x slower whenever another
    # process held a core, and added ~1 s to the first expm call.
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline):
    """Run worker.py with `args`; return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args[:2])} ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline):
    """Run one workload; return (printable lines, result fields)."""
    cold = ["--workload", name, "--seed", seed, "--cold"]
    colds = SETUP_RUNS if not trace else 0
    # half of the set-up runs before the measured run and half after it,
    # so that the median spans the run's changes in machine speed
    setups = [run_worker(cold, deadline)["setup_s"] for _ in range(colds // 2)]
    res = run_worker(["--workload", name, "--seed", seed, "--seconds", seconds,
                      "--trace", int(trace)], deadline)
    setups += [run_worker(cold, deadline)["setup_s"]
               for _ in range(colds - len(setups))]
    setup = statistics.median(setups) if setups else None
    summary = res["summary"]["rungs"]
    lines = [f"workload {name}  seed {seed}  passes {res['passes']}  "
             f"pass {res['pass_s']:.3g} s  "
             f"attempted {res['attempted']}  failed {res['failed']}  "
             f"correct {str(res['correct']).lower()}"]
    for why in res["incorrect"]:
        lines.append(f"  INCORRECT {why}")
    if trace:
        metrics = dict(res["layers"])
        lines += [f"  {k:<34} {v:.6g}" for k, v in metrics.items()]
    else:
        ok_share = 1 - res["failed"] / res["attempted"]
        metrics = {"setup_s": setup, "ok_share": ok_share}
        for i, rung in enumerate(res["rungs"], 1):
            mean = summary[rung]["mean_s"]
            metrics[f"rung{i}_ms"] = None if mean is None else mean * 1e3
        lines.append(f"  {'setup_s':<34} {setup:.4f} s  (median of {SETUP_RUNS} "
                     "fresh interpreters: import dimvar.cli + first operation)")
        for label, value, unit, note in res["report"]:
            shown = "null" if value is None else f"{value:.6g} {unit}"
            lines.append(f"  {label:<34} {shown}  ({note})")
        lines.append(f"  {'failed_share':<34} {res['failed'] / res['attempted']:.4g}"
                     f"  ({res['failed']} of {res['attempted']} operations)")
        for i, rung in enumerate(res["rungs"], 1):
            s = summary[rung]
            lines.append(f"  {f'rung{i}_ms':<34} "
                         + ("null" if s["mean_s"] is None
                            else f"{s['mean_s'] * 1e3:.6g} ms")
                         + f"  (mean of {rung}, n={s['samples']})")
        lines.append(f"  {'ok_share':<34} {ok_share:.4g} share")
    units = {"setup_s": "s", "ok_share": "share", "trace_overhead": "ratio"}
    out = {"correct": res["correct"], "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": {k: {"value": v, "unit": units.get(k, _unit(k))}
                       for k, v in metrics.items()}}
    return lines, out


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dimvar" / "__init__.py").is_file():
        print(f"error: no dimvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), deadline)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
