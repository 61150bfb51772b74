"""Command-line front end.

Subcommands
-----------
check     run the realization and modeling-condition checks
ctrb      print the controllability matrix/basis of a named system
reduce    reduce a vector to its irreducible class representative
blend     print the blended transient model
simulate  run a steered transient scenario and export the trajectory

Exit codes: 0 = success / condition holds, 1 = condition fails or the
target was missed, 2 = usage or input error, 3 = numerical failure
(a float linear-algebra routine failed on a valid input).

System files are JSON: matrices are grids of scalar strings ("3",
"3/2", "0.75"), parsed exactly under the rational backend.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .controllability import _class_reps, ctrb_subspace
from .mixdim import reduce_vector
from .numerics import DEFAULT_TOL, Tolerance, mat, parse_scalar, vec
from .realization import (build_transient_model, check_modeling_condition,
                          check_realization)
from .simulation import (Scenario, UnreachableTargetError, export_trajectory,
                         run_transient_scenario)
from .systems import LinSys


class InputError(Exception):
    """Malformed system file or arguments (exit code 2)."""


def _fmt_scalar(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return f"{float(x):.12g}"


def _fmt_vector(v) -> str:
    return "[" + ", ".join(_fmt_scalar(x) for x in np.asarray(v).reshape(-1)) + "]"


def _fmt_matrix(M, indent: str = "  ") -> str:
    return "\n".join(indent + _fmt_vector(row) for row in np.asarray(M))


def _json_scalar(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    return float(x)


def _json_matrix(M):
    return [[_json_scalar(x) for x in row] for row in np.asarray(M)]


def _json_vector(v):
    return [_json_scalar(x) for x in np.asarray(v).reshape(-1)]


def _load_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    return doc


def _parse_system(doc: dict, key: str, path: str, exact: bool) -> LinSys:
    if key not in doc:
        raise InputError(f"{path}: missing field '{key}'")
    entry = doc[key]
    try:
        A = mat(entry["A"], exact)
        B = mat(entry["B"], exact)
    except KeyError as exc:
        raise InputError(f"{path}: '{key}' is missing field {exc}")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{path}: '{key}' has an unparseable entry: {exc}")
    try:
        return LinSys(name=key, A=A, B=B)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _parse_weights(doc: dict, path: str) -> dict:
    if "transient" not in doc:
        raise InputError(f"{path}: missing field 'transient' (weights)")
    tr = doc["transient"]
    try:
        if "masses" in tr:
            kw = {"masses": tuple(Fraction(str(m)) for m in tr["masses"])}
        else:
            kw = {"alpha": Fraction(str(tr["alpha"])),
                  "beta": Fraction(str(tr["beta"]))}
    except KeyError as exc:
        raise InputError(f"{path}: 'transient' is missing field {exc}")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{path}: 'transient' has an unparseable entry: {exc}")
    for v in kw.get("masses", ()) or (kw.get("alpha"), kw.get("beta")):
        if v is not None and v <= 0:
            raise InputError(f"{path}: transient weights must be strictly positive")
    return kw


def _parse_case(doc: dict, args) -> tuple[LinSys, LinSys, dict]:
    """Both systems, on the chosen backend, and the transient weights."""
    return (_parse_system(doc, "sigma1", args.file, args.exact),
            _parse_system(doc, "sigma2", args.file, args.exact),
            _parse_weights(doc, args.file))


def _print_notes(doc: dict, out) -> None:
    for note in doc.get("notes", []):
        print(f"note: {note}", file=out)


def cmd_check(args) -> int:
    doc = _load_file(args.file)
    s1, s2, weights = _parse_case(doc, args)
    tol = args.tolerance
    model = build_transient_model(s1, s2, **weights)
    real = check_realization(s1, s2, tol)
    modeling = check_modeling_condition(s1, s2, model, tol)
    ok = real.realizable and modeling.holds
    if args.json:
        payload = {
            "realization": {
                "realizable": real.realizable,
                "q": real.q,
                "dim_C1": real.dim_C1,
                "dim_C2": real.dim_C2,
                "witness": _json_matrix(real.witness.basis.T),
                "notes": real.notes,
            },
            "modeling": {
                "holds": modeling.holds,
                "n": modeling.n,
                "dim_Cz": modeling.dim_Cz,
                "tested": [{"vector": _json_vector(v), "in_Cz": bool(b)}
                           for v, b in modeling.tested_vectors],
            },
            "ok": ok,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"realization check ({s1.name} dim {s1.dim} -> {s2.name} dim {s2.dim})")
        print(f"  condition met: {'yes' if real.realizable else 'no'}")
        print(f"  dim C1 = {real.dim_C1}, dim C2 = {real.dim_C2}, q = {real.q}")
        if real.witness.dim:
            print("  witness complement:")
            for j in range(real.witness.dim):
                print("    " + _fmt_vector(real.witness.basis[:, j]))
        else:
            print("  witness complement: {0}")
        print(f"  {real.notes}")
        print(f"modeling condition (blend dim {modeling.n}, dim Cz = {modeling.dim_Cz})")
        print(f"  holds: {'yes' if modeling.holds else 'no'}")
        for v, b in modeling.tested_vectors:
            print(f"  {_fmt_vector(v)} in Cz: {'yes' if b else 'no'}")
        _print_notes(doc, sys.stdout)
        if not real.realizable:
            print("reason: realization condition not met")
        if not modeling.holds:
            print("reason: modeling condition fails")
    return 0 if ok else 1


def cmd_ctrb(args) -> int:
    doc = _load_file(args.file)
    tol = args.tolerance
    if args.blend:
        s1, s2, weights = _parse_case(doc, args)
        model = build_transient_model(s1, s2, **weights)
        sys_ = model.base
        label = sys_.name
    else:
        if args.system not in ("sigma1", "sigma2"):
            raise InputError(f"unknown system name: {args.system!r} "
                             "(expected sigma1 or sigma2)")
        sys_ = _parse_system(doc, args.system, args.file, args.exact)
        label = args.system
    res = ctrb_subspace(sys_.A, sys_.B, tol)
    matrix = res.matrix
    if args.blend:
        # group columns by input channel: [B1, A B1, ... | B2, A B2, ...];
        # column j m + i of res.matrix is A^j times input column i
        cols = np.arange(matrix.shape[1]).reshape(sys_.dim, sys_.n_inputs)
        split = model.input_split[0]
        matrix = matrix[:, np.concatenate([cols[:, :split].ravel(),
                                           cols[:, split:].ravel()])]
    reps = _class_reps(res.basis, tol)
    if args.json:
        payload = {
            "system": label,
            "rank": res.rank,
            "ctrb_matrix": _json_matrix(matrix),
            "basis": _json_matrix(res.basis.basis.T),
            "class_reps": [_json_vector(r.irreducible) for r in reps],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"controllability of {label} (dim {sys_.dim})")
        print("  matrix:")
        print(_fmt_matrix(matrix, "    "))
        print(f"  rank: {res.rank}")
        print("  basis columns:")
        for j in range(res.basis.dim):
            print("    " + _fmt_vector(res.basis.basis[:, j]))
        print("  quotient class representatives:")
        for r in reps:
            print("    " + _fmt_vector(r.irreducible))
        _print_notes(doc, sys.stdout)
    return 0


def cmd_reduce(args) -> int:
    try:
        entries = [parse_scalar(tok) for tok in args.vector.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse vector: {exc}")
    if not entries:
        raise InputError("empty vector")
    mv = reduce_vector(vec(entries, args.exact), args.tolerance)
    if args.json:
        print(json.dumps({"irreducible": _json_vector(mv.irreducible),
                          "multiplicity": mv.multiplicity}))
    else:
        print(f"{_fmt_vector(mv.irreducible)} (×{mv.multiplicity})")
    return 0


def cmd_blend(args) -> int:
    doc = _load_file(args.file)
    s1, s2, weights = _parse_case(doc, args)
    model = build_transient_model(s1, s2, **weights)
    a, b = model.weights
    if args.json:
        payload = {
            "n": model.dim,
            "alpha": _json_scalar(a),
            "beta": _json_scalar(b),
            "A": _json_matrix(model.base.A),
            "B1": _json_matrix(model.B1_star),
            "B2": _json_matrix(model.B2_star),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"transient model on dimension {model.dim} "
              f"(alpha = {_fmt_scalar(a)}, beta = {_fmt_scalar(b)})")
        print("A =")
        print(_fmt_matrix(model.base.A))
        print("B1 =")
        print(_fmt_matrix(model.B1_star))
        print("B2 =")
        print(_fmt_matrix(model.B2_star))
        _print_notes(doc, sys.stdout)
    return 0


def cmd_simulate(args) -> int:
    doc = _load_file(args.file)
    s1, s2, weights = _parse_case(doc, args)
    if "scenario" not in doc:
        raise InputError(f"{args.file}: missing field 'scenario'")
    scd = doc["scenario"]
    try:
        sc = Scenario(
            t0=float(scd["t0"]), te=float(scd["te"]),
            x_start=vec(scd["x_start"], exact=False),
            y_target=vec(scd["y_target"], exact=False),
            step=float(scd.get("step", 1e-3)),
            quad_steps=int(scd.get("quad_steps", 512)))
    except KeyError as exc:
        raise InputError(f"{args.file}: 'scenario' is missing field {exc}")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{args.file}: bad scenario: {exc}")
    try:
        traj, outcome = run_transient_scenario(
            s1, s2, sc, steer=args.steer, **weights)
    except UnreachableTargetError as exc:
        print(f"unreachable target: {exc}", file=sys.stderr)
        return 1
    try:
        export_trajectory(traj, args.out)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}")
    if args.json:
        print(json.dumps({"endpoint_error": traj.endpoint_error,
                          "target_class_error": traj.target_class_error,
                          "samples": len(traj.times),
                          "out": args.out}))
    else:
        print(f"trajectory written to {args.out} ({len(traj.times)} samples)")
        print(f"endpoint_error = {traj.endpoint_error:.6e}")
        print(f"target_class_error = {traj.target_class_error:.6e}")
    return 0 if traj.target_class_error <= 1e-5 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimvar",
        description="Transient-dynamics analysis for dimension-varying "
                    "linear control systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="system definition file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--tol", type=float, default=None,
                       help="float-backend tolerance override")
        p.add_argument("--backend", choices=("rational", "float"),
                       default="rational")

    p = sub.add_parser("check", help="realization + modeling condition")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ctrb", help="controllability analysis")
    add_common(p)
    p.add_argument("--system", default="sigma1",
                   help="which system to analyze (sigma1 or sigma2)")
    p.add_argument("--blend", action="store_true",
                   help="analyze the blended transient model instead")
    p.set_defaults(func=cmd_ctrb)

    p = sub.add_parser("reduce", help="irreducible class representative")
    add_common(p, with_file=False)
    p.add_argument("--vector", required=True,
                   help="comma-separated scalars, e.g. '1,1,2,2'")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("blend", help="print the transient model")
    add_common(p)
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("simulate", help="run a steered transient scenario")
    add_common(p)
    p.add_argument("--out", default="trajectory.csv",
                   help="trajectory CSV output path")
    p.add_argument("--steer", action="store_true",
                   help="design minimum-energy controls (default: zero input)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    args.tolerance = (Tolerance(rel=args.tol, abs=args.tol)
                      if getattr(args, "tol", None) else DEFAULT_TOL)
    args.exact = args.backend == "rational"
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:    # a ValueError, but not an input error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
