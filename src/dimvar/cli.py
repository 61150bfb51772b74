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
(a float linear-algebra routine failed, or a computed value overflowed,
on a valid input).

System files are JSON: matrices are grids of scalar strings ("3",
"3/2", "0.75"), parsed exactly under the rational backend.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .controllability import _class_reps, ctrb_matrix, ctrb_subspace
from .mixdim import reduce_vector
from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerance, krylov_pivots,
                       mat, parse_scalar, vec)
from .realization import build_transient_model, check_transient
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
    return "[" + ", ".join(_fmt_scalar(x) for x in v) + "]"


def _fmt_matrix(M, indent: str = "  ") -> str:
    return "\n".join(indent + _fmt_vector(row) for row in np.asarray(M))


def _json(x):
    """x for json.dumps: nested lists of {"num", "den"} or floats."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, np.ndarray):
        return [_json(e) for e in x]
    return float(x)


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
    notes = doc.get("notes", [])
    if not (isinstance(notes, list) and all(isinstance(x, str) for x in notes)):
        raise InputError(f"{path}: 'notes' must be a list of strings")
    return doc


def _section(doc: dict, key: str, path: str, parse, bad=None):
    """parse(doc[key]), with every error an InputError naming `path`."""
    if key not in doc:
        raise InputError(f"{path}: missing field '{key}'")
    try:
        return parse(doc[key])
    except InputError as exc:
        raise InputError(f"{path}: {exc}")
    except KeyError as exc:
        raise InputError(f"{path}: '{key}' is missing field {exc}")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        bad = bad or f"'{key}' has an unparseable entry"
        raise InputError(f"{path}: {bad}: {exc}")
    except OverflowError:
        raise InputError(f"{path}: '{key}' has an entry beyond float range")


def _parse_system(doc: dict, key: str, path: str, exact: bool) -> LinSys:
    A, B = _section(doc, key, path, lambda entry: (mat(entry["A"], exact),
                                                   mat(entry["B"], exact)))
    try:
        return LinSys(name=key, A=A, B=B)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _weights(tr) -> dict:
    """alpha and beta, or `build_transient_model`'s pair from masses."""
    a, b = vec(tr["masses"] if "masses" in tr else [tr["alpha"], tr["beta"]])
    if a <= 0 or b <= 0:
        raise InputError("transient weights must be strictly positive")
    if "masses" in tr:
        if "alpha" in tr or "beta" in tr:
            raise InputError("'transient' has both masses and alpha/beta")
        a, b = a / (a + b), b / (a + b)
    return {"alpha": a, "beta": b}


def _parse_case(args) -> tuple[dict, LinSys, LinSys, dict]:
    """The case file, its systems on the chosen backend, and its weights.

    The float backend, and `simulate` on either backend, compute in
    floats, so there every matrix entry and weight must fit in one, and
    no weight may round to 0.  Each section is range-checked right after
    it is parsed, so a file's first fault is reported on either backend.
    """
    doc = _load_file(args.file)
    floats = not args.exact or args.command == "simulate"

    def in_range(key, values):
        if floats:
            _section({key: values}, key, args.file,
                     lambda v: [float(x) for x in v])

    s1 = _parse_system(doc, "sigma1", args.file, args.exact)
    in_range("sigma1", [*s1.A.flat, *s1.B.flat])
    s2 = _parse_system(doc, "sigma2", args.file, args.exact)
    in_range("sigma2", [*s2.A.flat, *s2.B.flat])
    weights = _section(doc, "transient", args.file, _weights)
    in_range("transient", weights.values())
    if floats and not all(map(float, weights.values())):
        raise InputError(
            f"{args.file}: 'transient' has a weight that is 0 in floats")
    return doc, s1, s2, weights


def _print_notes(doc: dict, out) -> None:
    for note in doc.get("notes", []):
        print(f"note: {note}", file=out)


def cmd_check(args) -> int:
    doc, s1, s2, weights = _parse_case(args)
    model = build_transient_model(s1, s2, **weights)
    real, modeling = check_transient(s1, s2, model, args.tolerance)
    ok = real.realizable and modeling.holds
    if args.json:
        payload = {
            "realization": {
                "realizable": real.realizable,
                "q": real.q,
                "dim_C1": real.dim_C1,
                "dim_C2": real.dim_C2,
                "witness": _json(real.witness.basis.T),
                "notes": real.notes,
            },
            "modeling": {
                "holds": modeling.holds,
                "n": modeling.n,
                "dim_Cz": modeling.dim_Cz,
                "tested": [{"vector": _json(v), "in_Cz": bool(b)}
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
    tol = args.tolerance
    if args.blend:
        doc, s1, s2, weights = _parse_case(args)
        model = build_transient_model(s1, s2, **weights)
        sys_ = model.base
        matrix = ctrb_matrix(sys_.A, sys_.B)
        piv = krylov_pivots(model.A * model.lengths, model.B, tol)[0]
        basis = SubspaceBasis(sys_.dim, matrix[:, piv])  # see TransientModel
        # group columns by input channel: [B1, A B1, ... | B2, A B2, ...];
        # column j m + i of the Krylov matrix is A^j times input column i
        cols = np.arange(matrix.shape[1]).reshape(sys_.dim, sys_.n_inputs)
        split = model.input_split[0]
        matrix = matrix[:, np.concatenate([cols[:, :split].ravel(),
                                           cols[:, split:].ravel()])]
    else:
        doc = _load_file(args.file)
        if args.system not in ("sigma1", "sigma2"):
            raise InputError(f"unknown system name: {args.system!r} "
                             "(expected sigma1 or sigma2)")
        sys_ = _parse_system(doc, args.system, args.file, args.exact)
        res = ctrb_subspace(sys_.A, sys_.B, tol)
        matrix, basis = res.matrix, res.basis
    reps = _class_reps(basis, tol)
    if args.json:
        payload = {
            "system": sys_.name,
            "rank": basis.dim,
            "ctrb_matrix": _json(matrix),
            "basis": _json(basis.basis.T),
            "class_reps": [_json(r.irreducible) for r in reps],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"controllability of {sys_.name} (dim {sys_.dim})")
        print("  matrix:")
        print(_fmt_matrix(matrix, "    "))
        print(f"  rank: {basis.dim}")
        print("  basis columns:")
        for j in range(basis.dim):
            print("    " + _fmt_vector(basis.basis[:, j]))
        print("  quotient class representatives:")
        for r in reps:
            print("    " + _fmt_vector(r.irreducible))
        _print_notes(doc, sys.stdout)
    return 0


def cmd_reduce(args) -> int:
    index: dict[str, int] = {}      # a token's entries share one object
    pos = [index.setdefault(t, len(index)) for t in args.vector.split(",")]
    try:
        x = vec([parse_scalar(tok.strip()) for tok in index], args.exact)[pos]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse vector: {exc}")
    except OverflowError:
        raise InputError("vector has an entry beyond float range")
    mv = reduce_vector(x, args.tolerance)
    if args.json:
        print(json.dumps({"irreducible": _json(mv.irreducible),
                          "multiplicity": mv.multiplicity}))
    else:
        print(f"{_fmt_vector(mv.irreducible)} (×{mv.multiplicity})")
    return 0


def cmd_blend(args) -> int:
    doc, s1, s2, weights = _parse_case(args)
    model = build_transient_model(s1, s2, **weights)
    a, b = model.weights
    if args.json:
        payload = {
            "n": model.dim,
            "alpha": _json(a),
            "beta": _json(b),
            "A": _json(model.base.A),
            "B1": _json(model.B1_star),
            "B2": _json(model.B2_star),
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


def _scenario_vector(scd: dict, field: str, of: LinSys) -> np.ndarray:
    try:
        x = vec(scd[field], exact=False)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"'{field}': {exc}") from None
    if len(x) != of.dim:
        raise ValueError(f"dimension mismatch between {of.name} and {field}")
    return x


def _scalar(scd: dict, field: str, default=None) -> float:
    value = scd[field] if default is None else scd.get(field, default)
    try:
        if isinstance(value, bool):
            raise TypeError(f"{value} is a boolean, not a number")
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'{field}': {exc}") from None


def cmd_simulate(args) -> int:
    doc, s1, s2, weights = _parse_case(args)
    sc = _section(doc, "scenario", args.file, lambda scd: Scenario(
        t0=_scalar(scd, "t0"), te=_scalar(scd, "te"),
        x_start=_scenario_vector(scd, "x_start", s1),
        y_target=_scenario_vector(scd, "y_target", s2),
        step=_scalar(scd, "step", 1e-3)), "bad scenario")
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


def _tolerance(text: str) -> float:
    """A --tol value: a positive, finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimvar",
        description="Transient-dynamics analysis for dimension-varying "
                    "linear control systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True,
                   tol_help="float-backend tolerance override"):
        if with_file:
            p.add_argument("file", help="system definition file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--tol", type=_tolerance, default=None, help=tol_help)
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
    add_common(p, tol_help="ignored: blend decides nothing")
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("simulate", help="run a steered transient scenario")
    add_common(p, tol_help="ignored: simulate uses the default tolerance")
    p.add_argument("--out", default="trajectory.csv",
                   help="trajectory CSV output path")
    p.add_argument("--steer", action="store_true",
                   help="design minimum-energy controls (default: zero input)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    args.tolerance = (Tolerance(rel=args.tol, abs=args.tol)
                      if args.tol is not None else DEFAULT_TOL)
    args.exact = args.backend == "rational"
    try:
        # overflow is decided by the finiteness tests, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (np.linalg.LinAlgError, OverflowError) as exc:
        # LinAlgError is a ValueError, but not an input error; input
        # beyond float range is rejected while parsing
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
