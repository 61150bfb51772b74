"""The four workloads: seeded inputs, the operations of one pass, and
the check each operation's output must pass.

Every workload lists the same operations in the same order on every
pass, so repeated passes time the same inputs, and a run makes a fixed
number of passes, so a seed always gives the same operations.  An operation belongs to
one of the workload's three timed rungs, or to no rung when it is a
probe whose outcome is measured but not timed (float-against-exact
agreement, steering at n = 35).  A failed check on a `gated` operation
marks the whole run incorrect; the other failures are counted only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import dimvar.cli as cli
import dimvar.mixdim as mixdim
import dimvar.realization as realization
import dimvar.simulation as simulation
import dimvar.systems as systems

HERE = Path(__file__).resolve().parent
REF = HERE / "ref"
EXAMPLE1 = HERE / "inputs" / "example1.json"

STEER_TOL = 1e-5                 # class-error limit of `dimvar simulate`
LADDER_RUNGS = ((4, 6, 24), (5, 6, 6), (5, 7, 6))    # (p, q, cases)
STEER_RUNGS = ((2, 3), (2, 5), (4, 6))
STEER_PROBE = (5, 7)
STEER_CASES = 8                  # cases per steering rung and for the probe
REDUCE_CASES, REDUCE_DIM, REDUCE_LIFT, REDUCE_ALT_LIFT = 8, 3, 24, 12
REDUCE_VEC_DIM, REDUCE_VEC_LIFT = 5, 72


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    rung: str | None = None      # timed rung, or None for a probe
    gated: bool = True


@dataclass
class Workload:
    rungs: tuple[str, str, str]
    ops: list[Op]
    report: Callable[[dict], list]   # summary -> [(name, value, unit, note)]
    pass_s: float                    # nominal seconds of one pass
    pass_rungs: frozenset = frozenset()  # rungs timed as a sum per pass


def _rng(*key):
    return np.random.default_rng(list(key))


def _int_system(rng, name, dim, exact):
    A = rng.integers(-3, 4, size=(dim, dim))
    B = rng.integers(-3, 4, size=(dim, 1))
    if exact:
        to_frac = np.vectorize(Fraction, otypes=[object])
        return systems.LinSys(name, to_frac(A), to_frac(B))
    return systems.LinSys(name, A.astype(float), B.astype(float))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _line(name, rung_sum, unit="s"):
    """A printed figure: (name, median in `unit` or None, unit, note)."""
    value = rung_sum["median_s"]
    note = f"n={rung_sum['samples']}"
    if rung_sum["failures"]:
        note += f", {rung_sum['failures']} failed"
    return (name, None if value is None else value * {"s": 1, "ms": 1e3}[unit],
            unit, note)


# -- example1_cli ------------------------------------------------------

def example1_cli(seed: int, tmpdir: Path) -> Workload:
    """`dimvar check`, `ctrb --blend` and `simulate --steer` on the
    shipped worked example (n = 6), in process.  The seed does not
    change the input: this is the example a user runs."""
    case = str(EXAMPLE1)
    golden_check = (REF / "check_example1.txt").read_text()
    golden_ctrb = (REF / "ctrb_blend_example1.txt").read_text()
    csv = tmpdir / "example1.csv"

    def check_simulate(res):
        rc, out = res
        if rc != 0:
            return False
        doc = json.loads(out)
        with open(csv) as fh:
            rows = sum(1 for _ in fh)
        return doc["target_class_error"] <= STEER_TOL and rows == doc["samples"] + 1

    ops = [
        Op("check", lambda: _cli(["check", case]),
           lambda r: r == (0, golden_check), rung="check"),
        Op("ctrb --blend", lambda: _cli(["ctrb", case, "--blend"]),
           lambda r: r == (0, golden_ctrb), rung="ctrb"),
        Op("simulate --steer",
           lambda: _cli(["simulate", case, "--steer", "--json",
                         "--out", str(csv)]),
           check_simulate, rung="simulate"),
    ]

    def report(summary):
        sim = summary["rungs"]["simulate"]
        t = sim["tail"]
        return [
            _line("example1.check_ms.p50", summary["rungs"]["check"], "ms"),
            _line("example1.ctrb_ms.p50", summary["rungs"]["ctrb"], "ms"),
            _line("example1.simulate_ms.p50", sim, "ms"),
            ("example1.simulate_ms.tail",
             None if t is None else t["value_s"] * 1e3, "ms",
             "fewer than 20 samples" if t is None
             else f"p{t['percentile']:g}, n={sim['samples']}"),
        ]

    return Workload(("check", "ctrb", "simulate"), ops, report, pass_s=0.133)


# -- ladder_exact ------------------------------------------------------

def _check_pipeline(s1, s2):
    model = realization.build_transient_model(s1, s2, masses=(1, 1))
    real = realization.check_realization(s1, s2)
    mod = realization.check_modeling_condition(s1, s2, model)
    return [real.dim_C1, real.dim_C2, mod.dim_Cz, real.realizable, mod.holds]


def ladder_cases(seed: int):
    """Yield (key, p, q, phase, exact pair, float pair) for every ladder
    case; phase in (0, 1) spaces a rung's cases evenly."""
    for p, q, cases in LADDER_RUNGS:
        for i in range(cases):
            rng = _rng(seed, p, q, i)
            e1, e2 = (_int_system(rng, "sigma1", p, True),
                      _int_system(rng, "sigma2", q, True))
            f1 = systems.LinSys("sigma1", e1.A.astype(float), e1.B.astype(float))
            f2 = systems.LinSys("sigma2", e2.A.astype(float), e2.B.astype(float))
            yield f"{p}x{q}#{i}", p, q, (i + 0.5) / cases, (e1, e2), (f1, f2)


def ladder_exact(seed: int, tmpdir: Path) -> Workload:
    """The `check` pipeline on seeded random systems at (4,6), (5,6),
    (5,7), exact backend timed; the float backend on the same cases is
    compared with the exact result."""
    refs = json.loads((REF / "ladder_exact.json").read_text()).get(str(seed), {})
    exact_out: dict[str, list] = {}
    ops = []
    for key, p, q, phase, exact, floats in ladder_cases(seed):
        n = math.lcm(p, q)

        def check_exact(res, key=key, p=p, q=q):
            exact_out[key] = res
            ok = res[0] <= p and res[1] <= q and res[2] <= p + q - math.gcd(p, q)
            return ok and refs.get(key, res) == res

        # spread each rung's cases evenly over the pass, so that every
        # rung samples the machine's speed across the whole run
        ops.append((phase, Op(f"exact n{n}", lambda c=exact: _check_pipeline(*c),
                              check_exact, rung=f"n{n}")))
        ops.append((phase, Op(f"float n{n}", lambda c=floats: _check_pipeline(*c),
                              lambda res, key=key: res == exact_out.get(key),
                              gated=False)))
    ops = [op for _, op in sorted(ops, key=lambda po: po[0])]

    def report(summary):
        floats = [v for k, v in summary["labels"].items() if k.startswith("float")]
        attempted = sum(v["samples"] + v["failures"] for v in floats)
        mismatched = sum(v["failures"] for v in floats)
        return [_line(f"check_s.n{math.lcm(p, q)}", summary["rungs"][f"n{math.lcm(p, q)}"])
                for p, q, _ in LADDER_RUNGS] + [
            ("float_mismatch_share", mismatched / attempted, "share",
             f"{mismatched} of {attempted} float checks differ from exact")]

    rungs = tuple(f"n{math.lcm(p, q)}" for p, q, _ in LADDER_RUNGS)
    return Workload(rungs, ops, report, pass_s=8.2)


# -- steer_ladder ------------------------------------------------------

def _steer_case(seed, p, q, i):
    rng = _rng(seed, p, q, i, 1)
    s1 = _int_system(rng, "sigma1", p, False)
    s2 = _int_system(rng, "sigma2", q, False)
    sc = simulation.Scenario(t0=0.0, te=1.0,
                             x_start=rng.integers(-3, 4, p).astype(float),
                             y_target=rng.integers(-3, 4, q).astype(float),
                             step=1e-3)
    return s1, s2, sc


def _steer(s1, s2, sc):
    traj, _ = simulation.run_transient_scenario(s1, s2, sc, masses=(1, 1))
    return traj.target_class_error


def steer_ladder(seed: int, tmpdir: Path) -> Workload:
    """Steered float `run_transient_scenario` at n = 6, 10, 12 (timed)
    and n = 35 (probe: it raises LinAlgError at the seed commit)."""
    ops = []
    # rungs alternate, so that every rung samples the whole run
    for i in range(STEER_CASES):
        for p, q in STEER_RUNGS + (STEER_PROBE,):
            n = math.lcm(p, q)
            timed = (p, q) != STEER_PROBE
            case = _steer_case(seed, p, q, i)
            ops.append(Op(f"steer n{n}", lambda c=case: _steer(*c),
                          lambda err: err <= STEER_TOL,
                          rung=f"n{n}" if timed else None, gated=False))

    def report(summary):
        lines = [_line(f"steer_s.n{math.lcm(p, q)}", summary["rungs"][f"n{math.lcm(p, q)}"])
                 for p, q in STEER_RUNGS]
        probe = summary["labels"][f"steer n{math.lcm(*STEER_PROBE)}"]
        lines.append(_line(f"steer_s.n{math.lcm(*STEER_PROBE)}", probe))
        return lines

    rungs = tuple(f"n{math.lcm(p, q)}" for p, q in STEER_RUNGS)
    return Workload(rungs, ops, report, pass_s=3.0)


# -- class_reduce ------------------------------------------------------

def _same(a, b, exact):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if exact:
        return bool(np.all(a == b))
    return bool(np.allclose(a.astype(float), b.astype(float), rtol=1e-9, atol=1e-12))


def _backend_ops(s, x, exact):
    """The seven factor-stripping operations on one backend."""
    bumped = systems.LinSys("s", s.A.copy(), s.B)
    bumped.A[0, 0] = bumped.A[0, 0] + 1
    big = systems.lift_system(s, REDUCE_DIM * REDUCE_LIFT)
    alt = systems.lift_system(s, REDUCE_DIM * REDUCE_ALT_LIFT)
    other = systems.lift_system(bumped, REDUCE_DIM * REDUCE_ALT_LIFT)
    xl = np.kron(x, np.full(REDUCE_VEC_LIFT, Fraction(1) if exact else 1.0,
                            dtype=x.dtype))
    # expected answers, from the small inputs
    s_rep = systems.project_system(s)
    a_rep = mixdim.reduce_matrix(s.A)
    x_rep = mixdim.reduce_vector(x).irreducible
    tag = "exact" if exact else "float"

    def proj_ok(r):
        return (r.multiplier_stripped == REDUCE_LIFT * s_rep.multiplier_stripped
                and _same(r.sys.A, s_rep.sys.A, exact)
                and _same(r.sys.B, s_rep.sys.B, exact))

    def redm_ok(r):
        return (r.multiplier == REDUCE_LIFT * a_rep.multiplier
                and _same(r.irreducible, a_rep.irreducible, exact))

    return [
        Op(f"{tag} project_system", lambda: systems.project_system(big),
           proj_ok, rung=tag),
        Op(f"{tag} systems_equivalent lifts",
           lambda: systems.systems_equivalent(big, alt), lambda r: r is True, rung=tag),
        Op(f"{tag} systems_equivalent perturbed",
           lambda: systems.systems_equivalent(big, other), lambda r: r is False, rung=tag),
        Op(f"{tag} reduce_matrix", lambda: mixdim.reduce_matrix(big.A),
           redm_ok, rung=tag),
        Op(f"{tag} mat_equivalent lifts",
           lambda: mixdim.mat_equivalent(big.A, alt.A), lambda r: r is True, rung=tag),
        Op(f"{tag} mat_equivalent perturbed",
           lambda: mixdim.mat_equivalent(big.A, other.A), lambda r: r is False, rung=tag),
        Op(f"{tag} reduce_vector", lambda: mixdim.reduce_vector(xl),
           lambda r: _same(r.irreducible, x_rep, exact), rung=tag),
    ]


def _cli_reduce_op(x):
    """`dimvar reduce --vector` on x lifted to length 5 * 72 = 360."""
    rep = mixdim.reduce_vector(x)
    mult = REDUCE_VEC_LIFT * rep.multiplicity
    expected = (0, "[" + ", ".join(str(v) for v in rep.irreducible) + f"] (×{mult})\n")
    arg = ",".join(str(v) for v in x for _ in range(REDUCE_VEC_LIFT))
    return Op("dimvar reduce --vector", lambda: _cli(["reduce", f"--vector={arg}"]),
              lambda r: r == expected, rung="cli")


def class_reduce(seed: int, tmpdir: Path) -> Workload:
    """Factor stripping and class equivalence on REDUCE_CASES small
    systems lifted to n = 180 and vectors lifted to length 360, exact
    and float, plus `dimvar reduce --vector` on each lifted vector.
    The cost of a strip depends on where the first unequal entry sits,
    so several inputs per pass keep a seed's sum close to the typical."""
    ops = []
    for i in range(REDUCE_CASES):
        rng = _rng(seed, 7, i)
        s = _int_system(rng, "s", REDUCE_DIM, True)
        x = np.array([Fraction(int(v)) for v in rng.integers(-3, 4, REDUCE_VEC_DIM)],
                     dtype=object)
        s_float = systems.LinSys("s", s.A.astype(float), s.B.astype(float))
        ops += _backend_ops(s, x, True) + _backend_ops(s_float, x.astype(float), False)
        ops.append(_cli_reduce_op(x))

    def report(summary):
        return [_line("reduce_pass_s.exact", summary["rungs"]["exact"]),
                _line("reduce_pass_s.float", summary["rungs"]["float"]),
                _line("reduce_cli_ms.p50", summary["rungs"]["cli"], "ms")]

    return Workload(("exact", "float", "cli"), ops, report, pass_s=0.85,
                    pass_rungs=frozenset({"exact", "float"}))


WORKLOADS = {
    "example1_cli": example1_cli,
    "ladder_exact": ladder_exact,
    "steer_ladder": steer_ladder,
    "class_reduce": class_reduce,
}
