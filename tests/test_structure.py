"""Structure of the source tree: where the backend may be read, and that
no float threshold is patched by rescaling a Tolerance."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dimvar"


def _calls_by_function(path, name):
    """{enclosing function: number of calls to `name`} in one module."""
    found = Counter()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                found[owner] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return found


def _reads_by_definition(path, attr):
    """{top-level function or class: number of reads of `.attr`} in one
    module."""
    found = Counter()
    for node in ast.parse(path.read_text()).body:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and sub.attr == attr
                    and isinstance(sub.ctx, ast.Load)):
                found[getattr(node, "name", None)] += 1
    return found


def test_backend_is_read_only_in_numerics():
    # only numerics turns a dtype into an algorithm
    calls = {(p.name, fn): k for p in sorted(SRC.glob("*.py"))
             if p.name != "numerics.py"
             for fn, k in _calls_by_function(p, "is_exact").items()}
    assert calls == {}


def test_identity_tokens_are_read_only_in_numerics():
    # object references are read as tokens in one helper, which also
    # tells the backend apart
    calls = {(p.name, fn): k for p in sorted(SRC.glob("*.py"))
             for fn, k in _calls_by_function(p, "frombuffer").items()}
    assert calls == {("numerics.py", "_identity_tokens"): 1}


def test_equality_key_is_one_integer_pass():
    # the key scales M itself; distinct objects are not looked for first
    numerics = SRC / "numerics.py"
    for name in ("unique", "_identity_tokens"):
        assert "equality_key" not in _calls_by_function(numerics, name)


def test_no_tolerance_is_rescaled():
    # float decisions take their thresholds from the Tolerance given;
    # none is rebuilt with dataclasses.replace
    for p in SRC.glob("*.py"):
        assert "replace(tol" not in p.read_text(), p.name


def test_n_dimensional_blend_is_read_only_for_output():
    # the model holds the blend on its segments; the n x n `base` is
    # built inside TransientModel and read for `blend` and `ctrb --blend`
    reads = {(p.name, owner) for p in SRC.glob("*.py")
             for owner in _reads_by_definition(p, "base")}
    assert reads <= {("realization.py", "TransientModel"),
                     ("cli.py", "cmd_blend"), ("cli.py", "cmd_ctrb")}
    assert ("realization.py", "TransientModel") in reads


def test_one_float_rank_rule():
    # every float rank decision is the staircase's residual test; the
    # float Gaussian elimination is gone
    numerics = SRC / "numerics.py"
    assert set(_calls_by_function(numerics, "_staircase")) == {
        "krylov_pivots", "pivot_columns", "in_span_columns"}
    for p in SRC.glob("*.py"):
        assert "_echelon" not in p.read_text(), p.name


def test_one_membership_rule():
    # span membership is decided on S's own pivots, by one elimination
    # (exact) or one staircase (float), never by a rank per column
    calls = {name: _calls_by_function(SRC / "numerics.py", name)
             for name in ("rank", "pivot_columns")}
    assert [c["in_span_columns"] for c in calls.values()] == [0, 0]


def test_one_krylov_routine():
    # every controllable subspace comes from krylov_pivots(A, B): only
    # `ctrb --system` still builds the whole CtrbResult, and the integer
    # Krylov product is multiplied out for those two callers only
    def callers(name):
        return {(p.name, fn): k for p in sorted(SRC.glob("*.py"))
                for fn, k in _calls_by_function(p, name).items()}

    assert callers("ctrb_subspace") == {("cli.py", "cmd_ctrb"): 1}
    assert callers("_krylov_integers") == {
        ("numerics.py", "_krylov_product"): 1,
        ("numerics.py", "krylov_pivots"): 1}
    for p in SRC.glob("*.py"):
        assert "krylov_basis" not in p.read_text(), p.name


def test_no_module_imports_scipy():
    # numpy is the one dependency: steering solves by numpy's QR and no
    # code path runs a matrix exponential, so neither the package nor
    # its tests import scipy anywhere
    for p in sorted([*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        for sub in ast.walk(ast.parse(p.read_text())):
            if isinstance(sub, ast.Import):
                names = [a.name for a in sub.names]
            elif isinstance(sub, ast.ImportFrom):
                names = [sub.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "scipy" for n in names), p.name


def test_operands_meet_on_one_backend():
    # where a pair's arrays meet, one common_backend call promotes them,
    # and factor stripping takes one backend at a time
    import inspect
    from dimvar import mixdim
    meeting = {"mixdim.py": ["_strip_factors"],
               "realization.py": ["build_transient_model", "_subsystem_ctrb",
                                  "direct_sum_check"],
               "controllability.py": ["kalman_decomposition"],
               "systems.py": ["systems_equivalent", "apply_pseudo_transform"]}
    for name, functions in meeting.items():
        calls = _calls_by_function(SRC / name, "common_backend")
        assert {f: calls[f] for f in functions} == dict.fromkeys(functions, 1)
    assert list(inspect.signature(mixdim._strip_floats).parameters) == [
        "parts", "tol"]


def test_one_shape_rule():
    # vectors take their shape from numerics._one_column and input
    # matrices from _columns / _input_matrix: no other module flattens
    # an array or tests for a 1-D one
    found = []
    for p in sorted(SRC.glob("*.py")):
        if p.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "reshape"
                    and [ast.unparse(a) for a in node.args]
                    in (["-1"], ["-1", "1"], ["(-1,)"], ["(-1, 1)"])):
                found.append((p.name, node.lineno, ast.unparse(node)))
            if (isinstance(node, ast.Compare)
                    and any(getattr(x, "attr", None) == "ndim"
                            for x in [node.left, *node.comparators])
                    and any(getattr(x, "value", None) == 1
                            for x in [node.left, *node.comparators])):
                found.append((p.name, node.lineno, ast.unparse(node)))
    assert found == []


def test_cli_imports_only_public_realization_names():
    # `check` runs check_transient and `ctrb --blend` takes its pivots
    # from krylov_pivots, so the CLI needs none of realization's private
    # helpers, and the segment-system wrapper is gone
    from dimvar import realization
    imported = [a.name for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "realization"
                for a in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]
    assert not hasattr(realization, "_segment_ctrb")


def test_one_elimination_loop():
    # the exact decisions and the prime certificate share one kernel:
    # only `_bareiss` searches a column for its pivot
    assert {fn for name in ("nonzero", "flatnonzero")
            for fn in _calls_by_function(SRC / "numerics.py", name)} == {"_bareiss"}


def test_one_reading_rule_for_case_files():
    # `_section` turns a malformed case-file section into the InputError
    # that names the file and the section: no other CLI function catches
    # a missing key, and only `reduce --vector` and main's exit 3 catch
    # an overflow besides it
    catches = {}

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = getattr(node.type, "elts", [node.type])
            for t in types:
                catches.setdefault(ast.unparse(t), set()).add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse((SRC / "cli.py").read_text()), None)
    assert catches["KeyError"] == {"_section"}
    assert catches["OverflowError"] == {"_section", "cmd_reduce", "main"}


def test_one_class_representative_per_basis_column():
    # `ctrb` and `quotient_ctrb_subspace` report the class of each pivot
    # column: `_class_reps` strips every column and compares none of
    # them with another, and controllability imports no class comparison
    path = SRC / "controllability.py"
    assert [_calls_by_function(path, name)["_class_reps"]
            for name in ("_reps_equal", "array_equal")] == [0, 0]
    assert "_reps_equal" not in path.read_text()
