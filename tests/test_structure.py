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


def test_backend_is_read_outside_numerics_only_in_ctrb_matrix():
    # only numerics turns a dtype into an algorithm; the one exception
    # is the integer Krylov product of the exact controllability matrix
    calls = {(p.name, fn): k for p in sorted(SRC.glob("*.py"))
             if p.name != "numerics.py"
             for fn, k in _calls_by_function(p, "is_exact").items()}
    assert calls == {("controllability.py", "ctrb_matrix"): 1}


def test_no_tolerance_is_rescaled():
    # float decisions take their thresholds from the Tolerance given;
    # none is rebuilt with dataclasses.replace
    for p in SRC.glob("*.py"):
        assert "replace(tol" not in p.read_text(), p.name
