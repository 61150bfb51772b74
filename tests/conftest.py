import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dimvar import LinSys, build_transient_model, mat

# pyproject.toml puts src/ on pytest's own path; the CLI tests start
# `python -m dimvar.cli` subprocesses, which need it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def ex1_s1():
    return LinSys("sigma1", mat([[0, 1], [0, 0]]), mat([[0], [1]]))


@pytest.fixture
def ex1_s2():
    return LinSys("sigma2", mat([[0, 0, 1], [0, 0, 0], [0, 1, 0]]),
                  mat([[0], [1], [0]]))


@pytest.fixture
def ex1_model(ex1_s1, ex1_s2):
    return build_transient_model(ex1_s1, ex1_s2,
                                 alpha=Fraction(3, 2), beta=Fraction(1, 2))


def rand_rational_matrix(rng: random.Random, rows: int, cols: int,
                         lo: int = -3, hi: int = 3) -> np.ndarray:
    return np.array([[Fraction(rng.randint(lo, hi)) for _ in range(cols)]
                     for _ in range(rows)], dtype=object)


def rand_rational_vector(rng: random.Random, n: int,
                         lo: int = -5, hi: int = 5) -> np.ndarray:
    return np.array([Fraction(rng.randint(lo, hi)) for _ in range(n)],
                    dtype=object)


def rand_system(rng: random.Random, dim: int, n_inputs: int = 1,
                lo: int = -3, hi: int = 3) -> LinSys:
    return LinSys(f"rand{dim}", rand_rational_matrix(rng, dim, dim, lo, hi),
                  rand_rational_matrix(rng, dim, n_inputs, lo, hi))
