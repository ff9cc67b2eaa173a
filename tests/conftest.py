import numpy as np
import pytest

from bilevel_lab import build_csc, build_scsc, linalg
from bilevel_lab.presets import (
    benchmark_scsc_constants,
    mild_csc_constants,
    mild_scsc_constants,
)


@pytest.fixture(scope="session")
def mild_constants():
    return mild_scsc_constants()


@pytest.fixture(scope="session")
def benchmark_constants():
    return benchmark_scsc_constants(4.0)


@pytest.fixture(scope="session")
def csc_constants():
    return mild_csc_constants()


@pytest.fixture(scope="session")
def scsc_mild16(mild_constants):
    return build_scsc(16, mild_constants)


@pytest.fixture(scope="session")
def scsc_bench32(benchmark_constants):
    return build_scsc(32, benchmark_constants)


@pytest.fixture(scope="session")
def csc20(csc_constants):
    return build_csc(20, csc_constants, B=1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def solve_calls(monkeypatch):
    """The rhs shape of every linalg.solve_dense call made during the test."""
    shapes = []
    solve = linalg.solve_dense

    def spy(op, rhs):
        shapes.append(rhs.shape)
        return solve(op, rhs)

    monkeypatch.setattr(linalg, "solve_dense", spy)
    return shapes


@pytest.fixture()
def factor_calls(monkeypatch):
    """(band width, dim) of every banded LDL' factorization made during the test."""
    calls = []
    init = linalg.BandedLDL.__init__

    def spy(self, lower):
        calls.append((lower.shape[0] - 1, lower.shape[1]))
        init(self, lower)

    monkeypatch.setattr(linalg.BandedLDL, "__init__", spy)
    return calls
