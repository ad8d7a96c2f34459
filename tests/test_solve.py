"""The pivoted-QR solve against ``scipy.linalg.qr``, bit for bit, and its memory.

:func:`gnar.estimate.solve_least_squares` calls LAPACK's dgeqp3 and dorgqr
in place on one copy of the design, with the workspace sizes and input
layout that ``scipy.linalg.qr`` uses, so its results must equal those of
:func:`oracles.scipy_qr_solve` byte for byte.
"""

import tracemalloc

import numpy as np
import pytest

from gnar.errors import DesignError, RankDeficiencyError
from gnar.estimate import solve_least_squares
from oracles import scipy_qr_solve

SHAPES = [(200, 7), (1000, 40), (3000, 120), (9, 9), (40, 40), (50, 1), (1, 1), (10, 0)]


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("shape", SHAPES)
def test_solve_equals_scipy_qr_bit_for_bit(shape, layout):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    R = np.array(rng.normal(size=shape), order=layout)
    y = rng.normal(size=shape[0])
    before = R.copy(order="K")
    theta, gram_inv = solve_least_squares(R, y)
    want_theta, want_gram_inv = scipy_qr_solve(R, y)
    assert theta.tobytes() == want_theta.tobytes()
    assert gram_inv.tobytes() == want_gram_inv.tobytes()
    # A q = 1 array is both C- and F-contiguous, so a solve in place would overwrite it.
    assert R.flags[f"{layout}_CONTIGUOUS"]
    assert R.tobytes(order="A") == before.tobytes(order="A")


def test_solve_names_the_same_dependent_columns_as_scipy_qr():
    rng = np.random.default_rng(3)
    R = rng.normal(size=(60, 5))
    R[:, 4] = R[:, 0] - 2 * R[:, 2]
    R[:, 1] = 0.0
    names = ("a", "b", "c", "d", "e")
    with pytest.raises(RankDeficiencyError) as got:
        solve_least_squares(R, np.ones(60), names)
    with pytest.raises(RankDeficiencyError) as want:
        scipy_qr_solve(R, np.ones(60), names)
    assert str(got.value) == str(want.value)
    assert got.value.dependent_columns == want.value.dependent_columns
    assert len(got.value.dependent_columns) == 2


def test_solve_refuses_fewer_rows_than_parameters():
    with pytest.raises(DesignError, match="system has 3 rows for 4 parameters"):
        solve_least_squares(np.ones((3, 4)), np.ones(3))


@pytest.mark.parametrize("where", ["design", "response"])
def test_solve_refuses_a_nan_as_scipy_qr_does(where):
    rng = np.random.default_rng(4)
    R, y = rng.normal(size=(20, 3)), rng.normal(size=20)
    (R if where == "design" else y)[5, ...] = np.nan
    with pytest.raises(ValueError) as want:
        scipy_qr_solve(R, y)
    with pytest.raises(ValueError, match=f"^{want.value}$"):
        solve_least_squares(R, y)


def test_solve_holds_one_copy_of_the_design():
    rng = np.random.default_rng(5)
    R, y = rng.normal(size=(40_000, 11)), rng.normal(size=40_000)
    solve_least_squares(R, y)  # loads scipy and LAPACK before tracing
    tracemalloc.start()
    try:
        solve_least_squares(R, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * R.nbytes, f"peak {peak / R.nbytes:.3f} x the design's bytes"
