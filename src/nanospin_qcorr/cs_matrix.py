"""Centrosymmetric two-qubit density matrices.

A 4x4 Hermitian matrix M is centrosymmetric when M[i, j] = M[5-i, 5-j]
(1-based indices), i.e. it is invariant under simultaneous reversal of rows
and columns.  For a unit-trace density matrix with equal middle diagonal
entries this leaves seven real parameters p1..p7:

    [ p1       p2+i p3   p4+i p5   p6      ]
    [ p2-i p3  1/2-p1    p7        p4-i p5 ]
    [ p4-i p5  p7        1/2-p1    p2-i p3 ]
    [ p6       p4+i p5   p2+i p3   p1      ]

The spectrum splits into two branches with closed-form eigenvalues; no
dense eigensolver is needed for states of this family.  The matrix, the
spectrum are written once, for arrays of parameter vectors (``cs_dense``,
``cs_spectrum``); one state is one row.  So are the seven nonzero entries of
the Bloch data, which both discord measures read (``_cs_entries``), and the
singular values and vector of T's yz block
(``_top_singular``, ``_top_vector``).  Which rows are states is written once
too: ``check_cs_rows`` is the one validity rule, and each centrosymmetric
measure applies it to the rows it is given (with the entries:
``_checked_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import EPS_PSD, InvalidStateError

__all__ = [
    "CSDensityMatrix",
    "cs_dense",
    "cs_spectrum",
    "check_cs_rows",
]


@dataclass(frozen=True)
class CSDensityMatrix:
    """Seven-parameter centrosymmetric two-qubit density matrix.

    Every parameter must be finite; InvalidStateError otherwise.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    p6: float
    p7: float

    def __post_init__(self):
        # One sum is non-finite when any parameter is; it also overflows for
        # parameters near 1e308, which no density matrix has.
        total = self.p1 + self.p2 + self.p3 + self.p4 + self.p5 + self.p6 + self.p7
        if not math.isfinite(total):
            raise InvalidStateError(
                f"non-finite or overflowing CS parameters {self.params}"
            )

    @property
    def params(self) -> np.ndarray:
        """Parameters as a length-7 float array (p1..p7)."""
        return np.array(
            [self.p1, self.p2, self.p3, self.p4, self.p5, self.p6, self.p7]
        )

    def to_matrix(self) -> np.ndarray:
        """Dense 4x4 complex matrix."""
        return cs_dense(self.params)


def cs_dense(params) -> np.ndarray:
    """Dense matrices (..., 4, 4), laid out as above, of parameters (..., 7)."""
    p1, p2, p3, p4, p5, p6, p7 = np.moveaxis(np.asarray(params, dtype=float), -1, 0)
    a, b, d = p2 + 1j * p3, p4 + 1j * p5, 0.5 - p1
    ac, bc = np.conj(a), np.conj(b)
    rows = [p1, a, b, p6, ac, d, p7, bc, bc, p7, d, ac, p6, b, a, p1]
    return np.stack(rows, axis=-1).reshape(np.shape(p1) + (4, 4))


def cs_spectrum(params) -> np.ndarray:
    """Closed-form eigenvalues (..., 4) of CS parameter vectors (..., 7).

    Each row is (L1, L2, L3, L4): L1, L2 share the branch with mean
    (p6 + p7 + 1/2)/2, L3, L4 the one with mean (1/2 - p6 - p7)/2, the '+'
    root first; they sum to 1.  Rows are computed as a (-1, 7) array, so a
    single vector gets the bits of its row inside an array.
    """
    p = np.asarray(params, dtype=float)
    p1, p2, p3, p4, p5, p6, p7 = p.reshape(-1, 7).T
    s1 = 0.5 * (p6 + p7 + 0.5)
    r1 = np.sqrt(
        0.25 * (2.0 * p1 + p6 - p7 - 0.5) ** 2 + (p2 + p4) ** 2 + (p3 + p5) ** 2
    )
    s2 = 0.5 * (0.5 - p6 - p7)
    r2 = np.sqrt(
        0.25 * (2.0 * p1 - p6 + p7 - 0.5) ** 2 + (p2 - p4) ** 2 + (p3 - p5) ** 2
    )
    evals = np.stack([s1 + r1, s1 - r1, s2 + r2, s2 - r2], axis=-1)
    return evals.reshape(p.shape[:-1] + (4,))


def check_cs_rows(params) -> np.ndarray:
    """Closed-form spectra (R, 4) of CS parameter rows (..., 7) that are states.

    Hermiticity and unit trace hold structurally for any real parameter
    vector, so a finite row is a density matrix exactly when no eigenvalue
    lies below -EPS_PSD.  Raises InvalidStateError on the first non-finite
    row, else on the first row that is not a density matrix, naming each of
    its negative eigenvalues.  Every CS measure takes its rows through here.
    """
    rows = np.asarray(params, dtype=float).reshape(-1, 7)
    # Whole-array reductions first; the rows are searched only on failure.
    if not np.isfinite(rows).all():
        bad = rows[~np.isfinite(rows).all(axis=1)][0]
        raise InvalidStateError(f"non-finite CS parameters {bad}")
    evals = cs_spectrum(rows)
    if not np.min(evals, initial=np.inf) >= -EPS_PSD:
        bad = evals[~np.all(evals >= -EPS_PSD, axis=1)][0]
        violations = [
            f"eigenvalue L{k} = {lam:.6e} < -{EPS_PSD:g}"
            for k, lam in enumerate(bad.tolist(), start=1)
            if not lam >= -EPS_PSD
        ]
        raise InvalidStateError("not a density matrix: " + "; ".join(violations))
    return evals


def _cs_entries(params):
    """x1, y1, T_xx and T's yz block a, b, c, d of CS rows (..., 7), each (...)."""
    p1, p2, p3, p4, p5, p6, p7 = np.moveaxis(np.asarray(params, dtype=float), -1, 0)
    x1, y1, txx = 4.0 * p4, 4.0 * p2, 2.0 * (p6 + p7)
    return x1, y1, txx, 2.0 * (p7 - p6), -4.0 * p5, -4.0 * p3, 4.0 * p1 - 1.0


def _checked_rows(params):
    """(check_cs_rows, _cs_entries) of CS rows (..., 7), for a measure's rows."""
    params = np.asarray(params, dtype=float).reshape(-1, 7)
    return check_cs_rows(params), _cs_entries(params)


def _top_singular(a, b, c, d):
    """Singular values s_max, s_min of the blocks [[a, b], [c, d]], each (R,).

    [[a, b], [c, d]] is a rotation by -alpha scaled by |(a + d, b - c)| / 2 plus
    a reflection about beta / 2 scaled by |(a - d, b + c)| / 2; at
    g = (alpha + beta) / 2 both take (cos g, sin g), s_max's right vector
    (_top_vector), to one direction.
    s_min = |a d - b c| / s_max: with p3 = 0 and p6 = p7 a CS block has
    a = c = 0, so s_min is exactly 0, never a rounding residue.
    """
    s_max = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    return s_max, np.abs(a * d - b * c) / np.maximum(s_max, 1e-300)


def _top_vector(a, b, c, d):
    """s_max's right singular vector (R, 2) of _top_singular's blocks."""
    g = 0.5 * (np.arctan2(b - c, a + d) + np.arctan2(b + c, a - d))
    return np.stack([np.cos(g), np.sin(g)], axis=-1)
