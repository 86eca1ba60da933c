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
spectrum and the Bloch data are written once, for arrays of parameter
vectors (``cs_dense``, ``cs_spectrum``, ``cs_bloch``); one state is one row.
Which rows are states is decided once too: ``check_cs_rows`` is the one
validity rule that every centrosymmetric measure applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import EPS_PSD, InvalidStateError

__all__ = [
    "CSDensityMatrix",
    "cs_from_params",
    "cs_from_vector",
    "cs_dense",
    "cs_spectrum",
    "cs_eigenvalues",
    "check_cs_rows",
    "cs_bloch",
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


def cs_from_params(
    p1: float, p2: float, p3: float, p4: float, p5: float, p6: float, p7: float
) -> CSDensityMatrix:
    """Build a CSDensityMatrix from its seven real parameters."""
    return CSDensityMatrix(
        float(p1), float(p2), float(p3), float(p4), float(p5), float(p6), float(p7)
    )


def cs_from_vector(params) -> CSDensityMatrix:
    """Build a CSDensityMatrix from a length-7 sequence (p1..p7)."""
    p = np.asarray(params, dtype=float)
    if p.shape != (7,):
        raise ValueError(f"expected 7 parameters, got shape {p.shape}")
    return cs_from_params(*p)


def cs_dense(params) -> np.ndarray:
    """Dense matrices (..., 4, 4), laid out as above, of parameters (..., 7)."""
    p1, p2, p3, p4, p5, p6, p7 = np.moveaxis(np.asarray(params, dtype=float), -1, 0)
    a, b, d = p2 + 1j * p3, p4 + 1j * p5, 0.5 - p1
    ac, bc = np.conj(a), np.conj(b)
    rows = [p1, a, b, p6, ac, d, p7, bc, bc, p7, d, ac, p6, b, a, p1]
    return np.stack(rows, axis=-1).reshape(np.shape(p1) + (4, 4))


def cs_spectrum(params) -> np.ndarray:
    """Closed-form eigenvalues of centrosymmetric parameter vectors.

    ``params`` has shape (..., 7); returns shape (..., 4) in the order of
    ``cs_eigenvalues``.
    """
    p1, p2, p3, p4, p5, p6, p7 = np.moveaxis(np.asarray(params, dtype=float), -1, 0)
    s1 = 0.5 * (p6 + p7 + 0.5)
    r1 = np.sqrt(
        0.25 * (2.0 * p1 + p6 - p7 - 0.5) ** 2 + (p2 + p4) ** 2 + (p3 + p5) ** 2
    )
    s2 = 0.5 * (0.5 - p6 - p7)
    r2 = np.sqrt(
        0.25 * (2.0 * p1 - p6 + p7 - 0.5) ** 2 + (p2 - p4) ** 2 + (p3 - p5) ** 2
    )
    return np.stack([s1 + r1, s1 - r1, s2 + r2, s2 - r2], axis=-1)


def cs_eigenvalues(m: CSDensityMatrix) -> tuple:
    """Closed-form eigenvalues (L1, L2, L3, L4) of a centrosymmetric matrix.

    The first pair shares the branch with mean (p6 + p7 + 1/2)/2, the second
    the branch with mean (1/2 - p6 - p7)/2; within each pair the '+' root
    comes first.  The four values always sum to 1.
    """
    return tuple(cs_spectrum(m.params[None])[0].tolist())


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


def cs_bloch(params):
    """Closed-form Bloch data (x, y, T) of centrosymmetric parameter vectors.

    ``params`` has shape (..., 7); returns arrays of shapes (..., 3),
    (..., 3) and (..., 3, 3).
    """
    p = np.asarray(params, dtype=float)
    p1, p2, p3, p4, p5, p6, p7 = np.moveaxis(p, -1, 0)
    zero = np.zeros_like(p1)
    x = np.stack([4.0 * p4, zero, zero], axis=-1)
    y = np.stack([4.0 * p2, zero, zero], axis=-1)
    T = np.stack(
        [
            2.0 * (p6 + p7), zero, zero,
            zero, 2.0 * (p7 - p6), -4.0 * p5,
            zero, -4.0 * p3, 4.0 * p1 - 1.0,
        ],
        axis=-1,
    ).reshape(p.shape[:-1] + (3, 3))
    return x, y, T
