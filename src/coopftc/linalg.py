"""Dense linear-algebra kernel used by every other module.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy): pivoted
LU solves, symmetric eigendecomposition, Lyapunov equations by the
Bartels-Stewart method (a real Schur form and LAPACK ``trsyl``; O(n^3)
time, O(n^2) memory), and the Hurwitz predicate built on top of them.

All routines work on float64 ``numpy.ndarray`` and validate finiteness
of their inputs; failures raise the typed exceptions from
:mod:`coopftc.errors` rather than returning garbage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NotHurwitzError,
    NotSymmetricError,
    SingularMatrixError,
)

__all__ = [
    "SymEig",
    "as_matrix",
    "solve_linear",
    "sym_eigendecomp",
    "solve_lyapunov",
    "is_hurwitz",
]

#: Relative pivot threshold below which an LU factorization is declared
#: singular.
PIVOT_RTOL = 1e-12

#: Relative asymmetry tolerated by symmetric-only routines.
SYMMETRY_RTOL = 1e-10

#: Relative residual accepted for a Lyapunov solve.
LYAPUNOV_RTOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_rows(*specs) -> list[np.ndarray]:
    """Each ``(name, array, n)`` as one stacked vector of size ``n`` or one
    such row per sample, all with the same number of rows."""
    arrays = []
    for name, rows, n in specs:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim not in (1, 2) or rows.shape[-1] != n:
            raise DimensionMismatchError(
                f"{name} has shape {rows.shape}, expected ({n},) or (N, {n})")
        arrays.append(rows)
    if len({rows.shape[:-1] for rows in arrays}) > 1:
        names = ", ".join(name for name, _, _ in specs).rsplit(", ", 1)
        raise DimensionMismatchError(
            f"{' and '.join(names)} have shapes "
            f"{[rows.shape for rows in arrays]}, not the same number of rows")
    return arrays


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are sorted ascending; ``eigenvectors[:, k]`` is the
    unit eigenvector for ``eigenvalues[k]`` and the columns form an
    orthonormal basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def solve_linear(A, B):
    """Solve ``A @ X = B`` by LU factorization with partial pivoting.

    Parameters
    ----------
    A : (n, n) array_like
    B : (n,) or (n, k) array_like

    Returns
    -------
    ndarray with the shape of ``B``.

    Raises
    ------
    SingularMatrixError
        If any pivot magnitude falls below ``PIVOT_RTOL`` relative to
        the largest entry of ``A``.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    b = np.asarray(B, dtype=float)
    if b.shape[0] != n:
        raise DimensionMismatchError(
            f"B has leading dimension {b.shape[0]}, expected {n}"
        )
    if not np.isfinite(b).all():
        raise ValueError("B contains non-finite entries")
    if n == 0:
        return b.copy()

    scale = np.abs(A).max()
    if scale == 0.0:
        raise SingularMatrixError("coefficient matrix is zero")
    with warnings.catch_warnings():
        # singularity is policed by the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"matrix numerically singular: min pivot {pivots.min():.3e} "
            f"below {PIVOT_RTOL:.0e} * max|A| = {PIVOT_RTOL * scale:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def sym_eigendecomp(S) -> SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The input may deviate from exact symmetry by at most
    ``SYMMETRY_RTOL`` (relative, Frobenius); it is symmetrized before
    factorization so the result is exactly that of ``(S + S.T) / 2``.
    """
    S = as_matrix(S, "S")
    if S.shape[0] != S.shape[1]:
        raise DimensionMismatchError(f"S must be square, got {S.shape}")
    norm = np.linalg.norm(S)
    if np.linalg.norm(S - S.T) > SYMMETRY_RTOL * max(1.0, norm):
        raise NotSymmetricError(
            "matrix exceeds the relative asymmetry tolerance "
            f"{SYMMETRY_RTOL:.0e}"
        )
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    return SymEig(eigenvalues=w, eigenvectors=V)


def solve_lyapunov(Phi, Q) -> np.ndarray:
    """Solve ``Phi.T @ P + P @ Phi = -Q`` for symmetric positive definite P.

    Solved by Bartels-Stewart (Bartels & Stewart, CACM 15(9), 1972) through
    ``scipy.linalg.solve_continuous_lyapunov``; the result is symmetrized
    and then required to be finite, to have a small residual and to be
    positive definite.  When an eigenvalue pair of ``Phi`` sums to zero
    the operator is singular: LAPACK then perturbs the problem and returns
    a meaningless, possibly huge or non-finite P.  Its warning is
    silenced here and the checks below reject that P.

    Raises
    ------
    NotHurwitzError
        If the solution is not finite, the residual exceeds
        ``LYAPUNOV_RTOL`` relative to ``||Q||``, or the solution is not
        positive definite -- each of which certifies that ``Phi`` is not
        Hurwitz (or the problem is too ill-conditioned to certify).
    """
    Phi = as_matrix(Phi, "Phi")
    Q = as_matrix(Q, "Q")
    n = Phi.shape[0]
    if Phi.shape != (n, n) or Q.shape != (n, n):
        raise DimensionMismatchError(
            f"Phi and Q must be square and same size, got {Phi.shape}, {Q.shape}"
        )
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # a singular operator is policed by the checks below
        warnings.simplefilter("ignore", RuntimeWarning)
        P = scipy.linalg.solve_continuous_lyapunov(Phi.T, -Q)
        P = 0.5 * (P + P.T)
        residual = np.linalg.norm(Phi.T @ P + P @ Phi + Q)
    if not np.isfinite(P).all():
        raise NotHurwitzError("Lyapunov operator singular: solution not finite")
    if not residual <= LYAPUNOV_RTOL * max(1.0, np.linalg.norm(Q)):
        raise NotHurwitzError(
            f"Lyapunov residual {residual:.3e} too large to certify"
        )
    w = np.linalg.eigvalsh(P)
    if w.min() <= 0.0:
        raise NotHurwitzError(
            f"Lyapunov solution not positive definite (min eig {w.min():.3e})"
        )
    return P


def is_hurwitz(A) -> bool:
    """True iff every eigenvalue of ``A`` has strictly negative real part.

    Decided through :func:`solve_lyapunov` with ``Q = I``: a unique
    positive definite solution exists exactly for Hurwitz ``A``.
    """
    A = as_matrix(A, "A")
    try:
        solve_lyapunov(A, np.eye(A.shape[0]))
    except NotHurwitzError:
        return False
    return True
