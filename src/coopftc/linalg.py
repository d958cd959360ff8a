"""Dense linear-algebra kernel used by every other module.

Contract-checked wrappers around numpy's LAPACK: block-diagonal
assembly, pivoted LU solves guarded by a condition-number test,
symmetric eigenvalues, Lyapunov equations by the Newton
iteration for the matrix sign function (Roberts, Int. J. Control 32,
1980; Byers, Lin. Alg. Appl. 85, 1987), and the Hurwitz predicate built
on top of them.  numpy is the only numerical library they use.

All routines work on float64 ``numpy.ndarray`` and validate finiteness
of their inputs; failures raise the typed exceptions from
:mod:`coopftc.errors` rather than returning garbage.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHurwitzError,
    NotSymmetricError,
    SingularMatrixError,
)

__all__ = [
    "as_matrix",
    "as_symmetric",
    "block",
    "block_diag",
    "solve_linear",
    "sym_eigvals",
    "solve_lyapunov",
    "is_hurwitz",
]

#: Largest 1-norm condition number of a coefficient matrix that
#: :func:`solve_linear` accepts.
COND_MAX = 1e12

#: Relative asymmetry tolerated by symmetric-only routines.
SYMMETRY_RTOL = 1e-10

#: Relative residual accepted for a Lyapunov solve.
LYAPUNOV_RTOL = 1e-8

#: Steps after which the sign iteration gives up.  With determinant
#: scaling it converges in about 5-10 steps on well-separated spectra,
#: and in under 40 when the spectral abscissa is 1e-11 of the norm.
SIGN_MAX_STEPS = 50

#: Leading steps of the sign iteration that use determinant scaling.
SIGN_SCALED_STEPS = 8

#: Relative 1-norm change of the sign iterate at which it has converged.
SIGN_RTOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def block_diag(*blocks) -> np.ndarray:
    """The blocks on the diagonal of a zero matrix, in order, like
    ``scipy.linalg.block_diag``: a scalar is a 1 x 1 block and a 1-D
    array one row.  Blocks may be stacks (..., r, c), whose leading axes
    broadcast together."""
    blocks = [np.atleast_2d(b) for b in blocks]
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    rows, cols = np.sum([b.shape[-2:] for b in blocks], axis=0)
    out = np.zeros(lead + (rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[..., r:r + b.shape[-2], c:c + b.shape[-1]] = b
        r, c = r + b.shape[-2], c + b.shape[-1]
    return out


def block(rows) -> np.ndarray:
    """``numpy.block`` of a list of rows of matrices, which may be stacks
    (..., r, c) whose leading axes broadcast together.  Each block is
    copied into one preallocated result."""
    blocks = [b for row in rows for b in row]
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    r = np.cumsum([0] + [row[0].shape[-2] for row in rows])
    c = np.cumsum([0] + [b.shape[-1] for b in rows[0]])
    out = np.empty(lead + (r[-1], c[-1]), dtype=np.result_type(*blocks))
    for i, row in enumerate(rows):
        for j, b in enumerate(row):
            if b.shape[-2:] != (r[i + 1] - r[i], c[j + 1] - c[j]):
                raise DimensionMismatchError(
                    f"block ({i}, {j}) has shape {b.shape[-2:]}, expected "
                    f"({r[i + 1] - r[i]}, {c[j + 1] - c[j]})")
            out[..., r[i]:r[i + 1], c[j]:c[j + 1]] = b
    return out


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


def solve_linear(A, B):
    """Solve ``A @ X = B`` by LU factorization with partial pivoting
    (``numpy.linalg.solve``, LAPACK ``gesv``).

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
        If ``A`` is singular, or its 1-norm condition number
        ``||A||_1 ||A^-1||_1`` exceeds ``COND_MAX``.
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

    try:
        inverse = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix singular: {exc}") from exc
    with np.errstate(all="ignore"):
        cond = np.linalg.norm(A, 1) * np.linalg.norm(inverse, 1)
    if not cond <= COND_MAX:
        raise SingularMatrixError(
            f"matrix numerically singular: 1-norm condition number "
            f"{cond:.3e} above {COND_MAX:.0e}"
        )
    return np.linalg.solve(A, b)


def as_symmetric(S, name="S") -> np.ndarray:
    """Coerce ``S`` like :func:`as_matrix` and require it square and
    symmetric to within ``SYMMETRY_RTOL``: ``||S - S.T|| <= SYMMETRY_RTOL
    * max(1, ||S||)`` in the Frobenius norm.  The one symmetry test of
    the package.

    ``S`` may be a stack (..., n, n), each matrix tested against its own
    norm.  The first failing matrix in C order raises; a callable
    ``name`` maps its flat position in the stack to its name."""
    S = np.asarray(S, dtype=float)
    flat = S.reshape((-1,) + S.shape[-2:] if S.ndim >= 2 else (1, 1, -1))
    bad = ~np.isfinite(flat).all(axis=(1, 2))
    square = S.ndim >= 2 and S.shape[-2] == S.shape[-1]
    if square:
        gap, size = (x.reshape(len(flat), S.shape[-1] ** 2)
                     for x in (flat - flat.mT, flat))
        bad |= (np.sqrt(np.vecdot(gap, gap)) > SYMMETRY_RTOL
                * np.maximum(1.0, np.sqrt(np.vecdot(size, size))))
    else:  # every matrix fails, so the first one is named
        bad[:] = True
    if bad.any():
        first = int(np.argmax(bad))
        label = name(first) if callable(name) else name
        if S.ndim < 2:
            raise DimensionMismatchError(
                f"{label} must be 2-D, got shape {S.shape}")
        if not np.isfinite(flat[first]).all():
            raise ValueError(f"{label} contains non-finite entries")
        if not square:
            raise DimensionMismatchError(
                f"{label} must be square, got {S.shape[-2:]}")
        raise NotSymmetricError(
            f"{label} exceeds the relative asymmetry tolerance "
            f"{SYMMETRY_RTOL:.0e}")
    return S


def sym_eigvals(S) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending: those of
    ``(S + S.T) / 2`` by ``numpy.linalg.eigvalsh``, after
    :func:`as_symmetric`.  Every certificate verdict reads them."""
    S = as_symmetric(S)
    return np.linalg.eigvalsh(0.5 * (S + S.T))


def _sign_lyapunov(Phi, Q) -> np.ndarray:
    """Half the (1, 2) block of ``sign([[Phi.T, Q], [0, -Phi]])``.

    For Hurwitz ``Phi`` that sign is ``[[-I, 2 P], [0, I]]`` with ``P``
    the solution of ``Phi.T @ P + P @ Phi = -Q``.  The Newton iteration
    ``Z <- (c Z + (c Z)^-1) / 2`` keeps the block-triangular form, so it
    runs on the blocks: one inverse of the (1, 1) block a step, with the
    determinant scaling ``c = |det|^(-1/n)`` on the first
    ``SIGN_SCALED_STEPS`` steps.  It stops at a relative change of at
    most ``SIGN_RTOL``, or one step after a change of at most its square
    root, past which quadratic convergence leaves only rounding.

    Raises
    ------
    NotHurwitzError
        If an iterate is singular, zero or not finite, or the iteration
        has not converged after ``SIGN_MAX_STEPS`` steps: ``Phi`` then has
        an eigenvalue on or near the imaginary axis.
    """
    n = Phi.shape[0]
    E, W, previous = Phi, Q, np.inf
    for step in range(1, SIGN_MAX_STEPS + 1):
        try:
            inverse = np.linalg.inv(E)
        except np.linalg.LinAlgError as exc:
            raise NotHurwitzError(
                f"sign iteration broke down at step {step}: {exc}") from exc
        c = (np.exp(-np.linalg.slogdet(E)[1] / n)
             if step <= SIGN_SCALED_STEPS else 1.0)
        E_next = 0.5 * (c * E + inverse / c)
        W = 0.5 * (c * W + inverse.T @ W @ inverse / c)
        change = np.linalg.norm(E_next - E, 1) / np.linalg.norm(E_next, 1)
        if not np.isfinite(change):
            raise NotHurwitzError(f"sign iteration broke down at step "
                                  f"{step}: iterate zero or not finite")
        E = E_next
        if change <= SIGN_RTOL or previous <= np.sqrt(SIGN_RTOL):
            return 0.25 * (W + W.T)
        previous = change
    raise NotHurwitzError(
        f"sign iteration did not converge in {SIGN_MAX_STEPS} steps")


def solve_lyapunov(Phi, Q) -> np.ndarray:
    """Solve ``Phi.T @ P + P @ Phi = -Q`` for symmetric positive definite P.

    Solved by the Newton iteration for the matrix sign function
    (Roberts, Int. J. Control 32, 1980; Byers, Lin. Alg. Appl. 85, 1987)
    in :func:`_sign_lyapunov`: O(n^3) time a step and O(n^2) memory.
    When the residual is too large, one step of iterative refinement
    adds the solution for the residual in place of ``Q``; near the
    stability boundary the iteration loses digits that this step wins
    back.  The solution is then required to be finite, to have a small
    residual and to be positive definite.

    Raises
    ------
    NotHurwitzError
        If the sign iteration breaks down or does not converge, the
        solution is not finite, the residual exceeds ``LYAPUNOV_RTOL``
        relative to ``||Q||``, or the solution is not positive definite
        -- each of which certifies that ``Phi`` is not Hurwitz (or the
        problem is too ill-conditioned to certify).
    """
    Phi = as_matrix(Phi, "Phi")
    Q = as_matrix(Q, "Q")
    n = Phi.shape[0]
    if Phi.shape != (n, n) or Q.shape != (n, n):
        raise DimensionMismatchError(
            f"Phi and Q must be square and same size, got {Phi.shape}, {Q.shape}"
        )
    tolerance = LYAPUNOV_RTOL * max(1.0, np.linalg.norm(Q))
    with np.errstate(all="ignore"):
        # an operator near singularity is policed by the checks below
        P = _sign_lyapunov(Phi, Q)
        R = Phi.T @ P + P @ Phi + Q
        if not np.linalg.norm(R) <= tolerance:
            P = P + _sign_lyapunov(Phi, R)
            R = Phi.T @ P + P @ Phi + Q
        residual = np.linalg.norm(R)
    if not np.isfinite(P).all():
        raise NotHurwitzError("Lyapunov operator singular: solution not finite")
    if not residual <= tolerance:
        raise NotHurwitzError(
            f"Lyapunov residual {residual:.3e} too large to certify"
        )
    w_min = sym_eigvals(P)[0]
    if w_min <= 0.0:
        raise NotHurwitzError(
            f"Lyapunov solution not positive definite (min eig {w_min:.3e})"
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
