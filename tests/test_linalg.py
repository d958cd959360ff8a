"""Dense-kernel tests: exact small cases, residual and Kronecker oracles,
and scipy as the reference for ``block_diag`` and the Lyapunov solver."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopftc import linalg
from coopftc.errors import NotHurwitzError, NotSymmetricError, \
    SingularMatrixError
from coopftc.linalg import (block_diag, is_hurwitz, solve_linear,
                            solve_lyapunov, sym_eigvals)
from oracles import is_negative_definite, kronecker_lyapunov, sym_eigenvalues


# --- block_diag -------------------------------------------------------------

_RNG = np.random.default_rng(7)


@pytest.mark.parametrize("blocks", [
    [_RNG.normal(size=(2, 2)), _RNG.normal(size=(3, 3))],
    [_RNG.normal(size=(4, 4))],
    [_RNG.normal(size=(3, 3)), -0.5, np.array([[-2.0]]), 1.25],
    [_RNG.normal(size=(2, 3)), _RNG.normal(size=(2, 3)),
     _RNG.normal(size=(2, 3))],
    [_RNG.normal(size=(3, 2)), _RNG.normal(size=(3, 1)),
     _RNG.normal(size=(1, 2))],
], ids=["square", "one_block", "scalar_blocks", "n_u2_rows", "rectangular"])
def test_block_diag_matches_scipy_bitwise(blocks):
    ours, ref = block_diag(*blocks), scipy.linalg.block_diag(*blocks)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


def test_stacks_match_the_matrix_by_matrix_reference():
    """``block_diag`` and ``block`` on stacks whose leading axes
    broadcast give, per matrix, scipy's and numpy's result bit for bit;
    ``as_symmetric`` names the first asymmetric matrix of a stack."""
    rng = np.random.default_rng(3)
    P, Q = rng.normal(size=(2, 4, 1, 3, 3))
    D = rng.normal(size=(5, 3, 2))
    diag = block_diag(P, -0.5, D)
    grid = linalg.block([[P, D], [D.mT, -np.eye(2)]])
    assert diag.shape == (4, 5, 7, 6) and grid.shape == (4, 5, 5, 5)
    for a in range(4):
        for b in range(5):
            assert diag[a, b].tobytes() == scipy.linalg.block_diag(
                P[a, 0], -0.5, D[b]).tobytes()
            assert grid[a, b].tobytes() == np.block(
                [[P[a, 0], D[b]], [D[b].T, -np.eye(2)]]).tobytes()
    S = P + P.mT
    assert linalg.as_symmetric(S) is S
    S[2, 0, 0, 1] += 1.0
    with pytest.raises(NotSymmetricError, match="^matrix 2 exceeds"):
        linalg.as_symmetric(S, lambda first: f"matrix {first}")


# --- solve_linear -----------------------------------------------------------

def test_solve_identity_returns_rhs():
    b = np.array([[1.0], [-2.0], [3.5]])
    npt.assert_allclose(solve_linear(np.eye(3), b), b, rtol=0, atol=0)


def test_solve_diagonal():
    X = solve_linear(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
    npt.assert_allclose(X, np.array([[1.0], [1.0]]), atol=1e-14)


def test_solve_residual_random_5x5():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(5, 5)) + 5 * np.eye(5)
    B = rng.normal(size=(5, 3))
    X = solve_linear(A, B)
    assert np.linalg.norm(A @ X - B) <= 1e-9 * (1 + np.linalg.norm(B))


def test_solve_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve_linear(A, np.eye(2))


@pytest.mark.parametrize("A", [[[1.0, 1.0], [1.0, 1.0 + 1e-14]],
                               [[0.0, 0.0], [0.0, 0.0]]],
                         ids=["near_singular", "zero"])
def test_solve_degenerate_raises(A):
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array(A), np.eye(2))


def test_solve_vector_rhs():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    x = solve_linear(A, np.array([4.0, 3.0]))
    npt.assert_allclose(A @ x, [4.0, 3.0], atol=1e-12)


# --- sym_eigvals ------------------------------------------------------------

def test_eig_identity():
    npt.assert_allclose(sym_eigvals(np.eye(4)), np.ones(4), atol=1e-12)


def test_eig_diagonal_sorted_ascending():
    npt.assert_allclose(sym_eigvals(np.diag([3.0, 1.0, 2.0])),
                        [1.0, 2.0, 3.0], atol=1e-12)


def test_eig_reconstruction_random_6x6():
    # a matrix built from a known spectrum gives that spectrum back
    rng = np.random.default_rng(2)
    Q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    w = np.sort(rng.normal(size=6))
    eigenvalues = sym_eigvals(Q @ np.diag(w) @ Q.T)
    assert np.linalg.norm(eigenvalues - w) <= 1e-9 * np.linalg.norm(w)


def test_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))


def _random_symmetric(seed, n):
    """Gaussian symmetric matrix scaled by 10^k, k drawn from -3..3, so
    that both sides of the tolerance's floor of 1 are drawn."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(n, n))
    return (S + S.T) * 10.0 ** rng.integers(-3, 4), rng


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_sym_eigvals_match_the_eigh_oracle(seed, n):
    S, _ = _random_symmetric(seed, n)
    reference = sym_eigenvalues(S)
    assert (np.abs(sym_eigvals(S) - reference).max()
            <= 1e-12 * np.abs(reference).max())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_sym_eigvals_symmetry_tolerance_is_sharp(seed, n):
    # E strictly upper triangular: ||S + E - (S + E)'|| = sqrt(2) ||E||
    S, rng = _random_symmetric(seed, n)
    E = np.triu(rng.normal(size=(n, n)), 1)
    E *= (linalg.SYMMETRY_RTOL * max(1.0, np.linalg.norm(S))
          / (np.sqrt(2.0) * np.linalg.norm(E)))
    sym_eigvals(S + 0.99 * E)
    with pytest.raises(NotSymmetricError):
        sym_eigvals(S + 1.01 * E)


# --- solve_lyapunov ---------------------------------------------------------

def test_lyapunov_minus_identity():
    P = solve_lyapunov(-np.eye(3), 2 * np.eye(3))
    npt.assert_allclose(P, np.eye(3), atol=1e-12)


def test_lyapunov_diagonal():
    P = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
    npt.assert_allclose(P, np.diag([0.5, 0.25]), atol=1e-12)


def test_lyapunov_residual_random_hurwitz():
    rng = np.random.default_rng(4)
    Phi = rng.normal(size=(4, 4)) - 4 * np.eye(4)
    Q = rng.normal(size=(4, 4))
    Q = Q @ Q.T + np.eye(4)
    P = solve_lyapunov(Phi, Q)
    res = np.linalg.norm(Phi.T @ P + P @ Phi + Q)
    assert res <= 1e-8 * np.linalg.norm(Q)
    npt.assert_allclose(P, P.T, atol=1e-10 * np.abs(P).max())
    assert sym_eigvals(P)[0] > 0


def test_lyapunov_rejects_unstable():
    with pytest.raises(NotHurwitzError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


@pytest.mark.parametrize("Phi", [np.zeros((1, 1)), np.zeros((2, 2)),
                                 np.diag([-1.0, 1.0]),
                                 np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                 np.array([[0.0, 1.0], [0.0, 0.0]])],
                         ids=["zero-1x1", "zero-2x2", "diag(-1,1)",
                              "rotation", "jordan-0"])
def test_lyapunov_rejects_singular_operator(Phi):
    # an eigenvalue pair summing to zero: the sign iteration meets a
    # singular iterate (zero, rotation, Jordan block) or converges to a
    # sign other than -I (diag(-1, 1)); the kernel must raise its own
    # error and let no warning out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(Phi, np.eye(Phi.shape[0]))


def _random_hurwitz(rng, n, margin):
    """Gaussian matrix shifted so its spectral abscissa is ``-margin``."""
    A = rng.normal(size=(n, n))
    return A - (np.linalg.eigvals(A).real.max() + margin) * np.eye(n)


# One fixed n = 48 case besides the random n <= 8 ones.  The oracle's
# dense system is 2304^2 there; do not run it above n = 48 (at n >= 96
# it needs gigabytes).
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.floats(0.1, 2.0))
@example(seed=48, n=48, margin=0.5)
def test_lyapunov_matches_kronecker_oracle(seed, n, margin):
    rng = np.random.default_rng(seed)
    Phi, Q = _random_hurwitz(rng, n, margin), rng.normal(size=(n, n))
    Q = Q @ Q.T + np.eye(n)
    ref = kronecker_lyapunov(Phi, Q)
    P = solve_lyapunov(Phi, Q)
    assert np.linalg.norm(P - ref) <= 1e-9 * np.linalg.norm(ref)


# One fixed n = 72 case (fleet24's observer error dynamics have that
# size) besides the random n <= 12 ones.
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.floats(0.1, 2.0))
@example(seed=72, n=72, margin=0.5)
def test_lyapunov_matches_scipy_bartels_stewart(seed, n, margin):
    rng = np.random.default_rng(seed)
    Phi, Q = _random_hurwitz(rng, n, margin), rng.normal(size=(n, n))
    Q = Q @ Q.T + np.eye(n)
    ref = scipy.linalg.solve_continuous_lyapunov(Phi.T, -Q)
    P = solve_lyapunov(Phi, Q)
    assert np.linalg.norm(P - ref) <= 1e-9 * np.linalg.norm(ref)


def test_lyapunov_refines_near_the_stability_boundary():
    """Spectral abscissa -1e-5: the sign iteration alone leaves a residual
    above the tolerance, and one refinement step certifies the matrix,
    as Bartels-Stewart does."""
    rng = np.random.default_rng(42)
    Phi = _random_hurwitz(rng, 3, 1e-5)
    P = linalg._sign_lyapunov(Phi, np.eye(3))
    tolerance = linalg.LYAPUNOV_RTOL * np.sqrt(3)
    assert np.linalg.norm(Phi.T @ P + P @ Phi + np.eye(3)) > tolerance
    P = solve_lyapunov(Phi, np.eye(3))
    assert np.linalg.norm(Phi.T @ P + P @ Phi + np.eye(3)) <= tolerance
    ref = scipy.linalg.solve_continuous_lyapunov(Phi.T, -np.eye(3))
    assert np.linalg.norm(P - ref) <= 1e-6 * np.linalg.norm(ref)


def test_sign_iteration_names_its_step_count(monkeypatch):
    with pytest.raises(NotHurwitzError, match="broke down at step 1"):
        solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
    monkeypatch.setattr(linalg, "SIGN_MAX_STEPS", 2)
    Phi = _random_hurwitz(np.random.default_rng(3), 12, 1e-3)
    with pytest.raises(NotHurwitzError, match="did not converge in 2 steps"):
        solve_lyapunov(Phi, np.eye(12))


def test_lyapunov_assembles_no_kronecker_system(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("n^2 x n^2 Kronecker assembly in the kernel")

    monkeypatch.setattr(linalg.np, "kron", forbidden)
    monkeypatch.setattr(linalg, "solve_linear", forbidden)
    Phi = _random_hurwitz(np.random.default_rng(5), 12, 0.5)
    P = solve_lyapunov(Phi, np.eye(12))
    assert np.linalg.norm(Phi.T @ P + P @ Phi + np.eye(12)) <= 1e-8
    assert is_hurwitz(Phi)


# --- is_hurwitz -------------------------------------------------------------

def test_hurwitz_minus_identity():
    assert is_hurwitz(-np.eye(2))


def test_hurwitz_rejects_marginal_rotation():
    assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _char_poly_max_real(A):
    """Max real part of eigenvalues via characteristic-polynomial roots."""
    n = A.shape[0]
    if n == 2:
        coeffs = [1.0, -np.trace(A), np.linalg.det(A)]
    elif n == 3:
        minors = sum(np.linalg.det(A[np.ix_(rows, rows)])
                     for rows in ([0, 1], [0, 2], [1, 2]))
        coeffs = [1.0, -np.trace(A), minors, -np.linalg.det(A)]
    else:
        raise ValueError(n)
    return max(r.real for r in np.roots(coeffs))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
def test_hurwitz_matches_char_poly_roots(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    top = _char_poly_max_real(A)
    if abs(top) < 1e-6:  # too close to the axis to classify reliably
        return
    assert is_hurwitz(A) == (top < 0)


# --- is_negative_definite (the test oracle in oracles.py) ------------------

def test_nd_minus_identity_with_margin():
    assert is_negative_definite(-np.eye(3), margin=0.5)


def test_nd_zero_matrix_is_not_strict():
    assert not is_negative_definite(np.zeros((2, 2)), margin=0.0)


def test_nd_margin_boundary():
    S = -0.4 * np.eye(2)
    assert is_negative_definite(S, margin=0.3)
    assert not is_negative_definite(S, margin=0.5)


def test_nd_propagates_asymmetry():
    with pytest.raises(NotSymmetricError):
        is_negative_definite(np.array([[0.0, 1.0], [-1.0, 0.0]]))
