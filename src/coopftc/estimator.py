"""Realizable augmented-state observer.

The observer runs in transformed coordinates ``eta = x_o - F2 y_f`` so
that only measured signals appear on the right-hand side:

    eta' = A_obs eta + F1 B u + (A_obs F2 + L) y_f,
    x_o  = eta + F2 y_f,          A_obs = F1 A_a - L E2.

The measured output is injected exactly once, through
``B_y = A_obs F2 + L``; that is the unique form consistent with the
change of variables above.

Splitting ``x_o`` along the canonical augmented layout gives the plant
state estimate and the sensor-fault estimate in one step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHurwitzError
from .linalg import is_hurwitz
from .plant import AugmentedModel, NetworkModel
from .synth import ObserverSynthesis

__all__ = [
    "ObserverRealization",
    "EstimateSplit",
    "build_observer",
    "observer_derivative",
    "extract_estimates",
]


@dataclass(frozen=True)
class ObserverRealization:
    """Matrices of the transformed observer, immutable once built."""

    A_obs: np.ndarray  #: state matrix F1 A_a - L E2 (Hurwitz)
    B_u: np.ndarray    #: input injection F1 B
    B_y: np.ndarray    #: measured-output injection A_obs F2 + L
    F2: np.ndarray     #: lift from measured output to augmented state
    n_aug: int
    nbar_x: int
    nbar_y: int


@dataclass(frozen=True)
class EstimateSplit:
    """State and sensor-fault estimates cut from one augmented vector."""

    x_hat: np.ndarray
    f_hat: np.ndarray


def build_observer(aug: AugmentedModel, net: NetworkModel,
                   synth: ObserverSynthesis) -> ObserverRealization:
    """Assemble the realizable observer from a synthesized gain.

    The Hurwitz property of ``A_obs`` is re-checked here even though
    the synthesis already certified it; construction is cheap and the
    check keeps this module independent of how the gain was produced.

    Raises
    ------
    NotHurwitzError
        If ``F1 A_a - L E2`` fails the Lyapunov-based stability test.
    """
    Lgain = np.asarray(synth.Lgain, dtype=float)
    if Lgain.shape != (aug.n_aug, net.nbar_y):
        raise DimensionMismatchError(
            f"observer gain shape {Lgain.shape}, expected "
            f"{(aug.n_aug, net.nbar_y)}")
    A_obs = aug.F1 @ aug.A_a - Lgain @ aug.E2
    if not is_hurwitz(A_obs):
        raise NotHurwitzError("observer state matrix F1 A_a - L E2 is "
                              "not Hurwitz; refuse to build realization")
    return ObserverRealization(
        A_obs=A_obs,
        B_u=aug.F1 @ net.B,
        B_y=A_obs @ aug.F2 + Lgain,
        F2=aug.F2.copy(),
        n_aug=aug.n_aug,
        nbar_x=net.nbar_x,
        nbar_y=net.nbar_y,
    )


def observer_derivative(obs: ObserverRealization, eta: np.ndarray,
                        y_f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Right-hand side ``A_obs eta + B_u u + B_y y_f``."""
    eta = np.asarray(eta, dtype=float)
    y_f = np.asarray(y_f, dtype=float)
    u = np.asarray(u, dtype=float)
    if eta.shape != (obs.n_aug,):
        raise DimensionMismatchError(
            f"eta has shape {eta.shape}, expected ({obs.n_aug},)")
    if y_f.shape != (obs.nbar_y,):
        raise DimensionMismatchError(
            f"y_f has shape {y_f.shape}, expected ({obs.nbar_y},)")
    if u.shape != (obs.B_u.shape[1],):
        raise DimensionMismatchError(
            f"u has shape {u.shape}, expected ({obs.B_u.shape[1]},)")
    return obs.A_obs @ eta + obs.B_u @ u + obs.B_y @ y_f


def extract_estimates(obs: ObserverRealization, eta: np.ndarray,
                      y_f: np.ndarray) -> EstimateSplit:
    """Recover ``x_o = eta + F2 y_f`` and split it along the canonical
    layout (plant states first, sensor-fault components after)."""
    eta = np.asarray(eta, dtype=float)
    y_f = np.asarray(y_f, dtype=float)
    if eta.shape != (obs.n_aug,):
        raise DimensionMismatchError(
            f"eta has shape {eta.shape}, expected ({obs.n_aug},)")
    if y_f.shape != (obs.nbar_y,):
        raise DimensionMismatchError(
            f"y_f has shape {y_f.shape}, expected ({obs.nbar_y},)")
    x_o = eta + obs.F2 @ y_f
    return EstimateSplit(x_hat=x_o[:obs.nbar_x], f_hat=x_o[obs.nbar_x:])
