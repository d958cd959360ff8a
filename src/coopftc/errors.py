"""Exception taxonomy shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class so the CLI can map families of errors to process exit codes
without string matching.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


# --- numerical kernel ------------------------------------------------------

class SingularMatrixError(ToolkitError):
    """Linear solve on a matrix that is singular, or whose 1-norm
    condition number exceeds ``linalg.COND_MAX``."""


class NotSymmetricError(ToolkitError):
    """A symmetric-only routine was handed an asymmetric matrix."""


class NotHurwitzError(ToolkitError):
    """A matrix required to be Hurwitz (all eigenvalues in the open
    left half-plane) is not, or a Lyapunov solve could not certify it."""


class DimensionMismatchError(ToolkitError):
    """Operands have incompatible shapes."""


# --- graph layer -----------------------------------------------------------

class BadEdgeError(ToolkitError):
    """Edge list violates the graph rules (self-loop, bad index,
    negative weight, duplicate)."""


class IsolatedUnitError(ToolkitError):
    """A unit has zero total in-weight, so its weights cannot be
    normalized and it can never track the source."""


class NotPositiveStableError(ToolkitError):
    """The pinned interaction matrix is not positive stable."""


# --- plant / augmentation --------------------------------------------------

class ModelValidationError(ToolkitError):
    """Agent or network matrices fail a structural requirement."""


class CertificateFailedError(ToolkitError):
    """Loaded gains fail the re-verification synthesized gains pass."""


class IdentityCheckFailedError(ToolkitError):
    """An exact identity does not hold to tolerance: a fast path of the
    simulation against its reference, or the unit in-weights of a
    control law's graph against one."""


# --- synthesis -------------------------------------------------------------

class InfeasibleError(ToolkitError):
    """No feasible point found for a matrix-inequality problem.

    The message names one of three verdicts: *provably infeasible* (a
    constant problem, or a margin above the cap that a constant diagonal
    entry sets), *certified infeasible* (a Farkas certificate rules out
    every assignment below a stated radius), or *gave up* (the solver
    stalled or exhausted its iteration budget with no certificate).
    """


class DeltaNonPositiveError(ToolkitError):
    """Attenuation level delta must be strictly positive."""


class AlphaNonPositiveError(ToolkitError):
    """Input-weight alpha must be strictly positive."""


# --- simulation ------------------------------------------------------------

class NonFiniteStateError(ToolkitError):
    """Integration produced NaN/Inf state entries.

    Attributes
    ----------
    time : float
        First grid time at which a non-finite entry appeared.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


# --- scenario / CLI --------------------------------------------------------

class ParseError(ToolkitError):
    """Scenario file is not syntactically valid."""


class ValidationError(ToolkitError):
    """Scenario file parsed but contains invalid or unknown fields."""


class SchemaError(ToolkitError):
    """A data file (trace CSV, gains file) does not match the expected
    schema."""
