"""Exception types shared across the package.

Every error raised by the library derives from ``DivalgError``.  The
``exit_code`` attribute is what the command line maps a failure to:
2 for bad input (files that parse but violate a contract), 3 for a
numerical failure discovered mid-computation.
"""

import numpy as np


def fail_at(bad, error, message) -> None:
    """Raise error(message(k)) for the first member k flagged in the
    boolean array bad, counted in flat (C) order; nothing when none is.
    count_nonzero, not a scan of the members: on the one- or two-member
    masks of single-item calls it costs a third of what any() does."""
    if np.count_nonzero(bad):
        raise error(message(int(bad.argmax())))


class DivalgError(Exception):
    """Base class for all library errors."""

    exit_code = 3


# --- input contract violations (exit code 2) ---

class SingularOperator(DivalgError):
    """An operator that must be invertible is numerically singular."""

    exit_code = 2


class ZeroMap(DivalgError):
    """A candidate morphism is the zero map."""

    exit_code = 2


class ZeroQuaternion(DivalgError):
    """A quaternion argument that must be nonzero is (numerically) zero."""

    exit_code = 2


class ModeMismatch(DivalgError):
    """A mode keyword does not apply to the given input."""

    exit_code = 2


class BadSplit(DivalgError):
    """U, V do not split the space, or the U-block dimension is not odd."""

    exit_code = 2


class NotIdempotent(DivalgError):
    """The supplied vector is not an idempotent of the algebra."""

    exit_code = 2


class NotEQuadratic(DivalgError):
    """The algebra carries no qualifying central idempotent."""

    exit_code = 2


class NotDivision(DivalgError):
    """The algebra is required to be a division algebra but is not."""

    exit_code = 2


class BlockMismatch(DivalgError):
    """Two normal forms lie in different double-sign blocks."""

    exit_code = 2


# --- numerical failures (exit code 3) ---

class SingularInput(DivalgError):
    """A matrix that must be invertible is numerically singular."""


class DegenerateSign(DivalgError):
    """A determinant is too close to zero for its sign to be trusted."""


class DimensionOne(DivalgError):
    """The double sign is not defined in dimension one."""


class SignInconsistent(DivalgError):
    """Sampled determinant signs disagree; the input cannot be division."""


class CenterTooLarge(DivalgError):
    """The commuting center has dimension above two."""


class NonUniqueIdempotent(DivalgError):
    """More than one qualifying central idempotent in dimension above two."""


class NoHyperplane(DivalgError):
    """No factor of the square-projection forms cuts out a hyperplane."""


class NoImaginaryUnit(DivalgError):
    """No vector squaring to a negative multiple of the unity was found."""


class NonConvergence(DivalgError):
    """A normal-form computation failed its final verification."""


class NotSpecialOrthogonal(DivalgError):
    """The matrix is not orthogonal with determinant +1 at tolerance."""


class FactorizationFailed(DivalgError):
    """A factorization did not reproduce its input at tolerance."""
