"""Exception types raised by construction and verification routines, the
one rule that turns a residual into a verdict (passes) and the gate that
raises by it, and the checks of an input object's keys and integer
fields."""

import numpy as np


def passes(value, tol) -> bool:
    """The pass rule of every gate and verdict: value is finite and <= tol,
    so NaN and infinity never pass."""
    return bool(np.isfinite(value) and value <= tol)


def gate(value, tol, error, what: str, where: str = "") -> None:
    """Raise error("<what> <value> exceeds <tol><where>") unless
    passes(value, tol): every residual gate of the package, so each names its
    value and its tolerance the same way."""
    if not passes(value, tol):
        raise error(f"{what} {value:.3e} exceeds {tol:.1e}{where}")


def worst(values) -> float:
    """Largest of some non-negative residuals, 0.0 for none.  NaN when any is
    NaN; Python's max drops NaN depending on argument order."""
    return float(np.max([0.0, *values]))


def check_keys(doc: dict, allowed, where: str) -> None:
    """Bad input (ValueError) when doc has a key outside allowed: a
    misspelled key would otherwise leave its default in place silently."""
    unknown = [k for k in doc if k not in allowed]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}; "
                         f"known keys: {', '.join(allowed)}")


def json_int(value, what: str) -> int:
    """An integer field of a file or config as an int.  It must be a JSON
    integer (or a float without a fraction): int() would take a bool or a
    string, and truncate 1.7 to 1."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class CocycleLabError(Exception):
    """Base class of the failed-check errors (exit 1)."""


class StructureViolated(CocycleLabError):
    """Data handed to a writer is not real on SM or not skew-symmetric to the
    structure tolerance, so the compact file layout would change it."""


class NonSmoothLambda(ValueError):
    """Conformal factor has Nyquist content on its grid: bad input, not a failed check."""


class StepTooLarge(ValueError):
    """Requested integrator step exceeds the allowed fraction of the torus
    size: bad input, not a failed check."""


class NonOrthogonalDrift(CocycleLabError):
    """Transported matrix drifted away from the orthogonal group beyond tolerance."""


class NotClosed(CocycleLabError):
    """Geodesic endpoint does not return to its starting point."""


class NotUnit(CocycleLabError):
    """Section fails the pointwise unit condition g^3 + g = 0, |g| = 1."""


class GNotHolomorphic(CocycleLabError):
    """Candidate direction field fails the covariant holomorphicity residual gate."""


class InputNotCertified(CocycleLabError):
    """Input pair + trivializer fail the transport residual gate."""


class OutputNotCertified(CocycleLabError):
    """A transform or reduction produced a pair + trivializer that fail the
    transport residual gate."""


class RankDeficient(CocycleLabError):
    """Top Fourier mode vanishes on too large a fraction of the grid."""


class ReductionFailed(CocycleLabError):
    """Degree reduction produced a direction field that fails its residual gates."""
