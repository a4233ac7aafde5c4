"""Exception hierarchy shared by all modules."""

import sys


class TandemError(Exception):
    """Base class for every error raised by this library."""


class ParamsMismatchError(TandemError):
    """Operands carry different (alphabet size, duplication length) parameters."""


class WordLengthError(TandemError):
    """A word is too short for the requested operation, or lengths disagree."""


class ConeMismatchError(TandemError):
    """The operands do not share a root, so they live in disjoint cones."""


class DimensionMismatchError(TandemError):
    """An integer vector has the wrong number of coordinates."""


class WeightMismatchError(TandemError):
    """Two simplex points have different coordinate sums."""


class NotIrreducibleError(TandemError):
    """An operation that needs an irreducible word received a reducible one."""


class ResourceCapError(TandemError):
    """A combinatorial expansion exceeded its configured node cap."""


class DomainError(TandemError, ValueError):
    """A numeric argument lies outside the operation's domain."""


class DegenerateParamsError(DomainError):
    """Parameters for which the rate machinery is undefined (k = 1)."""


class RegimeParamsError(DomainError):
    """Invalid asymptotic-regime parameters."""


class InfeasibleGeometryError(TandemError):
    """No code with the requested length/root geometry exists."""


class NonConvergenceError(TandemError):
    """An iteration failed to converge within its step limit."""


class InvertedIntervalError(TandemError):
    """An interval was given with lower end above the upper end."""


class DecodeError(TandemError):
    """Base class for reconstruction failures."""


class NoCandidateError(DecodeError):
    """No codeword is consistent with the given reads."""


class AmbiguityError(DecodeError):
    """More than one codeword is consistent with the given reads."""


def _shown(count: int) -> str:
    """count in decimal for a message, or a bound on it past the digits Python will print."""
    try:
        return str(count)
    except ValueError:
        return f"at least 10^{sys.get_int_max_str_digits()}"
