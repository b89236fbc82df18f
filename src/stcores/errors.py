"""Shared exception type, the input contract and the check policy.

Everything a caller can trigger with bad input (malformed text, a pair that
is not coprime, a partition that is not an s-core, ...) raises DomainError.
Internal impossibilities raise RuntimeError and are never caught.

Every level-t statement assumes s >= 2, t >= 1 and gcd(s, t) = 1; the
checks below are the only place that contract is spelled out.

Values are checked once, where they enter; values derived from checked ones
by a move that keeps the contract are built with ``_trusted``.
"""

import math

# Sizes and coordinates are kept inside 63-bit signed range so that results
# stay comparable with any fixed-width reimplementation of the text formats.
MAX_SIZE = 2**62 - 1
MAX_COORD = 2**62


class DomainError(ValueError):
    """Invalid input for the requested operation."""


def check_level(t: int) -> None:
    """The level of an action or rhomboid: t >= 1."""
    if t < 1:
        raise DomainError(f"t must be a positive integer, got {t}")


def check_pair(s: int, t: int) -> None:
    """A level-t pair: s >= 2, t >= 1 and gcd(s, t) = 1."""
    if s < 2:
        raise DomainError(f"need s >= 2, got {s}")
    check_level(t)
    if math.gcd(s, t) != 1:
        raise DomainError(f"({s}, {t}) must be coprime")


def check_s_set(s: int, elements) -> None:
    """The contract of both SSet and SPoint: s >= 2 integers within MAX_COORD,
    pairwise incongruent mod s, summing to s(s-1)/2."""
    if any(abs(a) > MAX_COORD for a in elements):
        raise DomainError("coordinate overflow beyond the 63-bit guard")
    if s < 2:
        raise DomainError(f"need s >= 2, got {s}")
    if len(elements) != s:
        raise DomainError(f"expected {s} elements, got {len(elements)}")
    if len({a % s for a in elements}) != s:
        raise DomainError(f"elements must be pairwise incongruent mod {s}")
    if sum(elements) != s * (s - 1) // 2:
        raise DomainError("elements must sum to s(s-1)/2")


def _trusted(cls, **fields):
    """cls(**fields) without its __post_init__ check, for values derived from
    checked ones by a move that keeps cls's contract; each caller names it."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
