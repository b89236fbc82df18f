"""Shared exception type and the input contract.

Everything a caller can trigger with bad input (malformed text, a pair that
is not coprime, a partition that is not an s-core, ...) raises DomainError.
Internal impossibilities raise RuntimeError and are never caught.

Every level-t statement assumes s >= 2, t >= 1 and gcd(s, t) = 1; the
checks below are the only place that contract is spelled out.
"""

import math


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
    """s >= 2 integers, pairwise incongruent mod s, summing to s(s-1)/2."""
    if s < 2:
        raise DomainError(f"need s >= 2, got {s}")
    if len(elements) != s:
        raise DomainError(f"expected {s} elements, got {len(elements)}")
    if len({a % s for a in elements}) != s:
        raise DomainError(f"elements must be pairwise incongruent mod {s}")
    if sum(elements) != s * (s - 1) // 2:
        raise DomainError("elements must sum to s(s-1)/2")
