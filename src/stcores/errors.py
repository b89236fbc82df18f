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
# Laying out s runners, or rebuilding a core from its first gaps, scans every
# abacus position between the lowest and the highest gap; capping that span
# bounds the time and the memory.  A core of span n has fewer than n parts,
# each below n, so the cap also keeps its size below 10**14 < MAX_SIZE.
MAX_SPAN = 10**7
# Counting (s,t)-cores adds s residue counts for each of (t+1)(s-1) runner
# multiplier updates, and listing them builds each core's at most
# (s-1)(t-1)/2 rows; a gallery walk copies one core per step, an alcove
# diagram builds one per alcove, and a generator word moves all s
# coordinates per generator.  Each such count of work, taken from a closed
# form before the work starts, is capped.
MAX_SCAN = 10**7


class DomainError(ValueError):
    """Invalid input for the requested operation."""


def check_s(s: int) -> None:
    """The number of runners or coordinates: s >= 2."""
    if s < 2:
        raise DomainError(f"need s >= 2, got {s}")


def check_modulus(s: int) -> None:
    """The modulus of a hook length or a runner count, outside the level-t
    statements: s >= 1."""
    if s < 1:
        raise DomainError(f"s must be a positive integer, got {s}")


def check_level(t: int) -> None:
    """The level of an action or rhomboid: t >= 1."""
    if t < 1:
        raise DomainError(f"t must be a positive integer, got {t}")


def check_pair(s: int, t: int) -> None:
    """A level-t pair: s >= 2, t >= 1 and gcd(s, t) = 1."""
    check_s(s)
    check_level(t)
    if math.gcd(s, t) != 1:
        raise DomainError(f"({s}, {t}) must be coprime")


def check_coords(values) -> None:
    """Integers within MAX_COORD, the 63-bit guard."""
    if max(map(abs, values), default=0) > MAX_COORD:
        raise DomainError("coordinate overflow beyond the 63-bit guard")


def check_span(span: int) -> None:
    """An abacus layout that scans at most MAX_SPAN positions."""
    if span > MAX_SPAN:
        raise DomainError(f"abacus span of {span} positions exceeds the cap of {MAX_SPAN}")


def check_scan(work: int, what: str) -> None:
    """A scan, walk or rendering (named by what) of at most MAX_SCAN units of work."""
    if work > MAX_SCAN:
        raise DomainError(f"{what} of {work} units of work exceeds the cap of {MAX_SCAN}")


def check_s_set(s: int, elements) -> None:
    """The contract of both SSet and SPoint: s >= 2 integers within MAX_COORD,
    pairwise incongruent mod s, summing to s(s-1)/2."""
    check_coords(elements)
    check_s(s)
    if len(elements) != s:
        raise DomainError(f"expected {s} elements, got {len(elements)}")
    if len({a % s for a in elements}) != s:
        raise DomainError(f"elements must be pairwise incongruent mod {s}")
    if sum(elements) != s * (s - 1) // 2:
        raise DomainError("elements must sum to s(s-1)/2")


def _read_ints(text: str, what: str, brackets: str = "", sep: str | None = ",") -> list[int]:
    """The integers of a text format (named by what), stripped, in the two brackets if
    any, split at sep (None: at runs of whitespace); an empty body holds none."""
    text = text.strip()
    if brackets and not (text.startswith(brackets[0]) and text.endswith(brackets[1])):
        raise DomainError(f"malformed {what}: {text!r}")
    body = text[1:-1] if brackets else text
    try:
        return [int(tok) for tok in body.split(sep)] if body else []
    except ValueError as exc:
        raise DomainError(f"malformed {what}: {text!r}") from exc


_new = object.__new__
_set = object.__setattr__


def _trusted(cls, **fields):
    """cls(**fields) without its __post_init__ check, for values derived from
    checked ones by a move that keeps cls's contract; each caller names it.

    Fields go in through object.__setattr__, as a frozen dataclass's own
    __init__ puts them, never through obj.__dict__: writing the dict makes
    the instance hold a materialised dict of its own, larger per value."""
    obj = _new(cls)
    for name, value in fields.items():
        _set(obj, name, value)
    return obj
