"""Shared exception type, the input contract and the check policy.

Everything a caller can trigger with bad input (malformed text, a pair that
is not coprime, a partition that is not an s-core, ...) raises DomainError.
Internal impossibilities raise RuntimeError and are never caught.

Every level-t statement assumes s >= 2, t >= 1 and gcd(s, t) = 1; the
checks below are the only place that contract is spelled out.  Every integer
that enters, a parameter, an index or a bound, passes the one integer check
``check_int(value, what, low, high)``: an exact int within the inclusive
bounds given, refused with "need <what> >= <low>, got <value>" (or <=
<high>) outside them.  A partition's parts keep their own check in its
constructor, and a partition has no method that takes an index: it is read
through its parts tuple.

Values are checked once, where they enter; values derived from checked ones
by a move that keeps the contract are built with ``_trusted``, or, for a
list of one-field values, with ``_trusted_many``; no other module builds a
value unchecked.
"""

import math
from collections import deque
from itertools import repeat
from operator import attrgetter

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
# Anderson's count is printed only up to this many bits: Python converts at
# most 4,300 digits of an int to text by default, and 2^14284 < 10^4300.
MAX_COUNT_BITS = 14284


class DomainError(ValueError):
    """Invalid input for the requested operation."""


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> None:
    """An exact int within the inclusive bounds low..high, where given: a float
    passes every comparison and a bool is printed as True, so both are refused
    where they enter."""
    if type(value) is not int:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DomainError(f"need {what} >= {low}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"need {what} <= {high}, got {value}")


def check_level(s: int, t: int) -> None:
    """A level: s >= 2 and t >= 1, coprime or not."""
    check_int(s, "s", 2)
    check_int(t, "t", 1)


def check_pair(s: int, t: int) -> None:
    """A level-t pair: s >= 2, t >= 1 and gcd(s, t) = 1."""
    check_level(s, t)
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


def check_scan(work: int, what: str, at_least: bool = False) -> None:
    """A scan, walk or rendering (named by what) of at most MAX_SCAN units of work."""
    if work > MAX_SCAN:
        raise DomainError(f"{what} of {'at least ' * at_least}{work} units of work exceeds the cap of {MAX_SCAN}")


def count_bits_below(n: int, k: int) -> float:
    """A lower bound on log2 of C(n, k)/n, 1 <= k <= n/2, short of it by at
    most 1/4 bit when the bound is at most MAX_COUNT_BITS.

    C(n, k) >= 2^k gives k - bitlen(n).  Under the cap, k < 2^1024, and
    Stirling's formula k log(n/k) - (n-k) log1p(-k/n) - log(2 pi k (1-k/n))/2
    exceeds log C(n, k) by between 0 and 1/6 nats (Robbins' bounds on
    log m!), so less a quarter bit it is a bound too.  With x = k/n the middle
    term is taken as k (1 - x) g, g = -log1p(-x)/x, so that it keeps its
    precision for k << n and never makes a float of n.
    """
    bits = k - n.bit_length()
    if bits > MAX_COUNT_BITS:
        return bits
    x = k / n
    g = -math.log1p(-x) / x if x else 1.0
    nats = k * (math.log(n) - math.log(k)) + k * (1 - x) * g - math.log(2 * math.pi * k * (1 - x)) / 2
    return nats / math.log(2) - math.log2(n) - 0.25


def check_count_bits(s: int, t: int, bits: float) -> None:
    """Anderson's count of (s,t)-cores, of at least ``bits`` bits, prints."""
    if bits > MAX_COUNT_BITS:
        # s and t, not n = s+t, which may have one digit more than Python prints
        raise DomainError(f"count of ({s}, {t})-cores of at least {math.floor(bits)} bits "
                          f"exceeds the cap of {MAX_COUNT_BITS} bits")


def check_s_set(s: int, elements) -> None:
    """The contract of both SSet and SPoint: s >= 2 integers within MAX_COORD,
    pairwise incongruent mod s, summing to s(s-1)/2."""
    if not {int}.issuperset(map(type, elements)):
        check_int(next(a for a in elements if type(a) is not int), "elements")
    check_coords(elements)
    check_int(s, "s", 2)
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


def _write_ints(values, brackets: str = "") -> str:
    """The text that ``_read_ints`` reads back as the sequence ``values``: the
    ints joined by commas, in the two brackets if any.  It is one C-level %
    format, which writes each int straight into the text, with no str per
    value, and whose template, "%d" + ",%d" * (n - 1), is the only other
    string built: 3 bytes per value, and no second copy of the text."""
    if not values:
        return brackets
    return (brackets[:1] + "%d" + ",%d" * (len(values) - 1) + brackets[1:]) % tuple(values)


_new = object.__new__
_set = object.__setattr__


class _Value:
    """A frozen value whose fields are its class's own ``__slots__``.

    It equals only a value of its own class with equal fields, hashes
    alike, prints as ``Cls(field=value, ...)`` and refuses assignment and
    deletion.  Each class declares its fields, in the order of its
    ``__init__`` parameters, as its ``__slots__`` (a class without them fails
    when it is defined), so an instance holds them and nothing else; its own
    ``__init__`` sets them through ``_set`` and then calls
    ``self.__post_init__()``, its check, where it has one.  ``copy`` and
    ``pickle`` rebuild a value through that ``__init__``, so an unpickled
    value is checked again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__["__slots__"]
        key = attrgetter(*cls._fields)  # a closure cell, read faster than a class attribute

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _trusted(cls, **fields):
    """cls(**fields) without its __post_init__ check, for values derived from
    checked ones by a move that keeps cls's contract; each caller names it.
    Fields go into their slots, the class's ``_fields``, through
    object.__setattr__, as each class's own __init__ puts them; for a list of
    values of a one-field class, ``_trusted_many`` does the same in bulk."""
    obj = _new(cls)
    for name, value in fields.items():
        _set(obj, name, value)
    return obj


def _trusted_many(cls, values) -> list:
    """[_trusted(cls, field=value) for value in values], for a class of one
    field, under the same contract.  The instances are made in one ``map`` of
    ``object.__new__`` and filled by a ``map`` of the field's slot setter, so
    no Python frame runs per value."""
    (name,) = cls._fields
    objs = list(map(_new, repeat(cls, len(values))))
    deque(map(cls.__dict__[name].__set__, objs, values), 0)
    return objs
