"""The text writers against the joins of str forms that they replaced.

``partitions.to_text``, ``abacus.sset_to_text`` and ``alcoves.point_to_text``
write their ints by one C-level % format, and the descent printout writes
each core by ``abacus._core_text``, straight from its s-set.  The oracles
are the ``",".join(map(str, ...))`` forms, kept here and nowhere in the
library.
"""

import io
import json
import random
from contextlib import redirect_stdout
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from stcores import abacus, cli, orbits
from stcores.abacus import _PROGRESSION_ROWS, core_from_s_set, make_sset, sset_to_text
from stcores.alcoves import SPoint, point_to_text
from stcores.errors import MAX_SPAN
from stcores.partitions import Partition, to_text
from stcores.verify import random_s_point
from test_abacus import _core_with_rows, _position_scan_core


def _joined(values):
    """The oracle: the ints' str forms joined by commas."""
    return ",".join(map(str, values))


def _sset_oracle(elements):
    return "[" + _joined(sorted(elements)) + "]"


def test_writers_on_no_value_and_one_value():
    assert to_text(Partition()) == _joined(()) == ""
    assert to_text(Partition((7,))) == _joined((7,)) == "7"
    # no s-set or point is empty: s >= 2
    q = make_sset(2, [-1, 2])
    assert sset_to_text(q) == _sset_oracle(q.elements) == "[-1,2]"
    assert point_to_text(SPoint((2, -1))) == "(" + _joined((2, -1)) + ")" == "(2,-1)"
    assert abacus._core_text(range(5), 5) == ""


def test_writers_near_the_span_cap():
    """The s-set {r - s : r < s - 1} + {s - 1 + s(s - 1)} at s = 3161 spans
    s^2 + s - 1 = 9,995,081 positions, just under the cap: its core has s
    rows, the first of 9,988,760 boxes, past the cap of the shared part
    names, so the printout writes its int rows."""
    s = 3161
    q = make_sset(s, [r - s for r in range(s - 1)] + [s - 1 + s * (s - 1)])
    assert MAX_SPAN - 10**4 < max(q.elements) - min(q.elements) <= MAX_SPAN
    lam = core_from_s_set(q)
    assert len(lam.parts) == s and lam.parts[0] > abacus._PART_CAP
    assert to_text(lam) == _joined(lam.parts)
    assert abacus._core_text(q.elements, s) == _joined(lam.parts)
    assert sset_to_text(q) == _sset_oracle(q.elements)
    assert point_to_text(SPoint(tuple(q.elements))) == "(" + _joined(q.elements) + ")"


def test_a_ten_million_element_s_set_is_written_whole():
    """s = 10^7, each even class r at r + s and each odd one at r - s: the
    text, 79 MB, is compared a chunk of 10^5 elements at a time, so the
    oracle holds no str per element at once."""
    s = 10**7
    odd, even = range(1 - s, 0, 2), range(s, 2 * s - 1, 2)  # sorted, and summing to s(s - 1)/2
    text = abacus._sset_text(chain(even, odd))
    assert text[0] == "[" and text[-1] == "]"
    at = 1
    for elements in (odd, even):
        for k in range(0, len(elements), 10**5):
            piece = _joined(elements[k:k + 10**5])
            assert text[at:at + len(piece)] == piece, k
            at += len(piece) + 1  # the comma, or at the end the bracket
    assert at == len(text)


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.integers(1, 10**15), max_size=40))
def test_to_text_matches_the_oracle_on_drawn_partitions(parts):
    p = Partition(tuple(sorted(parts, reverse=True)))
    assert to_text(p) == _joined(p.parts) == str(p)


@settings(derandomize=True, max_examples=200)
@given(st.integers(2, 40).flatmap(lambda s: st.lists(st.integers(-10**6, 10**6), min_size=s - 1, max_size=s - 1)))
def test_sset_and_point_text_match_the_oracle_on_drawn_s_sets(c):
    """Runner multipliers c_r, the last one making them sum to 0: the s-set
    r + s c_r, negative elements included."""
    s = len(c) + 1
    elements = [r + s * c_r for r, c_r in enumerate(c + [-sum(c)])]
    q = make_sset(s, elements)
    assert sset_to_text(q) == _sset_oracle(elements) == str(q)
    assert point_to_text(SPoint(tuple(elements))) == "(" + _joined(elements) + ")"


@pytest.mark.parametrize("s", [2, 3, 5, 7, 11, 13, 29, 30, 64])
def test_core_text_on_both_sides_of_the_builders_rule(s):
    """At c s^2 - 1, c s^2 and c s^2 + 1 rows the core is laid out from
    sorted beads, then as row progressions; the text matches either way, and
    the position scan, which shares no code with the builder, agrees."""
    rng = random.Random(f"core-text-{s}")
    for n in (_PROGRESSION_ROWS * s * s + d for d in (-1, 0, 1)):
        q, lam = _core_with_rows(n, s, rng)
        assert len(lam.parts) == n
        expected = _joined(_position_scan_core(q.elements, s).parts)
        assert abacus._core_text(q.elements, s) == expected == to_text(lam), (s, n)


def _printout_oracle(text, s, t):
    """orbit-min's plain and --json output for the partition text, built from
    the replayed s-sets, their cores and the oracle joins."""
    lam = Partition(tuple(map(int, text.split(","))))
    nu, trace = orbits.descend_to_t_core(lam, s, t)
    steps = [(i, q, core_from_s_set(q)) for i, q in trace.iter_steps()]
    records = [
        {"step": n, "gen": i, "sset": _sset_oracle(q.elements), "core": _joined(core.parts)}
        for n, (i, q, core) in enumerate(steps, start=1)
    ]
    lines = [f"step {r['step']}: gen={r['gen']} sset={r['sset']} core={r['core']}" for r in records]
    plain = "\n".join(lines + [_joined(nu.parts)]) + "\n"
    payload = {"input": {"partition": text}, "result": {"t_core": _joined(nu.parts), "steps": records},
               "meta": {"s": s, "t": t}}
    return plain, json.dumps(payload) + "\n", [core for _, _, core in steps]


def test_descent_printout_on_both_sides_of_the_names_cap(monkeypatch):
    """A seeded 7-core descends at t = 9 in 131 steps, 59 of whose cores are
    laid out as row progressions and 72 from sorted beads.  With the cap
    moved to L - 1, L and L + 1, L the largest first row the printout holds,
    its cores come from the shared part names or, where a first row reaches
    the cap, from int rows: the output is the oracle's, and the names never
    pass the cap and hold str(i) at index i."""
    s, t = 7, 9
    q = make_sset(s, random_s_point(random.Random("names-cap"), s, 60).coords)
    text = _joined(core_from_s_set(q).parts)
    plain, as_json, cores = _printout_oracle(text, s, t)
    first_rows = [(core.parts or (0,))[0] for core in cores]
    top = max(first_rows)
    laid_out = [len(core.parts) >= _PROGRESSION_ROWS * s * s for core in cores]
    assert top > 256 and laid_out.count(True) > 50 and laid_out.count(False) > 50
    argv = ["orbit-min", "--s", str(s), "--t", str(t), text]
    for cap in (top - 1, top, top + 1):
        monkeypatch.setattr(abacus, "_PART_CAP", cap)
        for json_mode, expected in ((False, plain), (True, as_json)):
            monkeypatch.setattr(abacus, "_part_names", ["0"])
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli.main(argv + ["--json"] * json_mode) == 0
            assert out.getvalue() == expected, (cap, json_mode)
            names = abacus._part_names
            # below the cap every core's names are grown; at it, the largest core's are not
            assert len(names) == (top + 1 if top < cap else max(r for r in first_rows if r < cap) + 1)
            assert names == list(map(str, range(len(names))))
