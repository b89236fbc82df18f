import random

import pytest
from hypothesis import given, strategies as st

from stcores import DomainError
from stcores.partitions import (
    Box,
    Partition,
    RimHook,
    addable_boxes,
    boxes_of_residue,
    brute_core,
    conjugate,
    contains,
    from_text,
    hook_lengths,
    is_s_core_by_hooks,
    partitions_up_to,
    removable_boxes,
    remove_rim_hook,
    removable_rim_hooks,
    rim,
    size,
    to_text,
    toggle_residue,
)

partition_parts = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def P(*parts):
    return Partition(parts)


def test_construction_rejects_bad_parts():
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((2, 0))
    with pytest.raises(DomainError):
        Partition((2**62,))


def test_text_round_trip():
    assert from_text("") == P()
    assert from_text("6,6,2,1") == P(6, 6, 2, 1)
    assert to_text(P(6, 6, 2, 1)) == "6,6,2,1"
    assert to_text(P()) == ""
    with pytest.raises(DomainError):
        from_text("1,2")
    with pytest.raises(DomainError):
        from_text("a,b")


def test_size_examples():
    assert size(P(6, 6, 2, 1)) == 15
    assert size(P()) == 0
    # Kane's formula value for the largest (3,4)-core
    assert size(P(3, 1, 1)) == (3**2 - 1) * (4**2 - 1) // 24 == 5


def test_contains_examples():
    assert contains(P(3, 1, 1), P(1, 1))
    assert not contains(P(1, 1), P(2))
    assert contains(P(3, 1, 1), P())


def test_hook_lengths_examples():
    assert hook_lengths(P(3, 1, 1))[Box(1, 1)] == 5
    assert hook_lengths(P(1)) == {Box(1, 1): 1}
    assert sorted(hook_lengths(P(2)).values()) == [1, 2]


def test_is_s_core_by_hooks_examples():
    assert is_s_core_by_hooks(P(5, 2, 2, 1), 5)
    assert not is_s_core_by_hooks(P(6, 6, 2, 1), 5)
    for s in (1, 2, 3, 7):
        assert is_s_core_by_hooks(P(), s)


def test_rim_examples():
    assert rim(P(1)) == {Box(1, 1)}
    assert rim(P(2, 2)) == {Box(1, 2), Box(2, 1), Box(2, 2)}
    assert rim(P()) == set()


def test_removable_rim_hooks_examples():
    marked = (Box(1, 6), Box(2, 6), Box(2, 5), Box(2, 4), Box(2, 3))
    hooks = removable_rim_hooks(P(6, 6, 2, 1), 5)
    assert any(set(h.boxes) == set(marked) for h in hooks)
    assert removable_rim_hooks(P(5, 2, 2, 1), 5) == []
    assert removable_rim_hooks(P(), 3) == []


def test_remove_rim_hook_examples():
    p = P(6, 6, 2, 1)
    hook = next(
        h for h in removable_rim_hooks(p, 5)
        if set(h.boxes) == {Box(1, 6), Box(2, 6), Box(2, 5), Box(2, 4), Box(2, 3)}
    )
    assert remove_rim_hook(p, hook) == P(5, 2, 2, 1)

    (one_hook,) = removable_rim_hooks(P(1), 1)
    assert remove_rim_hook(P(1), one_hook) == P()

    # (2,2) is a 4-core (hooks 3,2,2,1): no rim 4-hook, nothing to remove
    assert removable_rim_hooks(P(2, 2), 4) == []
    (four_hook,) = removable_rim_hooks(P(2, 1, 1), 4)
    assert len(four_hook) == 4
    assert remove_rim_hook(P(2, 1, 1), four_hook) == P()

    with pytest.raises(DomainError):
        remove_rim_hook(P(3), four_hook)
    # boxes of (2,2) that fit it, but not as a hook: a diagonal jump, and a whole top row
    with pytest.raises(DomainError, match="hook boxes are not consecutive along the rim"):
        remove_rim_hook(P(2, 2), RimHook((Box(1, 2), Box(2, 1))))
    with pytest.raises(DomainError, match="removing the hook does not leave a Young diagram"):
        remove_rim_hook(P(2, 2), RimHook((Box(1, 2), Box(1, 1))))


def test_brute_core_examples():
    assert brute_core(P(6, 6, 2, 1), 5) == P(5, 2, 2, 1)
    assert brute_core(P(4, 2, 1, 1), 4) == P()
    for p in (P(5, 3, 3, 1), P(7), P(2, 2, 2)):
        assert brute_core(p, 1) == P()


def test_boxes_of_residue_examples():
    assert boxes_of_residue(P(), 0, 3, "addable") == {Box(1, 1)}
    assert boxes_of_residue(P(), 1, 3, "addable") == set()
    # the removable boxes of (3,1,1) are (1,3) and (3,1), of residues 2 and 1
    assert boxes_of_residue(P(3, 1, 1), 2, 3, "removable") == {Box(1, 3)}
    assert boxes_of_residue(P(3, 1, 1), 1, 3, "removable") == {Box(3, 1)}
    with pytest.raises(DomainError):
        boxes_of_residue(P(1), 0, 3, "sideways")


def test_toggle_residue_examples():
    assert toggle_residue(P(), 0, 3) == P(1)
    assert toggle_residue(P(1), 0, 3) == P()
    assert toggle_residue(P(), 2, 3) == P()
    with pytest.raises(DomainError):
        toggle_residue(P(2, 1), 0, 3)  # (2,1) has a rim 3-hook


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
def test_hook_criterion_matches_hook_existence(s):
    for p in partitions_up_to(12):
        assert is_s_core_by_hooks(p, s) == (not removable_rim_hooks(p, s))


@pytest.mark.parametrize("s", [2, 3, 5])
def test_brute_core_idempotent(s):
    for p in partitions_up_to(10):
        once = brute_core(p, s)
        assert brute_core(once, s) == once


def test_core_is_order_independent():
    rng = random.Random(7)
    for p in partitions_up_to(12):
        for s in (2, 3, 4):
            expected = brute_core(p, s)
            q = p
            while True:
                hooks = removable_rim_hooks(q, s)
                if not hooks:
                    break
                q = remove_rim_hook(q, rng.choice(hooks))
            assert q == expected


def test_toggle_residue_is_involution_when_it_moves():
    for p in partitions_up_to(14):
        for s in (2, 3, 4):
            if not is_s_core_by_hooks(p, s):
                continue
            for k in range(s):
                addable = boxes_of_residue(p, k, s, "addable")
                removable = boxes_of_residue(p, k, s, "removable")
                assert not (addable and removable)  # never both, on an s-core
                q = toggle_residue(p, k, s)
                assert is_s_core_by_hooks(q, s)
                if addable or removable:
                    assert q != p
                    assert toggle_residue(q, k, s) == p
                else:
                    assert q == p


@given(partition_parts)
def test_rim_matches_definition(p):
    box_set = set()
    for i, part in enumerate(p.parts, start=1):
        box_set.update((i, j) for j in range(1, part + 1))
    expected = {Box(i, j) for (i, j) in box_set if (i + 1, j + 1) not in box_set}
    assert rim(p) == expected


@given(partition_parts, st.integers(1, 6))
def test_removing_any_hook_preserves_the_core(p, s):
    expected = brute_core(p, s)
    for hook in removable_rim_hooks(p, s):
        assert brute_core(remove_rim_hook(p, hook), s) == expected


def _row(p, i):
    """Oracle: the i-th part, 1-based, reading 0 beyond the last row."""
    return p.parts[i - 1] if 1 <= i <= len(p.parts) else 0


def _contains_by_rows(outer, inner):
    return all(_row(inner, i) <= _row(outer, i) for i in range(1, len(inner) + 1))


def _conjugate_by_rows(p):
    return Partition(tuple(sum(1 for part in p.parts if part >= j) for j in range(1, _row(p, 1) + 1)))


def _rim_by_rows(p):
    return {Box(i, j) for i in range(1, len(p) + 1) for j in range(max(1, _row(p, i + 1)), _row(p, i) + 1)}


def _addable_by_rows(p):
    return [Box(i, _row(p, i) + 1) for i in range(1, len(p) + 2) if i == 1 or _row(p, i - 1) > _row(p, i)]


def _removable_by_rows(p):
    return [Box(i, _row(p, i)) for i in range(1, len(p) + 1) if _row(p, i + 1) < _row(p, i)]


def test_row_reads_equal_the_row_wise_definitions():
    """Every partition of size at most 8, and contains on every pair of them,
    against the definitions written through a 1-based row accessor that reads
    0 past the last row."""
    small = list(partitions_up_to(8))
    assert len(small) == 67
    for p in small:
        assert conjugate(p) == _conjugate_by_rows(p), p
        assert rim(p) == _rim_by_rows(p), p
        assert addable_boxes(p) == _addable_by_rows(p), p
        assert removable_boxes(p) == _removable_by_rows(p), p
    pairs = [(outer, inner) for outer in small for inner in small]
    assert len(pairs) == 4489
    for outer, inner in pairs:
        assert contains(outer, inner) == _contains_by_rows(outer, inner), (outer, inner)


def test_conjugate_is_one_pass_over_the_rows():
    """Seeded partitions of up to 300 rows and parts against the count per
    column, and the hook (m, 1^m) at m = 10^5, whose count per column reads
    10^10 parts: conjugation is an involution that swaps rows and columns."""
    rng = random.Random("conjugate")
    for _ in range(200):
        p = Partition(tuple(sorted((rng.randint(1, 300) for _ in range(rng.randint(0, 300))), reverse=True)))
        assert conjugate(p) == _conjugate_by_rows(p), p
        assert conjugate(conjugate(p)) == p
    m = 10**5
    hook = Partition((m,) + (1,) * m)
    assert conjugate(hook) == Partition((m + 1,) + (1,) * (m - 1))


def test_a_partition_is_read_through_its_parts_alone():
    assert not hasattr(Partition, "row")
    assert list(P(3, 1)) == [3, 1] and len(P(3, 1)) == 2
