"""The value types: frozen, compared and hashed by class and fields, printed
as ``Cls(field=value, ...)``, and checked once, where they are built."""

import copy
import pickle

import pytest

from stcores import errors
from stcores.abacus import BetaSet, SSet
from stcores.alcoves import AlcoveKey, Hyperplane, SPoint
from stcores.diagram import Alcove, RenderSpec
from stcores.orbits import ContainmentChain, OrbitDescentTrace
from stcores.partitions import Box, Partition, RimHook, partitions_up_to

ORIGIN = SSet(3, frozenset({0, 1, 2}))
VALUES = {
    "Partition(parts=(3, 1))": Partition((3, 1)),
    "RimHook(boxes=(Box(row=1, col=2), Box(row=1, col=1)))": RimHook((Box(1, 2), Box(1, 1))),
    "BetaSet(heads=(2, -1))": BetaSet((2, -1)),
    "SSet(s=3, elements=frozenset({0, 1, 2}))": ORIGIN,
    "SPoint(coords=(-1, 1, 3))": SPoint((-1, 1, 3)),
    "Hyperplane(i=1, j=3, k=-1)": Hyperplane(1, 3, -1),
    "AlcoveKey(s=3, floors=(0, 1, 0))": AlcoveKey(3, (0, 1, 0)),
    "OrbitDescentTrace(initial_sset=SSet(s=3, elements=frozenset({0, 1, 2})), t=4, gens=(1, 2))":
        OrbitDescentTrace(ORIGIN, 4, (1, 2)),
    "ContainmentChain(points=(SPoint(coords=(0, 1, 2)),), cores=(Partition(parts=()),), gens=())":
        ContainmentChain((SPoint((0, 1, 2)),), (Partition(),), ()),
    "RenderSpec(s=3, depth=5, mode='tcores', t=4)": RenderSpec(3, 5, "tcores", 4),
    "Alcove(a=1, b=0, up=False)": Alcove(1, 0, False),
}


@pytest.mark.parametrize("text", VALUES, ids=[text.partition("(")[0] for text in VALUES])
def test_value_type_contract(text):
    value = VALUES[text]
    cls = type(value)
    assert repr(value) == text
    fields = {name: getattr(value, name) for name in cls._fields}
    assert vars(value) == fields
    assert cls(**fields) == value and hash(cls(**fields)) == hash(value)
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert vars(value) == fields
    # another value class with the same fields and values is a different value
    other_cls = type("Other", (errors._Value,), {"__init__": cls.__init__, "__post_init__": lambda self: None})
    other = other_cls(**fields)
    assert other._fields == cls._fields and vars(other) == fields
    assert value != other and other != value
    assert value != tuple(fields.values())


def test_partitions_sort_like_their_parts():
    ps = list(partitions_up_to(6))
    assert len(ps) == 30
    for a in ps:
        for b in ps:
            assert ((a < b), (a <= b), (a > b), (a >= b), (a == b)) == (
                (a.parts < b.parts), (a.parts <= b.parts), (a.parts > b.parts), (a.parts >= b.parts),
                (a.parts == b.parts),
            )
    assert [p.parts for p in sorted(ps)] == sorted(p.parts for p in ps)
    with pytest.raises(TypeError):
        Partition((1,)) < (2,)


@pytest.mark.parametrize("cls, fields", [
    (Partition, {"parts": (2, 1)}),
    (SSet, {"s": 3, "elements": frozenset({0, 1, 2})}),
    (SPoint, {"coords": (0, 1, 2)}),
], ids=["Partition", "SSet", "SPoint"])
def test_a_patched_check_runs_on_construction_and_not_on_trusted_builds(cls, fields, monkeypatch):
    """A class-level patch of __post_init__, as a build counter installs it,
    sees every checked construction and no ``_trusted`` one."""
    seen = []
    original = cls.__dict__["__post_init__"]

    def counting(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    built = cls(**fields)
    assert seen == [built]
    assert errors._trusted(cls, **fields) == built
    assert seen == [built]
