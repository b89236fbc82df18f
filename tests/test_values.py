"""The value types: frozen, compared and hashed by class and fields, printed
as ``Cls(field=value, ...)``, and checked once, where they are built."""

import copy
import importlib
import pathlib
import pickle
import pkgutil

import pytest

import stcores
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
    # the fields are the whole state: slots named by _fields, and no dict
    assert not hasattr(value, "__dict__") and cls.__slots__ == cls._fields
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
    assert not hasattr(value, "__dict__")
    assert {name: getattr(value, name) for name in cls._fields} == fields
    # another value class with the same fields and values is a different value
    other_cls = type("Other", (errors._Value,), {
        "__slots__": cls._fields, "__init__": cls.__init__, "__post_init__": lambda self: None,
    })
    other = other_cls(**fields)
    assert other._fields == cls._fields and not hasattr(other, "__dict__")
    assert {name: getattr(other, name) for name in other._fields} == fields
    assert value != other and other != value
    assert value != tuple(fields.values())


def test_every_value_class_is_slotted_and_covered():
    """Every value class in the package, diagram's included, keeps exactly
    its fields in slots, and each has a case in the contract test above."""
    for info in pkgutil.iter_modules(stcores.__path__):
        if info.name != "__main__":  # which runs the CLI
            importlib.import_module(f"stcores.{info.name}")
    classes, pending = set(), [errors._Value]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls.__module__.startswith("stcores."):
                classes.add(cls)
                pending.append(cls)
    for cls in classes:
        assert cls.__slots__ == cls._fields, cls
    assert classes == {type(value) for value in VALUES.values()}


def test_unpickling_runs_the_check():
    """A pickle rebuilds a value through its checked constructor, so one
    whose arguments were tampered with is refused on load."""
    class Tampered:
        def __reduce__(self):
            return Partition, ((2, 3),)

    assert Partition((3, 2)).__reduce__() == (Partition, ((3, 2),))
    data = pickle.dumps(Tampered())
    with pytest.raises(errors.DomainError, match="weakly decreasing"):
        pickle.loads(data)


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
    sees every checked construction and no ``_trusted`` or ``_trusted_many``
    one."""
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
    if len(fields) == 1:  # _trusted_many builds values of one field
        (value,) = fields.values()
        many = errors._trusted_many(cls, [value, value])
        assert many == [built, built] and {type(twin) for twin in many} == {cls}
        assert errors._trusted_many(cls, []) == []
        assert seen == [built]
    else:
        with pytest.raises(ValueError):
            errors._trusted_many(cls, [tuple(fields.values())])


def test_values_are_built_unchecked_in_errors_alone():
    """No module but errors builds an object past its constructor, and the
    fields of a value class are read from its own slots, not its code."""
    for path in pathlib.Path(stcores.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "__code__" not in text, path.name
        if path.name != "errors.py":
            assert "object.__new__" not in text and "object.__setattr__" not in text, path.name
    with pytest.raises(KeyError, match="__slots__"):
        type("Unslotted", (errors._Value,), {"__init__": Partition.__init__})
