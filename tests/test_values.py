"""The value and cell classes: guarded constructors and the frozen, slotted contract,
plus the rejection branches that the other test modules do not reach."""

import copy
import dataclasses
import importlib
import math
import os
import pickle
import pkgutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softchoice
from softchoice._checks import Frozen, checked_real
from softchoice.engine import (
    BinCell,
    DecisionReport,
    DecisionTable,
    GradeCell,
    GreyCell,
    Method,
    NeutroCell,
    decide,
)
from softchoice.grades import GradeScale, ScaleValidationError, default_scale
from softchoice.grey import GreyNumber
from softchoice.neutrosophic import Triplet, TripletAccumulator, classify_information

MAX = sys.float_info.max


class _OwnFloat(float):
    pass


# Every kind of input the constructors treat differently: exact floats at and
# beyond each bound, ints (also beyond the float range), bools and a float subclass.
_reals = st.one_of(
    st.floats(),
    st.sampled_from((
        -0.0, 0.0, 5e-324, 1.0, MAX, -MAX, math.inf, -math.inf, math.nan,
        math.nextafter(1.0, math.inf), math.nextafter(0.0, -math.inf),
    )),
    st.integers(min_value=-2, max_value=3),
    st.sampled_from((10**400, -(10**400), 2**1024)),
    st.booleans(),
    st.floats().map(_OwnFloat),
)


def _oracle(cls, values):
    """The fields each constructor kept before its early exit: checked_real on every value."""
    if cls is GreyNumber:
        lower = checked_real(values[0], "lower endpoint")
        upper = checked_real(values[1], "upper endpoint")
        if lower > upper:
            raise ValueError(f"invalid interval: lower {lower!r} > upper {upper!r}")
        return lower, upper
    return tuple(
        checked_real(value, label, low=0.0, high=cls._high)
        for value, label in zip(values, cls._labels)
    )


def _outcome(build):
    """(exact types and bits of the fields) or (exception type and message)."""
    try:
        fields = build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return tuple((type(value), struct.pack("<d", value)) for value in fields)


@settings(max_examples=600, deadline=None)
@given(
    st.sampled_from((GreyNumber, Triplet, TripletAccumulator)),
    st.lists(_reals, min_size=3, max_size=3),
)
def test_constructors_keep_or_reject_exactly_what_checked_real_does(cls, values):
    values = values[:2] if cls is GreyNumber else values
    built = _outcome(lambda: dataclasses.astuple(cls(*values)))
    assert built == _outcome(lambda: _oracle(cls, values))


_EXAMPLES = (
    BinCell(1),
    GradeCell("good_2"),
    GreyCell(GreyNumber(0.25, 0.5)),
    NeutroCell(Triplet(0.5, 0.25, 0.125)),
    GreyNumber(-1.5, 2.0),
    pytest.param(TripletAccumulator(0.1, 2.0, 3.0), id="accumulator-above-one"),
    Triplet(0.1, 0.2, 0.3),
    TripletAccumulator(1.5, 0.0, 7.25),
    DecisionTable(("P1", "P2"), ("e1",), ((BinCell(1),), (GreyCell(GreyNumber(0.25, 0.5)),))),
    default_scale(),
    DecisionReport(Method.GREY, {"P1": 1.375}, ("P1",)),
)


# Each example's twin, an equal value built apart, with the repr that a generated frozen
# dataclass ``__repr__`` gave it.
_SHOWN = (
    (BinCell(1), "BinCell(value=1)"),
    (GradeCell("good_2"), "GradeCell(label='good_2')"),
    (GreyCell(GreyNumber(0.25, 0.5)), "GreyCell(interval=GreyNumber(lower=0.25, upper=0.5))"),
    (NeutroCell(Triplet(0.5, 0.25, 0.125)),
     "NeutroCell(triplet=Triplet(truth=0.5, indeterminacy=0.25, falsity=0.125))"),
    (GreyNumber(-1.5, 2.0), "GreyNumber(lower=-1.5, upper=2.0)"),
    (TripletAccumulator(0.1, 2.0, 3.0), "TripletAccumulator(truth=0.1, indeterminacy=2.0, falsity=3.0)"),
    (Triplet(0.1, 0.2, 0.3), "Triplet(truth=0.1, indeterminacy=0.2, falsity=0.3)"),
    (TripletAccumulator(1.5, 0.0, 7.25), "TripletAccumulator(truth=1.5, indeterminacy=0.0, falsity=7.25)"),
    (DecisionTable(("P1", "P2"), ("e1",), ((BinCell(1),), (GreyCell(GreyNumber(0.25, 0.5)),))),
     "DecisionTable(candidates=('P1', 'P2'), parameters=('e1',), "
     "cells=((BinCell(value=1),), (GreyCell(interval=GreyNumber(lower=0.25, upper=0.5)),)))"),
    (default_scale(),
     "GradeScale(entries=(('A', GreyNumber(lower=0.85, upper=1.0)), "
     "('B', GreyNumber(lower=0.75, upper=0.84)), ('C', GreyNumber(lower=0.6, upper=0.74)), "
     "('D', GreyNumber(lower=0.5, upper=0.59)), ('F', GreyNumber(lower=0.0, upper=0.49))))"),
    (DecisionReport(Method.GREY, {"P1": 1.375}, ("P1",)),
     "DecisionReport(method=<Method.GREY: 'grey'>, scores={'P1': 1.375}, winners=('P1',), "
     "criterion=None, risk_notes={}, notes=())"),
)


@pytest.mark.parametrize("value", _EXAMPLES, ids=lambda value: type(value).__name__)
class TestFrozenSlottedContract:
    def test_repr_hash_and_equality_are_the_generated_ones(self, value):
        """As a frozen dataclass generated them: over the fields, equal within one class only."""
        twin, shown = next((twin, shown) for twin, shown in _SHOWN if twin == value)
        assert repr(value) == shown
        names = [field.name for field in dataclasses.fields(value)]
        mine, theirs = ([getattr(each, name) for name in names] for each in (value, twin))
        try:
            expected = hash(tuple(mine))
        except TypeError:  # a report holds dicts, so it is unhashable as before
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(twin) == expected
        # No two values share a dict, not even a report's default risk notes.
        assert not any(one is other for one, other in zip(mine, theirs) if isinstance(one, dict))
        if type(value) is Triplet:
            accumulator = TripletAccumulator(*dataclasses.astuple(value))
            assert accumulator != value and value != accumulator

    def test_pickle_copy_and_replace_round_trip(self, value):
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)]
        copies += [copy.replace(value)] if hasattr(copy, "replace") else []  # Python 3.13 on
        for other in copies:
            assert type(other) is type(value) and other == value

    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    def test_fields_cannot_be_assigned(self, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, 0)

    def test_new_names_are_refused_with_an_attribute_error(self, value):
        with pytest.raises(AttributeError):
            value.extra = 0
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 0)


def test_no_class_holds_a_generated_dataclass_method():
    """Every frozen class is a dataclass whose fields are its ``__match_args__``, which drive
    ==, hash, repr and pickle, and no class holds code that ``dataclasses`` generated."""
    package = Path(softchoice.__file__).resolve().parent
    classes = {
        value
        for module in pkgutil.iter_modules(softchoice.__path__)
        for value in vars(importlib.import_module(f"softchoice.{module.name}")).values()
        if isinstance(value, type) and issubclass(value, Frozen) and value is not Frozen
    }
    assert {"DecisionTable", "DecisionReport", "GradeScale", "SoftSet"} <= {cls.__name__ for cls in classes}
    for cls in classes:
        assert tuple(field.name for field in dataclasses.fields(cls)) == cls.__match_args__, cls
        for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
            assert Path(getattr(cls, name).__code__.co_filename).resolve().parent == package, (cls, name)


def test_dataclass_fields_are_made_on_first_use():
    """``import softchoice.cli`` loads neither ``dataclasses`` nor the ``inspect`` it imports.

    The child runs with ``-S``, so that no ``.pth`` file can load either first. The first
    read of the fields makes a dataclass of the class that names them, never of ``Frozen``;
    ``copy.replace`` (from Python 3.13) or ``dataclasses.replace`` works before any such read.
    """
    probe = (
        "import sys\n"
        "import softchoice.cli\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        "import dataclasses\n"
        "from softchoice._checks import Frozen\n"
        "from softchoice.neutrosophic import Triplet, TripletAccumulator\n"
        "print(*(field.name for field in dataclasses.fields(Triplet)))\n"
        "print(*(('__dataclass_fields__' in vars(cls)) for cls in (TripletAccumulator, Triplet)))\n"
        "print(dataclasses.is_dataclass(Frozen))\n"
        "import copy\n"
        "from softchoice.grey import GreyNumber\n"
        "print(getattr(copy, 'replace', dataclasses.replace)(GreyNumber(0.0, 1.0), upper=2.0))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(softchoice.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        "False False", "truth indeterminacy falsity", "True False", "False", "[0.0;2.0]",
    ]


# Guards that no other test reaches, with the exception and message each raises.
_UNORDERED_SCALE = GradeScale((("A", GreyNumber(0.5, 1.0)), ("B", GreyNumber(0.6, 0.9))))
_REJECTED = [
    pytest.param(lambda: BinCell(2), ValueError, "binary cells hold 0 or 1, got 2", id="bin-2"),
    pytest.param(lambda: BinCell(True), ValueError, "binary cells hold 0 or 1, got True", id="bin-bool"),
    pytest.param(lambda: GradeCell(""), ValueError, "grade cells hold a non-empty label, got ''",
                 id="grade-empty"),
    pytest.param(lambda: GradeCell(5), ValueError, "grade cells hold a non-empty label, got 5",
                 id="grade-int"),
    pytest.param(lambda: GreyCell((0.1, 0.2)), TypeError, "grey cells hold a GreyNumber, got tuple",
                 id="grey-tuple"),
    pytest.param(lambda: NeutroCell((1, 0, 0)), TypeError,
                 "neutrosophic cells hold a Triplet, got tuple", id="neutro-tuple"),
    pytest.param(
        lambda: decide(DecisionTable(("c",), ("e1",), ((BinCell(1),),)), "grey", scale=_UNORDERED_SCALE),
        ScaleValidationError,
        "invalid grade scale: grades 'A' and 'B' are not in strictly descending order of lower "
        "endpoint; grades 'A' and 'B' overlap",
        id="decide-invalid-scale",
    ),
    pytest.param(lambda: GradeScale((("A",),)), ValueError,
                 "scale entries are (label, interval) pairs, got ('A',)", id="scale-entry-shape"),
    pytest.param(lambda: DecisionTable((1,), ("e1",), ((BinCell(1),),)), ValueError,
                 "candidate identifiers must be non-empty strings, got 1", id="table-id"),
    pytest.param(lambda: classify_information((1, 0, 0)), TypeError,
                 "expected a Triplet, got tuple", id="classify-tuple"),
    pytest.param(lambda: Triplet(1, 0, 0) + 1, TypeError,
                 "unsupported operand type(s) for +: 'Triplet' and 'int'", id="triplet-plus-int"),
    pytest.param(lambda: softchoice.nope, AttributeError,
                 "module 'softchoice' has no attribute 'nope'", id="package-attribute"),
]


@pytest.mark.parametrize("build, error, message", _REJECTED)
def test_rejected_input_raises_its_message(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message
