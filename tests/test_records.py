"""The value-record contract of the result and weight classes.

Every record compares and hashes by its fields, refuses assignment and
deletion, takes its fields by position or by keyword (trailing ones with
defaults), pickles, and reprs as ``Name(field=value, ...)``. The weight
classes keep their parameter checks, messages included.
"""

import pickle
import re
from fractions import Fraction

import pytest

from dwturan import (
    ChainReport,
    CounterexampleSpec,
    FieldElement,
    FiniteField,
    GapReport,
    MajorizerResult,
    ObjectiveValue,
    PartitionOptimum,
    PartSizes,
    RatioRow,
    ScaleLimitError,
    SearchResult,
    StaircaseWeight,
    StepWeight,
    complete_graph,
    cycle_graph,
    parse_weight,
)
from dwturan.weights import HalfWeight, LogWeight, PowerWeight

_V = ObjectiveValue.of
_F = PowerWeight(2)
_GF9 = FiniteField(3, 2)

# class, its field names in constructor order, and two value lists that
# differ in their first field
RECORDS = [
    (PowerWeight, ["mu"], [2], [3]),
    (HalfWeight, [], [], None),
    (LogWeight, ["floor_at_zero"], [-1.0], [-2.0]),
    (StepWeight, ["jumps", "levels"], [(0, 5), (Fraction(1), Fraction(3))],
     [(0, 6), (Fraction(1), Fraction(3))]),
    (StaircaseWeight, ["c", "seeds", "base"], [0.5, (9,), Fraction(1)],
     [0.6, (9,), Fraction(1)]),
    (ObjectiveValue, ["approx", "exact"], [1.0, Fraction(1)], [2.0, Fraction(2)]),
    (PartSizes, ["sizes"], [(3, 1)], [(4, 1)]),
    (PartitionOptimum, ["value", "witness", "n", "k", "f", "ties_flag"],
     [_V(84), PartSizes([3, 1]), 4, 2, _F, True],
     [_V(85), PartSizes([3, 1]), 4, 2, _F, True]),
    (SearchResult, ["value", "witness", "nodes_explored", "n", "forbidden", "f"],
     [_V(4), cycle_graph(4), 17, 4, complete_graph(3), _F],
     [_V(5), cycle_graph(4), 17, 4, complete_graph(3), _F]),
    (RatioRow, ["n", "ex_value", "ex_prime_value", "ratio"],
     [5, _V(24), _V(24), 1.0], [6, _V(24), _V(24), 1.0]),
    (MajorizerResult, ["classes", "graph"], [((0, 2), (1, 3)), cycle_graph(4)],
     [((0, 1), (2, 3)), cycle_graph(4)]),
    (ChainReport, ["value_graph", "value_majorized", "value_optimum", "holds_first",
                   "holds_second"],
     [_V(16), _V(16), _V(16), True, True], [_V(15), _V(16), _V(16), True, True]),
    (FieldElement, ["field", "coeffs"], [_GF9, (1, 2)], [FiniteField(3, 1), (1,)]),
    (CounterexampleSpec, ["q", "t", "s", "f"], [3, 2, 3, _F], [5, 2, 3, _F]),
    (GapReport, ["side_size", "construction_value", "bipartite_bound", "exceeds"],
     [9, _V(10), _V(9), True], [8, _V(10), _V(9), True]),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction(self, cls, names, values, other):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        for name, value in zip(names, values):
            assert getattr(by_position, name) == value
            assert getattr(by_keyword, name) == value
        assert by_position == by_keyword

    def test_equality_and_hash_by_value(self, cls, names, values, other):
        a, b = cls(*values), cls(*values)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        if other is not None:
            assert cls(*other) != a
        assert a != "not a record"

    def test_fields_are_read_only(self, cls, names, values, other):
        record = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == values[names.index(name)]
        with pytest.raises(AttributeError):
            record.unlisted = 1

    def test_pickles_by_value(self, cls, names, values, other):
        record = cls(*values)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is cls


@pytest.mark.parametrize("cls, names, values", [
    (cls, names, values) for cls, names, values, _other in RECORDS
    if cls not in (ObjectiveValue, FieldElement)  # these keep their own repr
], ids=[name for name in IDS if name not in ("ObjectiveValue", "FieldElement")])
def test_repr_lists_the_fields(cls, names, values):
    record = cls(*values)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({shown})"


class TestDefaults:
    def test_objective_value_exact(self):
        assert ObjectiveValue(1.0).exact is None
        assert ObjectiveValue(approx=1.0).exact is None

    def test_log_floor_and_staircase_base(self):
        assert LogWeight().floor_at_zero == 0.0
        assert StaircaseWeight(0.5, [9]).base == 1

    def test_missing_or_unknown_argument(self):
        with pytest.raises(TypeError):
            RatioRow(5, _V(24), _V(24))
        with pytest.raises(TypeError, match="ties_flag"):
            PartitionOptimum(_V(84), PartSizes([3, 1]), 4, 2, _F)
        with pytest.raises(TypeError):
            RatioRow(5, _V(24), _V(24), 1.0, nope=1)
        with pytest.raises(TypeError):
            RatioRow(5, _V(24), _V(24), 1.0, n=6)


class TestOwnMethods:
    def test_objective_value_compares_exact_first(self):
        assert ObjectiveValue(1.0, Fraction(1)) == ObjectiveValue(1.0000000000000002,
                                                                  Fraction(1))
        assert hash(ObjectiveValue(1.0, Fraction(1))) == hash(ObjectiveValue.approximate(1.0))
        assert repr(_V(Fraction(7, 2))) == "ObjectiveValue(7/2)"
        assert repr(ObjectiveValue.approximate(0.5)) == "ObjectiveValue(~0.5)"

    def test_field_element(self):
        a = _GF9.from_index(5)
        assert a == FieldElement(FiniteField(3, 2), (2, 1))
        assert hash(a) == hash(FieldElement(_GF9, (2, 1)))
        assert a != FieldElement(_GF9, (2, 2))
        assert repr(a) == "FieldElement(2, 1)"

    def test_staircase_repr_hides_windows(self):
        f = parse_weight("staircase:c=0.5,seeds=9;200,base=1")
        assert "_windows" not in repr(f)
        assert repr(f) == "StaircaseWeight(c=0.5, seeds=(9, 200), base=Fraction(1, 1))"
        assert f.value(13) == 2


@pytest.mark.parametrize("text", [
    "pow:mu=2", "pow:mu=2.5", "half", "log:floor=0", "log:floor=-1.5",
    "staircase:c=0.5,seeds=9;200;5000,base=1", "step:0:1;5:3",
])
def test_parsed_weights_equal_and_hash_alike(text):
    a, b = parse_weight(text), parse_weight(text)
    assert a is not b
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("build, kind, message", [
    (lambda: PowerWeight(-1), ValueError,
     "pow parameter mu must be finite and non-negative, got -1"),
    (lambda: PowerWeight(float("nan")), ValueError,
     "pow parameter mu must be finite and non-negative, got nan"),
    (lambda: PowerWeight(float("inf")), ValueError,
     "pow parameter mu must be finite and non-negative, got inf"),
    (lambda: PowerWeight(1000.5), ScaleLimitError, "pow parameter mu=1000.5 above limit 1000"),
    (lambda: LogWeight(float("nan")), ValueError, "log parameter floor must be finite, got nan"),
    (lambda: LogWeight(0.5), ValueError,
     "value at 0 must be <= 0 to keep the family non-decreasing"),
    (lambda: StaircaseWeight(1.0, [9]), ValueError, "exponent c must lie in (0, 1)"),
    (lambda: StaircaseWeight(0.5, [9], base=0), ValueError, "base value must be positive"),
    (lambda: StaircaseWeight(0.5, []), ValueError, "need at least one seed"),
    (lambda: StaircaseWeight(0.5, [2]), ValueError,
     "seed 2 too small: its window would be empty"),
    (lambda: StaircaseWeight(0.5, [9, 16]), ValueError,
     "seeds 9 and 16 too close: need 2*9 < 16"),
    # n**c of a negative seed is complex, and int() would truncate 100.7
    (lambda: StaircaseWeight(0.5, [-4]), ValueError, "seed -4 is not a positive integer"),
    (lambda: StaircaseWeight(0.5, [100.7]), ValueError, "seed 100.7 is not a positive integer"),
    (lambda: StepWeight([0, 5], [1]), ValueError,
     "need matching, non-empty jump and level sequences"),
    (lambda: StepWeight([], []), ValueError,
     "need matching, non-empty jump and level sequences"),
    (lambda: StepWeight([1, 5], [1, 2]), ValueError,
     "first jump must be 0 so the table covers all inputs"),
    (lambda: StepWeight([0, 5, 5], [1, 2, 3]), ValueError, "jumps must strictly increase"),
])
def test_weight_parameter_messages(build, kind, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is kind
