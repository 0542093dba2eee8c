from fractions import Fraction as F

import pytest

from compspec.intervals import Interval
from compspec.record import Record, replace
from compspec.rootwork import AllFixed, FixedPointRecord
from compspec.symbols import Limit, NoFixedPoints
from compspec.taxonomy import (AllPlane, CoverPiece, DimFinite, DimZero, EigenDim,
                               Powers, PuncturedPlane)


class TestRepr:
    # The dataclass format, as printed before records had their own base.
    @pytest.mark.parametrize("record,text", [
        (Limit("unknown"), "Limit(kind='unknown', value=None, approx=None)"),
        (EigenDim(Powers(F(1, 2)), DimFinite(1)),
         "EigenDim(members=Powers(ratio=Fraction(1, 2), include_zero=False), "
         "dim=DimFinite(k=1))"),
        (FixedPointRecord(F(0), F(1, 2), "attracting"),
         "FixedPointRecord(location=Fraction(0, 1), multiplier=Fraction(1, 2), "
         "kind='attracting', multiplicity=1, exact=True)"),
        (DimFinite(k=1), "DimFinite(k=1)"),
        (DimZero(), "DimZero()"),
        (AllFixed(), "AllFixed()"),
        (NoFixedPoints(), "NoFixedPoints()"),
    ])
    def test_recorded(self, record, text):
        assert repr(record) == text


class TestEquality:
    def test_other_class_is_unequal(self):
        assert AllPlane() != PuncturedPlane()
        assert AllPlane().__eq__(PuncturedPlane()) is NotImplemented
        assert DimFinite(1) != (1,)

    def test_equal_records_hash_equal(self):
        a = FixedPointRecord(location=F(1, 3), multiplier=F(2), kind="repelling")
        b = FixedPointRecord(F(1, 3), F(2), "repelling", 1, True)
        assert a == b and hash(a) == hash(b)
        assert a != replace(a, multiplicity=2)
        assert len({EigenDim(Powers(F(1, 2)), DimFinite(1)),
                    EigenDim(Powers(F(1, 2)), DimFinite(1))}) == 1

    def test_hash_is_over_the_field_values(self):
        assert hash(DimFinite(3)) == hash((3,))
        assert hash(DimZero()) == hash(())


class TestImmutable:
    def test_assignment_raises(self):
        record = DimFinite(1)
        with pytest.raises(AttributeError):
            record.k = 2
        with pytest.raises(AttributeError):
            record.extra = 2
        with pytest.raises(AttributeError):
            del record.k
        assert record == DimFinite(1)

    def test_replace_returns_a_changed_copy(self):
        limit = Limit("finite", F(1))
        changed = replace(limit, approx=F(1, 2))
        assert changed == Limit("finite", F(1), F(1, 2))
        assert limit == Limit("finite", F(1))
        with pytest.raises(TypeError):
            replace(limit, nonsense=1)


class TestConstruction:
    def test_post_init_still_runs(self):
        with pytest.raises(ValueError):
            Powers(0)
        with pytest.raises(ValueError):
            CoverPiece((Interval(F(0), F(1)), Interval(F(2), F(3))))
        piece = CoverPiece((Interval(F(0), F(1)),))
        assert piece.determining == Interval(F(0), F(1))

    def test_arguments_are_checked(self):
        with pytest.raises(TypeError):
            DimFinite()
        with pytest.raises(TypeError):
            DimFinite(1, 2)
        with pytest.raises(TypeError):
            DimFinite(1, k=1)
        with pytest.raises(TypeError):
            DimFinite(j=1)

    def test_fields_come_from_annotations(self):
        class Point(Record):
            x: int
            y: int = 0
            label = "point"  # not annotated: a class constant

        class Tagged(Point):
            tag: str = ""

        assert Point._fields == ("x", "y")
        assert Tagged._fields == ("x", "y", "tag")
        assert repr(Tagged(1, tag="a")).endswith(".Tagged(x=1, y=0, tag='a')")
        assert Point(1) == Point(x=1, y=0) and Point(1).label == "point"
        assert Point(1) != Tagged(1)
