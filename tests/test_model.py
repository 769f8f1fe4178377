from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketmine.model import (
    Database,
    DuplicateTidError,
    Interner,
    MiningError,
    ParseError,
    SupportThreshold,
    ThresholdError,
    Transaction,
    UnknownItemError,
    canonical_itemset,
    resolve_threshold,
)
from basketmine.tradelist import TradeList

from oracles import db_from_rows, db_rows

labels = st.text(min_size=1).filter(lambda s: s.strip())


class TestInterner:
    def test_first_assignment_is_zero(self):
        interner = Interner()
        assert interner.intern("I1") == 0

    def test_interning_is_idempotent(self):
        interner = Interner()
        assert interner.intern("I1") == 0
        assert interner.intern("I1") == 0
        assert len(interner) == 1

    def test_first_appearance_order(self):
        interner = Interner()
        got = [interner.intern(lbl) for lbl in ("I1", "I2", "I1", "I5")]
        assert got == [0, 1, 0, 2]

    def test_whitespace_is_trimmed(self):
        interner = Interner()
        assert interner.intern("  I1 ") == interner.intern("I1")
        assert "I1" in interner
        assert " I1 " in interner

    @pytest.mark.parametrize("bad", ["", "   ", "\t"])
    def test_empty_label_rejected(self, bad):
        with pytest.raises(ParseError):
            Interner().intern(bad)

    def test_unknown_lookups(self):
        interner = Interner()
        interner.intern("I1")
        with pytest.raises(UnknownItemError):
            interner.ordinal("I9")
        with pytest.raises(UnknownItemError):
            interner.label(1)

    @given(st.lists(labels, max_size=30))
    def test_reinterning_reproduces_assignments(self, seq):
        """Ordinals are a pure function of first-appearance order."""
        first = Interner()
        second = Interner()
        assert [first.intern(s) for s in seq] == [second.intern(s) for s in seq]

    @given(st.lists(labels, max_size=30))
    def test_label_ordinal_bijection(self, seq):
        interner = Interner()
        for s in seq:
            interner.intern(s)
        for ordinal in range(len(interner)):
            assert interner.ordinal(interner.label(ordinal)) == ordinal


class TestTransaction:
    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            Transaction(0, ())

    @pytest.mark.parametrize("items", [(2, 1), (1, 1), (0, 2, 2)])
    def test_rejects_non_increasing(self, items):
        with pytest.raises(MiningError):
            Transaction(0, items)

    def test_len(self):
        assert len(Transaction(0, (1, 4, 7))) == 3


def test_canonical_itemset_sorts_and_dedups():
    assert canonical_itemset([3, 1, 3, 0]) == (0, 1, 3)
    with pytest.raises(MiningError):
        canonical_itemset([])


class TestDatabase:
    def test_add_deduplicates_items(self):
        db = Database()
        tx = db.add_transaction("T1", ["A", "A", "B"])
        assert tx.items == (0, 1)

    def test_duplicate_tid_names_the_tid(self):
        db = Database()
        db.add_transaction("T100", ["A"])
        with pytest.raises(DuplicateTidError, match="T100"):
            db.add_transaction("T100", ["B"])

    def test_empty_transaction_rejected(self):
        with pytest.raises(ParseError):
            Database().add_transaction("T1", [])

    @pytest.mark.parametrize(
        "tid,items",
        [
            ("T1,T2", ["A"]),
            ("T1", ["a,b"]),
            ("T1", ["a\nb"]),
            ("#T1", ["A"]),
        ],
    )
    def test_unrepresentable_labels_rejected(self, tid, items):
        # Anything the text format cannot write back must not enter the model.
        with pytest.raises(ParseError):
            Database().add_transaction(tid, items)

    @pytest.mark.parametrize(
        "tid,items",
        [("T1", ["a", "  "]), ("  ", ["x"]), ("T1", ["a", "b,c"]), ("#T1", ["a"])],
    )
    def test_rejected_row_interns_nothing(self, tid, items):
        db = Database()
        with pytest.raises(ParseError):
            db.add_transaction(tid, items)
        assert db == Database()
        assert TradeList.build(db).serialize_log() == ""

    @settings(max_examples=150)
    @given(
        rows=db_rows(max_tx=5, max_items=4),
        tid=st.sampled_from(["T1", "T2", "T99", " T98 ", "", "  ", "#T1", "T1,T2", "T\n"]),
        items=st.lists(
            st.sampled_from(["I0", "I9", " J1 ", "", " ", "a,b", "a\rb", "\n"]), max_size=4
        ),
    )
    def test_rejected_add_leaves_database_as_it_was(self, rows, tid, items):
        db, snapshot = db_from_rows(rows), db_from_rows(rows)
        try:
            db.add_transaction(tid, items)
        except MiningError:
            assert db == snapshot
        else:
            assert db.n_transactions == snapshot.n_transactions + 1

    def test_unusual_but_legal_labels_round_trip(self):
        from basketmine.ingest import parse_database, write_database

        db = Database()
        db.add_transaction("T 1", ["my item", "x#y", "ümlaut"])
        assert parse_database(write_database(db)) == db

    def test_item_and_tid_handles(self):
        db = Database()
        db.add_transaction("T100", ["I1", "I2"])
        assert db.item(0) == (0, "I1")
        assert db.item(1).label == "I2"
        assert db.tid(0) == (0, "T100")

    def test_equality(self):
        a, b = Database(), Database()
        for db in (a, b):
            db.add_transaction("T1", ["X", "Y"])
        assert a == b
        b.add_transaction("T2", ["X"])
        assert a != b


class TestSupportThreshold:
    def test_absolute_passes_through(self):
        assert SupportThreshold.absolute(2).resolve(9) == 2

    def test_fraction_whole_database(self):
        assert SupportThreshold.fractional(Fraction(1)).resolve(9) == 9

    def test_fraction_uses_ceiling(self):
        # ceil(0.3 * 9) = ceil(2.7) = 3
        assert SupportThreshold.fractional("0.3").resolve(9) == 3

    def test_float_input_means_its_decimal_repr(self):
        # 0.2 is read as exactly 1/5, not the nearest binary double.
        assert SupportThreshold.fractional(0.2).resolve(10) == 2

    def test_fraction_floor_is_one(self):
        assert SupportThreshold.fractional("0.001").resolve(5) == 1

    def test_fraction_on_empty_database(self):
        with pytest.raises(ThresholdError, match="empty database"):
            SupportThreshold.fractional("0.5").resolve(0)

    def test_absolute_on_empty_database_is_fine(self):
        assert SupportThreshold.absolute(3).resolve(0) == 3

    @pytest.mark.parametrize("count", [0, -1])
    def test_invalid_absolute(self, count):
        with pytest.raises(ThresholdError):
            SupportThreshold.absolute(count)

    @pytest.mark.parametrize("frac", ["0", "1.5", "-0.2"])
    def test_invalid_fraction(self, frac):
        with pytest.raises(ThresholdError):
            SupportThreshold.fractional(frac)

    def test_unparseable_fraction(self):
        with pytest.raises(ThresholdError):
            SupportThreshold.fractional("abc")

    def test_exactly_one_form(self):
        with pytest.raises(ThresholdError):
            SupportThreshold()
        with pytest.raises(ThresholdError):
            SupportThreshold(count=2, fraction=Fraction(1, 2))

    @given(
        num=st.integers(1, 100),
        den=st.integers(100, 200),
        n=st.integers(1, 50),
        bump=st.integers(0, 30),
    )
    def test_monotone_in_fraction_and_size(self, num, den, n, bump):
        frac = Fraction(num, den)
        base = SupportThreshold.fractional(frac).resolve(n)
        if frac + Fraction(bump, den * 10) <= 1:
            larger_frac = SupportThreshold.fractional(frac + Fraction(bump, den * 10))
            assert larger_frac.resolve(n) >= base
        assert SupportThreshold.fractional(frac).resolve(n + bump) >= base


def test_resolve_threshold_accepts_bare_ints():
    assert resolve_threshold(2, 9) == 2
    assert resolve_threshold(SupportThreshold.fractional("0.5"), 9) == 5
    with pytest.raises(ThresholdError):
        resolve_threshold(0, 9)
