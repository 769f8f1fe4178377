from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketmine.ingest import parse_database, write_database
from basketmine.miner import FrequentItemset
from basketmine.model import (
    Database,
    DuplicateTidError,
    MiningError,
    ParseError,
    SupportThreshold,
    ThresholdError,
    UnknownItemError,
    resolve_threshold,
)
from basketmine.rules import RuleQuery
from basketmine.tradelist import TradeList

from oracles import db_from_rows, db_rows

#: Values that read exactly as 7/100, and values that are no fraction in (0, 1].
FRACTION_LIKE_7_100 = [0.07, "0.07", "7/100", Fraction(7, 100), np.float64(0.07)]
BAD_FRACTIONS = ["half", "1/0", object(), [1], float("nan"), "0", 1.5, True, False]

#: The field separator and every line boundary ``str.splitlines`` breaks at.
RESERVED = ",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: Item labels ``Database.add_transaction`` accepts: non-empty after trimming, nothing reserved.
labels = st.text(st.characters(exclude_characters=RESERVED), min_size=1).filter(
    lambda s: s.strip()
)


def intern(db: Database, label: str) -> int:
    """Intern one item label the way the package does, in a row of its own; its ordinal."""
    (ordinal,) = db.add_transaction(f"T{db.n_transactions}", [label])
    return ordinal


class TestInterner:
    def test_first_assignment_is_zero(self):
        assert intern(Database(), "I1") == 0

    def test_interning_is_idempotent(self):
        db = Database()
        assert intern(db, "I1") == 0
        assert intern(db, "I1") == 0
        assert len(db.items) == 1

    def test_first_appearance_order(self):
        db = Database()
        got = [intern(db, lbl) for lbl in ("I1", "I2", "I1", "I5")]
        assert got == [0, 1, 0, 2]

    def test_whitespace_is_trimmed(self):
        db = Database()
        assert intern(db, "  I1 ") == intern(db, "I1")
        assert db.items.labels() == ("I1",)

    @pytest.mark.parametrize("bad", ["", "   ", "\t"])
    def test_empty_label_rejected(self, bad):
        db = Database()
        with pytest.raises(ParseError):
            intern(db, bad)
        assert len(db.items) == 0

    @pytest.mark.parametrize("sep", list(RESERVED))
    def test_reserved_character_rejected(self, sep):
        # No label reaches the dictionary that the text format cannot write.
        db = Database()
        intern(db, "I1")
        with pytest.raises(ParseError, match="reserved"):
            intern(db, f"a{sep}b")
        assert db.items.labels() == ("I1",)

    def test_unknown_lookups(self):
        db = Database()
        intern(db, "I1")
        with pytest.raises(UnknownItemError):
            db.items.label(1)

    @given(st.lists(labels, max_size=30))
    def test_reinterning_reproduces_assignments(self, seq):
        """Ordinals are a pure function of first-appearance order."""
        first = Database()
        second = Database()
        assert [intern(first, s) for s in seq] == [intern(second, s) for s in seq]

    @given(st.lists(labels, max_size=30))
    def test_label_ordinal_bijection(self, seq):
        db = Database()
        for s in seq:
            intern(db, s)
        interner = db.items
        for ordinal in range(len(interner)):
            assert interner.labels().index(interner.label(ordinal)) == ordinal


class TestFrequentItemset:
    """``_check_itemset``, through the record that holds one itemset."""

    def test_rejects_empty(self):
        with pytest.raises(MiningError):
            FrequentItemset((), 1)

    # (-1, 0) increases, but a label list would count -1 from the end.
    @pytest.mark.parametrize("itemset", [(2, 1), (1, 1), (0, 2, 2), (-1, 0)])
    def test_rejects_non_increasing(self, itemset):
        with pytest.raises(MiningError):
            FrequentItemset(itemset, 1)

    def test_rejects_items_that_are_not_a_tuple(self):
        with pytest.raises(MiningError):
            FrequentItemset([0, 1], 1)


class TestDatabase:
    def test_add_deduplicates_items(self):
        db = Database()
        assert db.add_transaction("T1", ["A", "A", "B"]) == (0, 1)

    def test_added_row_is_a_frozen_transaction(self):
        db = Database()
        db.add_transaction("T1", ["A", "B"])
        row = db.add_transaction("T2", ["B", "C", "A", "B"])
        # The row is its item tuple, and its TID ordinal is its position.
        assert type(row) is tuple and row == (0, 1, 2)
        assert db.transactions[1] is row
        assert db.tids.label(1) == "T2"

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

    @pytest.mark.parametrize("sep", list(RESERVED))
    def test_every_reserved_character_rejected_in_items_and_tids(self, sep):
        db = Database()
        db.add_transaction("T0", ["c"])
        snapshot = parse_database(write_database(db))
        for tid, items in ((f"T{sep}1", ["c"]), ("T1", [f"a{sep}b", "c"])):
            with pytest.raises(ParseError, match="reserved"):
                db.add_transaction(tid, items)
            assert db == snapshot

    def test_known_items_are_not_scanned_again(self, monkeypatch):
        # Only a label that is not yet interned can bring in a reserved
        # character, so a row of known items scans nothing but its TID.
        import basketmine.model as model

        db = Database()
        db.add_transaction("T1", ["a", "b"])
        scanned = []
        check = model._check_reserved
        monkeypatch.setattr(model, "_check_reserved", lambda ls: scanned.append(list(ls)) or check(ls))
        db.add_transaction("T2", ["b", "a"])
        assert scanned == []
        db.add_transaction("T3", ["a", "c"])
        assert scanned == [["a", "c"]]
        with pytest.raises(ParseError, match="reserved"):
            db.add_transaction("T4", ["a", "c,d"])
        with pytest.raises(ParseError, match="reserved"):
            db.add_transaction("T1", ["a", "c\nd"])  # a taken TID still reads as malformed
        assert db.n_transactions == 3 and db.items.labels() == ("a", "b", "c")

    def test_vertical_tab_label_does_not_corrupt_a_round_trip(self):
        # Written out, "a\vb" would read back as two lines, the second a row with TID "b".
        db = Database()
        with pytest.raises(ParseError):
            db.add_transaction("T1", ["a\x0bb", "c"])
        db.add_transaction("T1", ["a\x1fb", "c"])  # \x1f is no line boundary
        assert parse_database(write_database(db)) == db

    @settings(max_examples=200)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(alphabet="aab #\t\x1f" + RESERVED, max_size=4),
                st.lists(st.text(alphabet="aabbc é\x1f" + RESERVED, max_size=4), max_size=4),
            ),
            max_size=8,
        )
    )
    def test_accepted_rows_round_trip_and_reserved_ones_raise(self, rows):
        db = Database()
        for tid, items in rows:
            before = (db.items.labels(), db.tids.labels(), list(db.transactions))
            trimmed = [tid.strip(), *(item.strip() for item in items)]
            if any(ch in RESERVED for label in trimmed for ch in label):
                with pytest.raises(ParseError):
                    db.add_transaction(tid, items)
            else:
                try:
                    db.add_transaction(tid, items)
                except (ParseError, DuplicateTidError):
                    pass
                else:
                    continue
            assert (db.items.labels(), db.tids.labels(), list(db.transactions)) == before
        assert parse_database(write_database(db)) == db

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

    @pytest.mark.parametrize("count", [0, -1, 2.9, 0.05, "2", True])
    def test_invalid_absolute(self, count):
        with pytest.raises(ThresholdError):
            SupportThreshold.absolute(count)

    def test_numpy_integer_count_accepted(self):
        threshold = SupportThreshold(count=np.int64(3))
        assert threshold.resolve(9) == 3
        assert type(threshold.count) is int

    @pytest.mark.parametrize("frac", ["0", "1.5", "-0.2"])
    def test_invalid_fraction(self, frac):
        with pytest.raises(ThresholdError):
            SupportThreshold.fractional(frac)

    def test_unparseable_fraction(self):
        with pytest.raises(ThresholdError):
            SupportThreshold.fractional("abc")

    @pytest.mark.parametrize("value", FRACTION_LIKE_7_100)
    def test_constructor_normalises_fraction_like_fractional(self, value):
        # A float is read at its shortest repr by both routes: 0.07 * 100 is
        # 7.000000000000001 in binary, which would resolve to 8.
        direct = SupportThreshold(fraction=value)
        assert direct == SupportThreshold.fractional(value)
        assert type(direct.fraction) is Fraction and direct.fraction == Fraction(7, 100)
        assert direct.resolve(100) == 7

    @pytest.mark.parametrize("value", BAD_FRACTIONS)
    def test_constructor_rejects_bad_fraction_with_threshold_error(self, value):
        with pytest.raises(ThresholdError):
            SupportThreshold(fraction=value)

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


class TestRuleQuery:
    """The minimum confidence is read as a fractional support is."""

    @pytest.mark.parametrize("value", FRACTION_LIKE_7_100)
    def test_normalises_like_fractional(self, value):
        query = RuleQuery(value)
        assert type(query.min_confidence) is Fraction and query.min_confidence == Fraction(7, 100)

    @pytest.mark.parametrize("value", BAD_FRACTIONS)
    def test_rejects_bad_fraction_with_threshold_error(self, value):
        with pytest.raises(ThresholdError):
            RuleQuery(value)


def test_resolve_threshold_accepts_bare_ints():
    assert resolve_threshold(2, 9) == 2
    assert resolve_threshold(SupportThreshold.fractional("0.5"), 9) == 5
    with pytest.raises(ThresholdError):
        resolve_threshold(0, 9)
