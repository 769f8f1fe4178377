import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basketmine import ingest
from basketmine.ingest import (
    SyntheticSpec,
    generate_synthetic,
    parse_database,
    parse_into,
    write_database,
)
from basketmine.model import (
    Database,
    DuplicateTidError,
    MiningError,
    ParseError,
    UnknownItemError,
)
from basketmine.tradelist import TradeList

from oracles import db_from_rows, db_rows, reference_parse_into, reference_synthetic


class TestParse:
    def test_two_rows(self):
        db = parse_database("T100,I1,I2,I5\nT200,I2,I4\n")
        assert db.n_transactions == 2
        assert len(db.items) == 4
        assert db.transactions[0] == (0, 1, 2)

    def test_empty_document(self):
        assert parse_database("").n_transactions == 0

    def test_duplicate_items_collapse(self):
        db = parse_database("T1,A,A,B\n")
        assert db.transactions[0] == (0, 1)

    def test_blank_lines_and_comments_skipped(self):
        db = parse_database("# header\n\nT1,A\n   \n# tail\nT2,B\n")
        assert db.n_transactions == 2

    def test_fields_are_trimmed(self):
        db = parse_database(" T1 , A , B \n")
        assert db.tids.label(0) == "T1"
        assert db.items.labels() == ("A", "B")

    def test_duplicate_tid_names_the_tid(self):
        with pytest.raises(DuplicateTidError, match="T1"):
            parse_database("T1,A\nT1,B\n")

    def test_no_items_names_the_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_database("T1,A\nT2,B\nT3\n")

    @pytest.mark.parametrize("doc", ["T1,,B\n", "T1,A,\n", ",A,B\n"])
    def test_empty_field_rejected(self, doc):
        with pytest.raises(ParseError, match="line 1"):
            parse_database(doc)

    def test_parse_into_extends_existing(self):
        db = parse_database("T1,A\n")
        added = parse_into(db, "T2,B,C\n")
        assert added == db.transactions[1:] == [(1, 2)]
        assert db.n_transactions == 2
        assert db.items.labels() == ("A", "B", "C")

    def test_parse_into_rejects_tid_already_in_base(self):
        db = parse_database("T1,A\n")
        with pytest.raises(DuplicateTidError, match="T1"):
            parse_into(db, "T1,B\n")

    def test_leading_byte_order_mark_is_dropped(self):
        assert parse_database("\ufeffT1,a\n").tids.labels() == ("T1",)
        assert parse_database("\ufeff# header\nT1,a\n") == parse_database("T1,a\n")
        db = parse_database("T1,a\n")
        parse_into(db, "\ufeffT2,b\n")
        assert db.tids.labels() == ("T1", "T2")

    @pytest.mark.parametrize(
        "doc,lineno",
        [("T1,a\n\ufeffT2,b\n", 2), ("\ufeff\ufeffT1,a\n", 1), ("T1,a\n \ufeff# x,b\nT3,c\n", 2)],
    )
    def test_tid_starting_with_a_byte_order_mark_names_its_line(self, doc, lineno):
        # Written first in a file, such a TID would read back without its mark.
        with pytest.raises(ParseError, match=f"line {lineno}: TID .* byte-order mark"):
            parse_database(doc)


pads = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def rendered_rows(draw):
    """Rows of item indices and a document that should parse back to them.

    Fields are padded with whitespace, items repeat after their first
    appearance, and blank and ``#`` lines fall between rows.
    """
    rows = draw(db_rows(max_tx=8, max_items=6))
    lines = []
    for t, row in enumerate(rows):
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "# note", " #T1,I1"]), max_size=2)))
        items = [*row, *draw(st.lists(st.sampled_from(row), max_size=2))]
        fields = [f"T{t + 1}", *(f"I{i}" for i in items)]
        lines.append(",".join(draw(pads) + field + draw(pads) for field in fields))
    return rows, "\n".join(lines)


class TestParseRendered:
    @given(rendered_rows())
    def test_parses_equal_to_rows(self, case):
        rows, doc = case
        assert parse_database(doc) == db_from_rows(rows)


def assert_interners_in_step(db):
    """Each interner's dict maps exactly its labels to their positions.

    ``Database.__eq__`` compares label tuples only, so it cannot see a key
    that a rolled-back append left in a dict.
    """
    for interner in (db.items, db.tids):
        assert interner._by_label == {label: i for i, label in enumerate(interner.labels())}


BASE = "B1,I1\nB2,I2\n"


@pytest.mark.parametrize(
    "bad,error",
    [
        ("X1,,I1", ParseError),
        ("X1, \t ,I1", ParseError),
        ("X1", ParseError),
        ("G1,I3", DuplicateTidError),
        ("B2,I3", DuplicateTidError),
    ],
    ids=["empty-field", "whitespace-field", "tid-only", "dup-in-document", "dup-in-base"],
)
@given(before=st.integers(1, 6), after=st.integers(0, 3), blanks=st.integers(0, 2))
def test_bad_line_names_its_line(bad, error, before, after, blanks):
    lines = ["", "# comment"][:blanks] + [f"G{k},I{k % 3}" for k in range(1, before + 1)]
    lineno = len(lines) + 1
    lines += [bad] + [f"H{k},I1" for k in range(after)]
    db = parse_database(BASE)
    with pytest.raises(error) as info:
        parse_into(db, "\n".join(lines))
    assert info.value.line == lineno
    assert str(info.value).startswith(f"line {lineno}: ")
    assert db == parse_database(BASE)
    assert_interners_in_step(db)


new_lines = st.builds(
    lambda tid, items: ",".join([tid, *items]),
    st.sampled_from(["T1", "T2", "T901", "T902", "T903", "U1"]),
    st.lists(st.sampled_from(["I1", "I2", "I9", "J1", "J2"]), min_size=1, max_size=3),
)
bad_lines = st.sampled_from(
    ["T904,,I3", "T905", "T906, ,I1", ",I1", "T907,I1,", "T908,I1\nT908,I2"]
)


class TestParseIntoAtomic:
    def test_bad_third_line_leaves_db_and_index_in_step(self, store9_db):
        tl = TradeList.build(store9_db)
        with pytest.raises(ParseError, match="line 3"):
            parse_into(store9_db, "T901,I1\nT902,I2\nT903,,I3\n")
        assert store9_db.n_transactions == tl.n_transactions == 9
        assert store9_db.items.labels() == ("I1", "I2", "I5", "I4", "I3")
        assert "T901" not in store9_db.tids.labels()
        assert_interners_in_step(store9_db)
        for tx in parse_into(store9_db, "T901,I1\nT902,I6\n"):
            tl.add_transaction(tx)
        assert tl == TradeList.build(store9_db)

    def test_bulk_rows_with_an_empty_item_intern_nothing(self, store9_db):
        # The rows' new items intern before the empty one shows up.
        snapshot = parse_database(write_database(store9_db))
        assert not store9_db._append_rows([["T901", "J1", "I1"], ["T902", "J2", ""]])
        assert store9_db == snapshot
        assert_interners_in_step(store9_db)

    def test_interrupted_update_leaves_db_and_index_in_step(self, monkeypatch, store9_db):
        # Not a rejected row: the second chunk's append raises after the
        # first chunk, with its new TID and item, went in.
        snapshot = parse_database(write_database(store9_db))
        tl = TradeList.build(store9_db)
        append_rows = Database._append_rows
        calls = []

        def failing(self, rows):
            calls.append([row[:] for row in rows])  # _append_rows consumes its rows
            if len(calls) == 2:
                raise MemoryError
            return append_rows(self, rows)

        monkeypatch.setattr(ingest, "_CHUNK_LINES", 1)
        monkeypatch.setattr(Database, "_append_rows", failing)
        with pytest.raises(MemoryError):
            parse_into(store9_db, "T901,I1,I9\nT902,I2\n")
        monkeypatch.undo()
        assert calls == [[["T901", "I1", "I9"]], [["T902", "I2"]]]
        assert store9_db == snapshot
        assert_interners_in_step(store9_db)
        for tx in parse_into(store9_db, "T901,I1\nT902,I6\n"):
            tl.add_transaction(tx)
        assert tl == TradeList.build(store9_db)

    @settings(deadline=None, max_examples=80)
    @given(
        rows=db_rows(max_tx=6, max_items=4),
        before=st.lists(new_lines, max_size=4),
        bad=bad_lines,
        after=st.lists(new_lines, max_size=2),
    )
    def test_failed_update_changes_nothing(self, rows, before, bad, after):
        db, snapshot = db_from_rows(rows), db_from_rows(rows)
        tl = TradeList.build(db)
        with pytest.raises(MiningError):
            parse_into(db, "\n".join([*before, bad, *after]))
        assert db == snapshot
        assert_interners_in_step(db)
        assert tl == TradeList.build(snapshot)
        for tx in parse_into(db, "Z1,I1,K1\n"):
            tl.add_transaction(tx)
        assert tl == TradeList.build(db)


# Characters str.isspace accepts and splitlines does not break at, ASCII and not.
wide_pads = st.text(st.sampled_from([" ", "\t", "\x1f", "\xa0", "\u3000"]), max_size=2)


# B1 and B2 are the base's TIDs; J1 and J2 are items the base lacks.
doc_tids = st.sampled_from(["B1", "B2", "T1", "T2", "T3", "T4", "\ufeffT5"])
doc_items = st.lists(st.sampled_from(["I1", "I2", "I1", "J1", "J2"]), min_size=1, max_size=4)


@st.composite
def padded_row(draw):
    labels = [draw(doc_tids), *draw(doc_items)]
    return ",".join(draw(wide_pads) + label + draw(wide_pads) for label in labels)


doc_lines = st.one_of(
    padded_row(),
    wide_pads,  # blank
    wide_pads.map(lambda pad: pad + "# note,,"),
    st.sampled_from(["T8,,I1", "T8,I1,", ",I1", "T8, \xa0 ,I1", "T8", " T8 \t"]),
)
line_ends = st.sampled_from(["\n", "\r\n", "\r", "\x85", "\u2028"])


@st.composite
def documents(draw):
    lines = draw(st.lists(doc_lines, max_size=10))
    mark = draw(st.sampled_from(["", "\ufeff"]))  # a byte-order mark
    return mark + "".join(line + draw(line_ends) for line in lines)


class TestParseMatchesReference:
    @settings(deadline=None, max_examples=300)
    @given(doc=documents(), chunk=st.sampled_from([2, 3, ingest._CHUNK_LINES]))
    @example(doc="T1,J1\nT2,I1\nT3,I2\nT1,I1\n", chunk=2)  # duplicate TID in a later chunk
    @example(doc="T1,I1\nT2,I1\nB2,J1\n", chunk=2)  # a base TID in a later chunk
    @example(doc="T1,I1\nT2,I2\n T3 ,\xa0J2,J1,J2\n", chunk=2)  # new items in a later chunk
    @example(doc="T1,J1\nT2,J2,\n", chunk=2)  # new items interned, then an empty item rejects
    def test_parse_into_matches_the_per_row_reference(self, doc, chunk):
        expected_db, db = parse_database(BASE), parse_database(BASE)
        try:
            expected = reference_parse_into(expected_db, doc)
        except MiningError as exc:
            with mock.patch.object(ingest, "_CHUNK_LINES", chunk), pytest.raises(type(exc)) as info:
                parse_into(db, doc)
            assert (str(info.value), info.value.line) == (str(exc), exc.line)
            assert db == parse_database(BASE)
            assert_interners_in_step(db)
        else:
            with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
                assert parse_into(db, doc) == expected
            assert db == expected_db


class TestWrite:
    def test_store9_round_trip_starts_with_first_row(self, store9_db):
        text = write_database(store9_db)
        lines = text.splitlines()
        assert len(lines) == 9
        assert lines[0] == "T100,I1,I2,I5"

    def test_empty_database(self):
        assert write_database(parse_database("")) == ""

    def test_item_order_within_line_is_ordinal(self):
        # "T1,I2,I1" interns I2 first; writing preserves that order.
        db = parse_database("T1,I2,I1\n")
        assert write_database(db) == "T1,I2,I1\n"

    @given(rows=db_rows(max_tx=12, max_items=9))
    def test_round_trip_identity(self, rows):
        db = db_from_rows(rows)
        assert parse_database(write_database(db)) == db

    def test_round_trip_store9(self, store9_db):
        assert parse_database(write_database(store9_db)) == store9_db

    # No row holds a negative ordinal: Database.add_transaction interns
    # every one. The ids keep the numbering the cases had when the list also
    # held the two negative ones.
    @pytest.mark.parametrize(
        "tid,items",
        [(1, (0, 2)), (1, (0, 1, 5)), (2, (0,))],
        ids=["1-items0", "1-items2", "2-items3"],
    )
    def test_ordinal_outside_the_dictionaries_raises(self, tid, items):
        # Two items and two TIDs. Rows are appended by hand, bypassing
        # interning, until ``items`` is the row at position ``tid``.
        db = parse_database("T1,a,b\n")
        db.tids._intern("T2")
        db.transactions += [items] * tid
        with pytest.raises(UnknownItemError):
            write_database(db)


def rank_weights(n_items: int) -> list[float]:
    """The generator's 1/rank item weights, normalised."""
    total = sum(1 / r for r in range(1, n_items + 1))
    return [1 / r / total for r in range(1, n_items + 1)]


def drawn_rows(monkeypatch, spec: SyntheticSpec, length: int) -> list[list[int]]:
    """The rows of ``length`` items that ``spec`` generates, as 0-based ranks in draw order.

    A spy on ``Database._append_rows`` sees each row's labels after its TID
    in the order they were drawn. Lengths are drawn apart from the items, so
    the rows of one length are a sample of rows of that length.
    """
    drawn = []
    append_rows = Database._append_rows

    def spy(self, rows):
        for _tid, *labels in rows:
            if len(labels) == length:
                drawn.append([int(label[1:]) - 1 for label in labels])
        return append_rows(self, rows)

    monkeypatch.setattr(Database, "_append_rows", spy)
    generate_synthetic(spec)
    return drawn


def assert_frequency(count: int, n: int, p: float) -> None:
    """``count`` of ``n`` trials is within four standard deviations of ``n * p``."""
    assert abs(count - n * p) <= 4 * math.sqrt(n * p * (1 - p)), (count, n * p)


class TestSynthetic:
    def test_lengths_clamped(self):
        db = generate_synthetic(SyntheticSpec(5, 3, 3.0, seed=1))
        assert all(1 <= len(tx) <= 3 for tx in db.transactions)

    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticSpec(50, 10, 4.0, seed=99)
        assert generate_synthetic(spec) == generate_synthetic(spec)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(50, 10, 4.0, seed=1))
        b = generate_synthetic(SyntheticSpec(50, 10, 4.0, seed=2))
        assert a != b

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_any_seed_yields_valid_database(self, seed):
        db = generate_synthetic(SyntheticSpec(8, 5, 2.0, seed=seed))
        assert db.n_transactions == 8
        for tx in db.transactions:
            assert 1 <= len(tx) <= 5

    def test_empirical_mean_length(self):
        db = generate_synthetic(SyntheticSpec(1000, 50, 8.0, seed=42))
        mean = sum(len(tx) for tx in db.transactions) / db.n_transactions
        assert abs(mean - 8.0) <= 0.5

    def test_ordered_pairs_follow_successive_sampling(self, monkeypatch):
        # Rows of two of three items, in draw order.
        rows = drawn_rows(monkeypatch, SyntheticSpec(40_000, 3, 2.0, seed=2024), length=2)
        w = rank_weights(3)
        n = len(rows)
        assert n > 10_000
        counts = Counter(map(tuple, rows))
        for i, j in itertools.permutations(range(3), 2):
            assert_frequency(counts[i, j], n, w[i] * w[j] / (1 - w[i]))

    def test_rows_of_all_but_one_item_follow_successive_sampling(self, monkeypatch):
        # Five of six items: which item a row lacks, and which item it draws
        # first, against exact successive sampling.
        rows = drawn_rows(monkeypatch, SyntheticSpec(60_000, 6, 5.0, seed=7), length=5)
        w = rank_weights(6)
        n = len(rows)
        assert n > 10_000
        assert all(len(set(row)) == 5 for row in rows)
        missing = Counter((set(range(6)) - set(row)).pop() for row in rows)
        first = Counter(row[0] for row in rows)
        for item in range(6):
            lacks = sum(
                math.prod(w[g] / (1 - sum(w[h] for h in order[:k])) for k, g in enumerate(order))
                for order in itertools.permutations(set(range(6)) - {item}, 5)
            )
            assert_frequency(missing[item], n, lacks)
            assert_frequency(first[item], n, w[item])

    @pytest.mark.parametrize("draws", [1, 7, ingest._POOL_DRAWS])
    def test_rows_do_not_depend_on_the_pool_size(self, monkeypatch, draws):
        # Against one draw at a time. Short and near-full rows both cross refills.
        monkeypatch.setattr(ingest, "_POOL_DRAWS", draws)
        for spec in (SyntheticSpec(300, 40, 6.0, seed=3), SyntheticSpec(30, 8, 7.5, seed=11)):
            assert generate_synthetic(spec) == reference_synthetic(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(256, 40, 6.0, seed=3),
            # Rows past a whole number of 256-row chunks.
            SyntheticSpec(257, 40, 6.0, seed=3),
            SyntheticSpec(513, 12, 4.0, seed=8),
            SyntheticSpec(300, 1, 1.0, seed=4),
        ],
        ids=repr,
    )
    def test_rows_match_the_reference_generator(self, spec):
        assert generate_synthetic(spec) == reference_synthetic(spec)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.builds(
            SyntheticSpec,
            n_transactions=st.integers(1, 600),
            n_items=st.shared(st.integers(1, 30), key="n_items"),
            mean_length=st.shared(st.integers(1, 30), key="n_items").flatmap(
                lambda n: st.floats(0.1, n)
            ),
            seed=st.integers(0, 2**32 - 1),
        )
    )
    def test_any_small_spec_matches_the_reference_generator(self, spec):
        assert generate_synthetic(spec) == reference_synthetic(spec)

    def test_full_length_rows_hold_every_item(self):
        db = generate_synthetic(SyntheticSpec(200, 8, 8.0, seed=5))
        full = [row for row in db.transactions if len(row) == 8]
        assert full
        assert all(row == tuple(range(8)) for row in full)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_as_long_as_the_item_set_finish(self, seed):
        spec = SyntheticSpec(20, 500, 500.0, seed)
        db = generate_synthetic(spec)
        assert db == reference_synthetic(spec)
        assert db.n_transactions == 20
        assert all(400 <= len(row) <= 500 for row in db.transactions)
        assert all(row == tuple(range(500)) for row in db.transactions if len(row) == 500)

    @pytest.mark.parametrize(
        "spec",
        [
            (0, 3, 1.0, 0),
            (5, 0, 1.0, 0),
            (5, 3, 0.0, 0),
            (5, 3, 4.0, 0),  # mean above n_items
            (10.5, 5, 2.0, 1),
            (10, 5.5, 2.0, 1),
            (10, 5, 2.0, 1.5),
            (10, 5, 2.0, "1"),
            (10, 5, 2.0, -1),
            (10, 5, "2", 1),
            (10, 5, None, 1),
            (10, 5, True, 1),
            (10, 5, 2j, 1),
            (True, 5, 2.0, 1),
            (10, True, 1.0, 1),
            (10, 5, 2.0, True),
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(MiningError):
            SyntheticSpec(*spec)

    def test_integral_fields_are_stored_as_ints(self):
        spec = SyntheticSpec(np.int64(10), np.int32(5), 2.0, np.uint8(3))
        assert (spec.n_transactions, spec.n_items, spec.seed) == (10, 5, 3)
        assert all(type(v) is int for v in (spec.n_transactions, spec.n_items, spec.seed))
        assert generate_synthetic(spec) == generate_synthetic(SyntheticSpec(10, 5, 2.0, 3))
