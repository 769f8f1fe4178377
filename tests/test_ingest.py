import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
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
    DuplicateTidError,
    MiningError,
    ParseError,
    UnknownItemError,
)
from basketmine.tradelist import TradeList

from oracles import db_from_rows, db_rows


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
        assert tl == TradeList.build(snapshot)
        for tx in parse_into(db, "Z1,I1,K1\n"):
            tl.add_transaction(tx)
        assert tl == TradeList.build(db)


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


def draw_rows(n_items: int, length: int, n_rows: int, seed: int) -> list[list[int]]:
    """The generator's item draws for rows of one length, as 0-based ranks in draw order."""
    weights = np.array(rank_weights(n_items))
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    return ingest._draw_rows(rng, weights, cdf, np.full(n_rows, length))


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

    @pytest.mark.parametrize("slack", [ingest._POOL_SLACK, -3])
    def test_ordered_pairs_follow_successive_sampling(self, monkeypatch, slack):
        # Rows of two of three items. With slack -3 each row's pool share is a
        # single draw, so every second item comes from the conditional draw.
        monkeypatch.setattr(ingest, "_POOL_SLACK", slack)
        rows = draw_rows(n_items=3, length=2, n_rows=10_000, seed=2024)
        w = rank_weights(3)
        counts = Counter(map(tuple, rows))
        assert sum(counts.values()) == 10_000
        for i, j in itertools.permutations(range(3), 2):
            assert_frequency(counts[i, j], 10_000, w[i] * w[j] / (1 - w[i]))

    @pytest.mark.parametrize("slack", [ingest._POOL_SLACK, -9])
    def test_rows_that_run_out_finish_with_the_exact_conditional_draw(self, monkeypatch, slack):
        # Five of six items: which item a row lacks, and which item it draws
        # first, against exact successive sampling. Over a quarter of the rows
        # run out of their share at the default slack; at -9, all of them do.
        monkeypatch.setattr(ingest, "_POOL_SLACK", slack)
        rows = draw_rows(n_items=6, length=5, n_rows=10_000, seed=7)
        w = rank_weights(6)
        assert all(len(set(row)) == 5 for row in rows)
        missing = Counter((set(range(6)) - set(row)).pop() for row in rows)
        first = Counter(row[0] for row in rows)
        for item in range(6):
            lacks = sum(
                math.prod(w[g] / (1 - sum(w[h] for h in order[:k])) for k, g in enumerate(order))
                for order in itertools.permutations(set(range(6)) - {item}, 5)
            )
            assert_frequency(missing[item], 10_000, lacks)
            assert_frequency(first[item], 10_000, w[item])

    def test_full_length_rows_hold_every_item(self):
        db = generate_synthetic(SyntheticSpec(200, 8, 8.0, seed=5))
        full = [row for row in db.transactions if len(row) == 8]
        assert full
        assert all(row == tuple(range(8)) for row in full)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_as_long_as_the_item_set_finish(self, seed):
        db = generate_synthetic(SyntheticSpec(20, 500, 500.0, seed))
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
