from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketmine.ingest import parse_database, parse_into
from basketmine.miner import mine
from basketmine.model import Database, MiningError, UnknownItemError
from basketmine.tradelist import TradeList

from oracles import add_row, brute_tidset, db_from_rows, db_rows, read_tradelist_log


def tid_labels(db, tidset):
    return [db.tids.label(t) for t in tidset]


def as_bitmap(tids):
    return sum(1 << t for t in tids)


def fresh_bitmap(tl, item):
    return as_bitmap(tl.tidset(item))


def and_bitmap(tl, itemset):
    """The itemset's tidset the way the miner computes it: its items' bitmaps ANDed."""
    bits = (1 << tl.n_transactions) - 1  # every transaction holds the empty itemset
    for item in itemset:
        bits &= tl.bitmap(item)
    return bits


class TestBuild:
    def test_store9_tidsets(self, store9_db):
        tl = TradeList.build(store9_db)
        i1 = store9_db.items.ordinal("I1")
        assert tid_labels(store9_db, tl.tidset(i1)) == [
            "T100", "T400", "T500", "T700", "T800", "T900",
        ]
        assert len(tl.tidset(store9_db.items.ordinal("I4"))) == 2
        assert len(tl.tidset(store9_db.items.ordinal("I5"))) == 2

    def test_store9_all_five_tidsets(self, store9_db):
        tl = TradeList.build(store9_db)
        by_label = {
            store9_db.items.label(i): tid_labels(store9_db, tl.tidset(i))
            for i in range(tl.n_items)
        }
        assert by_label == {
            "I1": ["T100", "T400", "T500", "T700", "T800", "T900"],
            "I2": ["T100", "T200", "T300", "T400", "T600", "T800", "T900"],
            "I3": ["T300", "T500", "T600", "T700", "T800", "T900"],
            "I4": ["T200", "T400"],
            "I5": ["T100", "T800"],
        }

    def test_empty_database(self):
        tl = TradeList.build(Database())
        assert tl.n_transactions == 0
        assert tl.n_items == 0
        assert tl.serialize_log() == ""

    def test_raw_pass_counter_is_one(self, store9_db):
        tl = TradeList.build(store9_db)
        assert tl.raw_passes == 1
        assert and_bitmap(tl, [0, 1]) == as_bitmap(brute_tidset(store9_db, [0, 1]))
        tl.tidset(0)
        assert tl.raw_passes == 1


class TestAddTransaction:
    def test_t910_updates_counts(self, store9_db):
        tl = TradeList.build(store9_db)
        tx = store9_db.add_transaction("T910", ["I1", "I4"])
        tl.add_transaction(tx)
        assert len(tl.tidset(store9_db.items.ordinal("I4"))) == 3
        assert len(tl.tidset(store9_db.items.ordinal("I1"))) == 7
        assert tl.n_transactions == 10
        assert tl.raw_passes == 1

    def test_incremental_equals_full_build(self, store9_db, store10_db):
        tl = TradeList.build(store9_db)
        tl.add_transaction(store9_db.add_transaction("T910", ["I1", "I4"]))
        assert tl == TradeList.build(store10_db)

    def test_add_to_empty(self):
        db = Database()
        tl = TradeList.build(db)
        tl.add_transaction(db.add_transaction("T1", ["A", "B"]))
        assert tl.n_transactions == 1
        assert [list(tl.tidset(i)) for i in range(tl.n_items)] == [[0], [0]]

    def test_new_item_label_extends_index(self, store9_db):
        tl = TradeList.build(store9_db)
        tx = store9_db.add_transaction("T910", ["I1", "I9"])
        tl.add_transaction(tx)
        assert tl.n_items == 6
        assert len(tl.tidset(store9_db.items.ordinal("I9"))) == 1

    def test_index_grows_to_the_rows_largest_item(self, store9_db):
        tl = TradeList.build(store9_db)
        store9_db.items._intern("I6")  # an item no indexed row holds
        tl.add_transaction(store9_db.add_transaction("T910", ["I7", "I2", "I8"]))
        assert tl.n_items == 8
        assert [len(tl.tidset(store9_db.items.ordinal(f"I{k}"))) for k in (6, 7, 8)] == [0, 1, 1]

    def test_duplicate_ordinal_rejected(self, store9_db):
        tl = TradeList.build(store9_db)
        with pytest.raises(MiningError):
            tl.add_transaction(store9_db.transactions[0])
        assert tl == TradeList.build(store9_db)

    def test_negative_item_ordinal_never_reaches_the_index(self, store9_db):
        # It would append TID 9 to the last item's tidset.
        tl = TradeList.build(store9_db)
        with pytest.raises(MiningError):
            tl.add_transaction((-1, 0))
        assert tl == TradeList.build(store9_db)

    def test_row_the_database_does_not_hold_next_is_rejected(self, store9_db, store10_db):
        # Accepting (0, 1) as row 9 listed a later T910 = {I4} under I1 and I2.
        tl = TradeList.build(store9_db)
        with pytest.raises(MiningError):
            tl.add_transaction((0, 1))
        row = store9_db.add_transaction("T910", ["I4"])
        with pytest.raises(MiningError):
            tl.add_transaction(store10_db.transactions[9])  # T910 = {I1, I4} there
        tl.add_transaction(row)
        assert tl == TradeList.build(store9_db)
        listed = read_tradelist_log(tl.serialize_log())
        assert [item for item, tids in listed.items() if "T910" in tids] == ["I4"]

    def test_gap_ordinal_rejected(self, store9_db):
        tl = TradeList.build(store9_db)
        other = Database()
        for n in range(11):
            other.add_transaction(f"T{n}", ["A"])
        with pytest.raises(MiningError):
            tl.add_transaction(other.transactions[10])

    @settings(deadline=None)
    @given(rows=db_rows(max_tx=10, max_items=8), data=st.data())
    def test_prefix_plus_adds_equals_scratch(self, rows, data):
        cut = data.draw(st.integers(0, len(rows)), label="cut")
        full = db_from_rows(rows)
        prefix = db_from_rows(rows[:cut])
        tl = TradeList.build(prefix)
        for row in rows[cut:]:
            tl.add_transaction(add_row(prefix, row))
        assert tl == TradeList.build(full)


class TestQueries:
    def test_item_support_counts(self, store9_db):
        tl = TradeList.build(store9_db)
        assert len(tl.tidset(store9_db.items.ordinal("I1"))) == 6
        assert len(tl.tidset(store9_db.items.ordinal("I2"))) == 7

    def test_unknown_item(self, store9_db):
        tl = TradeList.build(store9_db)
        with pytest.raises(UnknownItemError):
            tl.tidset(99)
        with pytest.raises(UnknownItemError):
            and_bitmap(tl, [0, 99])

    def test_pair_intersection_count(self, store9_db):
        tl = TradeList.build(store9_db)
        pair = [store9_db.items.ordinal("I1"), store9_db.items.ordinal("I2")]
        assert and_bitmap(tl, pair).bit_count() == 4

    def test_singleton_is_items_own_tidset(self, store9_db):
        tl = TradeList.build(store9_db)
        i1 = store9_db.items.ordinal("I1")
        assert and_bitmap(tl, [i1]) == fresh_bitmap(tl, i1)

    def test_triple(self, store9_db):
        tl = TradeList.build(store9_db)
        triple = [store9_db.items.ordinal(x) for x in ("I1", "I2", "I3")]
        expected = [store9_db.tids.ordinal(t) for t in ("T800", "T900")]
        assert and_bitmap(tl, triple) == as_bitmap(expected)

    def test_empty_itemset_is_every_transaction(self, store9_db):
        tl = TradeList.build(store9_db)
        assert and_bitmap(tl, []) == as_bitmap(brute_tidset(store9_db, [])) == 0b111111111
        assert all(fi.itemset for fi in mine(tl, 1))  # never reported as frequent

    def test_order_insensitive(self, store9_db):
        tl = TradeList.build(store9_db)
        triple = [store9_db.items.ordinal(x) for x in ("I1", "I2", "I5")]
        expected = and_bitmap(tl, triple)
        for perm in permutations(triple):
            assert and_bitmap(tl, perm) == expected

    def test_matches_brute_force_up_to_size_4(self, store9_db):
        tl = TradeList.build(store9_db)
        universe = range(len(store9_db.items))
        for size in range(1, 5):
            for combo in combinations(universe, size):
                assert and_bitmap(tl, combo) == as_bitmap(brute_tidset(store9_db, combo))

    @settings(deadline=None)
    @given(rows=db_rows(max_tx=12, max_items=6))
    def test_brute_force_oracle_on_random_databases(self, rows):
        db = db_from_rows(rows)
        tl = TradeList.build(db)
        for size in range(1, min(4, len(db.items)) + 1):
            for combo in combinations(range(len(db.items)), size):
                assert and_bitmap(tl, combo) == as_bitmap(brute_tidset(db, combo))

    @settings(deadline=None)
    @given(rows=db_rows(max_tx=10, max_items=6))
    def test_superset_tidsets_shrink(self, rows):
        db = db_from_rows(rows)
        tl = TradeList.build(db)
        n = len(db.items)
        for small in combinations(range(n), min(2, n)):
            for extra in range(n):
                if extra in small:
                    continue
                bigger = and_bitmap(tl, small + (extra,))
                assert bigger & ~and_bitmap(tl, small) == 0


class TestReadOnly:
    def test_tidset_is_an_immutable_copy(self, store9_db):
        tl = TradeList.build(store9_db)
        i1 = store9_db.items.ordinal("I1")
        tids = tl.tidset(i1)
        assert isinstance(tids, tuple)
        with pytest.raises(AttributeError):
            tids.append(99)
        tl.add_transaction(store9_db.add_transaction("T910", ["I1"]))
        assert len(tids) == 6
        assert tl.tidset(i1)[-1] == 9

    def test_supports_is_a_fresh_array(self, store9_db):
        tl = TradeList.build(store9_db)
        supports = tl.supports()
        assert supports.tolist() == [len(tl.tidset(i)) for i in range(tl.n_items)]
        supports[:] = 0
        assert tl.supports().tolist() == [6, 7, 2, 2, 6]


class TestSupports:
    def test_a_read_counts_in_what_was_appended(self):
        db = db_from_rows([list(range(10))])
        tl = TradeList.build(db)
        assert tl.supports().tolist() == [1] * 10
        # Two entries, one of them a new item: fewer than half the items.
        tl.add_transaction(db.add_transaction("T2", ["I3", "I10"]))
        assert tl.supports().tolist() == [1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1]
        assert tl.supports().tolist() == [1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1]
        # Eleven entries, more than half: every length is read again.
        tl.add_transaction(db.add_transaction("T3", [f"I{i}" for i in range(11)]))
        assert tl.supports().tolist() == [2, 2, 2, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_queue_is_dropped_at_half_the_items(self):
        db = db_from_rows([list(range(10))])
        tl = TradeList.build(db)

        def fresh():
            return TradeList.build(db).supports().tolist()

        # Nothing is queued before the first read.
        tl.add_transaction(add_row(db, [0, 1, 2, 3]))
        assert tl._pending == []
        assert tl.supports().tolist() == fresh()
        # 2 and then 4 entries stay below half the 10 items; two more, one of
        # them a new item, reach half the 11, so the kept array goes and
        # nothing more is queued.
        tl.add_transaction(add_row(db, [4, 5]))
        tl.add_transaction(add_row(db, [6, 7]))
        assert len(tl._pending) == 4
        tl.add_transaction(add_row(db, [8, 10]))
        assert tl._pending == []
        tl.add_transaction(add_row(db, [9, 10, 11]))
        assert tl._pending == []
        assert tl.supports().tolist() == fresh()
        # Read again: small batches are queued and counted in, new items too.
        tl.add_transaction(add_row(db, [12]))
        assert tl.supports().tolist() == fresh()
        tl.add_transaction(add_row(db, [0, 13]))
        assert len(tl._pending) == 2
        assert tl.supports().tolist() == fresh()
        assert tl.supports().tolist() == fresh()

    def test_equality_ignores_the_kept_supports(self, store9_db):
        read, unread = TradeList.build(store9_db), TradeList.build(store9_db)
        read.supports()
        assert read == unread

    @settings(deadline=None)
    @given(rows=db_rows(max_tx=40, max_items=8), data=st.data())
    def test_appends_between_reads_match_fresh_lengths(self, rows, data):
        # Batches of any size: some are counted in, some come to half the
        # items or more and every length is read again.
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=6), label="cuts"))
        db = db_from_rows(rows[: cuts[0] if cuts else len(rows)])
        tl = TradeList.build(db)
        full = db_from_rows(rows)
        for lo, hi in zip(cuts, cuts[1:] + [len(rows)]):
            if data.draw(st.booleans(), label="read"):
                supports = tl.supports()
                assert supports.tolist() == [len(tl.tidset(i)) for i in range(tl.n_items)]
                supports[:] = -1  # the next read must not see this
            for row in rows[lo:hi]:
                tl.add_transaction(add_row(db, row))
        assert tl.supports().tolist() == [len(tl.tidset(i)) for i in range(tl.n_items)]
        assert tl == TradeList.build(full)


class TestBitmap:
    def test_store9_bitmaps(self, store9_db):
        tl = TradeList.build(store9_db)
        i1 = store9_db.items.ordinal("I1")
        assert tl.bitmap(i1) == 0b111011001  # T100, T400, T500, T700, T800, T900
        assert [tl.bitmap(i) for i in range(tl.n_items)] == [
            fresh_bitmap(tl, i) for i in range(tl.n_items)
        ]

    def test_read_extends_by_the_appended_tids(self, store9_db):
        tl = TradeList.build(store9_db)
        assert tl.bitmap_tids == 0
        i1, i4 = (store9_db.items.ordinal(label) for label in ("I1", "I4"))
        tl.bitmap(i1)
        assert tl.bitmap_tids == 6
        tl.bitmap(i1)
        assert tl.bitmap_tids == 6
        tl.add_transaction(store9_db.add_transaction("T910", ["I1", "I4"]))
        assert tl.bitmap_tids == 6  # appending converts nothing
        assert tl.bitmap(i1) == fresh_bitmap(tl, i1)
        assert tl.bitmap_tids == 7
        assert tl.bitmap(i4) == fresh_bitmap(tl, i4)
        assert tl.bitmap_tids == 10

    def test_item_with_no_tids(self, store9_db):
        tl = TradeList(store9_db)  # sized to the database's items, nothing indexed
        assert tl.bitmap(0) == 0
        assert tl.bitmap_tids == 0

    def test_unknown_item_raises(self, store9_db):
        with pytest.raises(UnknownItemError):
            TradeList.build(store9_db).bitmap(5)

    def test_equality_ignores_the_cache(self, store9_db):
        warm, cold = TradeList.build(store9_db), TradeList.build(store9_db)
        for i in range(warm.n_items):
            warm.bitmap(i)
        assert warm == cold

    @settings(deadline=None)
    @given(rows=db_rows(max_tx=40, max_items=6), data=st.data())
    def test_appends_between_reads_match_fresh_bitmaps(self, rows, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4), label="cuts"))
        db = db_from_rows(rows[: cuts[0] if cuts else len(rows)])
        tl = TradeList.build(db)
        full = db_from_rows(rows)
        covered = {}
        for lo, hi in zip(cuts, cuts[1:] + [len(rows)]):
            read = data.draw(st.sets(st.integers(0, tl.n_items)), label="read")
            for item in sorted(read & set(range(tl.n_items))):
                before = tl.bitmap_tids
                assert tl.bitmap(item) == fresh_bitmap(tl, item)
                assert tl.bitmap_tids - before == len(tl.tidset(item)) - covered.get(item, 0)
                covered[item] = len(tl.tidset(item))
            for row in rows[lo:hi]:
                tl.add_transaction(add_row(db, row))
        assert [tl.bitmap(i) for i in range(tl.n_items)] == [
            fresh_bitmap(tl, i) for i in range(tl.n_items)
        ]


class TestInvariants:
    @settings(deadline=None)
    @given(rows=db_rows(max_tx=15, max_items=8))
    def test_sum_of_lengths_conservation(self, rows):
        db = db_from_rows(rows)
        tl = TradeList.build(db)
        index_total = sum(len(tl.tidset(i)) for i in range(tl.n_items))
        assert index_total == sum(len(tx) for tx in db.transactions)

    @settings(deadline=None)
    @given(rows=db_rows(max_tx=10, max_items=8))
    def test_tidsets_strictly_increasing(self, rows):
        tl = TradeList.build(db_from_rows(rows))
        for i in range(tl.n_items):
            ts = list(tl.tidset(i))
            assert ts == sorted(set(ts))
            assert all(t < tl.n_transactions for t in ts)


class TestSerializeLog:
    def test_store9_first_line(self, store9_db):
        log = TradeList.build(store9_db).serialize_log()
        assert log.splitlines()[0] == "I1 = T100, T400, T500, T700, T800, T900"

    def test_store9_full_log_order_is_first_appearance(self, store9_db):
        log = TradeList.build(store9_db).serialize_log()
        assert [line.split(" = ")[0] for line in log.splitlines()] == [
            "I1", "I2", "I5", "I4", "I3",
        ]

    def test_trailing_newline(self, store9_db):
        assert TradeList.build(store9_db).serialize_log().endswith("T900\n")

    @pytest.mark.parametrize("shrink", ["items", "tids"])
    def test_labels_missing_from_database_raise(self, store9_db, shrink):
        tl = TradeList.build(store9_db)
        getattr(store9_db, shrink).truncate(4)
        with pytest.raises(UnknownItemError):
            tl.serialize_log()

    def test_items_added_after_build_are_not_logged(self, store9_db):
        tl = TradeList.build(store9_db)
        before = tl.serialize_log()
        store9_db.add_transaction("T910", ["I9"])
        assert tl.serialize_log() == before

    @settings(deadline=None)
    @given(rows=db_rows(max_tx=10, max_items=8))
    def test_log_round_trips(self, rows):
        db = db_from_rows(rows)
        tl = TradeList.build(db)
        parsed = read_tradelist_log(tl.serialize_log())
        expected = {
            db.items.label(i): [db.tids.label(t) for t in tl.tidset(i)]
            for i in range(tl.n_items)
        }
        assert parsed == expected


def test_update_file_flow(store9_db, store10_db):
    """parse_into + add_transaction reproduces a from-scratch build exactly."""
    tl = TradeList.build(store9_db)
    for tx in parse_into(store9_db, "T910,I1,I4\n"):
        tl.add_transaction(tx)
    assert tl == TradeList.build(store10_db)
    assert store9_db == store10_db
