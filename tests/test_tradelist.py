from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketmine.ingest import parse_database, parse_into
from basketmine.model import Database, DuplicateTidError, MiningError, UnknownItemError
from basketmine.tradelist import TradeList

from oracles import brute_tidset, db_from_rows, db_rows, read_tradelist_log


def tid_labels(db, tidset):
    return [db.tids.label(t) for t in tidset]


class TestBuild:
    def test_store9_tidsets(self, store9_db):
        tl = TradeList.build(store9_db)
        i1 = store9_db.items.ordinal("I1")
        assert tid_labels(store9_db, tl.tidset(i1)) == [
            "T100", "T400", "T500", "T700", "T800", "T900",
        ]
        assert tl.item_support(store9_db.items.ordinal("I4")) == 2
        assert tl.item_support(store9_db.items.ordinal("I5")) == 2

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
        tl.tidset_of([0, 1])
        tl.item_support(0)
        assert tl.raw_passes == 1


class TestAddTransaction:
    def test_t910_updates_counts(self, store9_db):
        tl = TradeList.build(store9_db)
        tx = store9_db.add_transaction("T910", ["I1", "I4"])
        tl.add_transaction(tx)
        assert tl.item_support(store9_db.items.ordinal("I4")) == 3
        assert tl.item_support(store9_db.items.ordinal("I1")) == 7
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
        assert tl.item_support(store9_db.items.ordinal("I9")) == 1

    def test_duplicate_ordinal_rejected(self, store9_db):
        tl = TradeList.build(store9_db)
        with pytest.raises(DuplicateTidError):
            tl.add_transaction(store9_db.transactions[0])

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
        for tx in full.transactions[cut:]:
            tl.add_transaction(tx)
        assert tl == TradeList.build(full)


class TestQueries:
    def test_item_support_counts(self, store9_db):
        tl = TradeList.build(store9_db)
        assert tl.item_support(store9_db.items.ordinal("I1")) == 6
        assert tl.item_support(store9_db.items.ordinal("I2")) == 7

    def test_unknown_item(self, store9_db):
        tl = TradeList.build(store9_db)
        with pytest.raises(UnknownItemError):
            tl.item_support(99)
        with pytest.raises(UnknownItemError):
            tl.tidset_of([0, 99])

    def test_pair_intersection_count(self, store9_db):
        tl = TradeList.build(store9_db)
        pair = [store9_db.items.ordinal("I1"), store9_db.items.ordinal("I2")]
        assert len(tl.tidset_of(pair)) == 4

    def test_singleton_is_items_own_tidset(self, store9_db):
        tl = TradeList.build(store9_db)
        i1 = store9_db.items.ordinal("I1")
        assert tl.tidset_of([i1]) == list(tl.tidset(i1))

    def test_triple(self, store9_db):
        tl = TradeList.build(store9_db)
        triple = [store9_db.items.ordinal(x) for x in ("I1", "I2", "I3")]
        assert tid_labels(store9_db, tl.tidset_of(triple)) == ["T800", "T900"]

    def test_empty_itemset_rejected(self, store9_db):
        with pytest.raises(MiningError):
            TradeList.build(store9_db).tidset_of([])

    def test_order_insensitive(self, store9_db):
        tl = TradeList.build(store9_db)
        triple = [store9_db.items.ordinal(x) for x in ("I1", "I2", "I5")]
        expected = tl.tidset_of(triple)
        for perm in permutations(triple):
            assert tl.tidset_of(perm) == expected

    def test_matches_brute_force_up_to_size_4(self, store9_db):
        tl = TradeList.build(store9_db)
        universe = range(len(store9_db.items))
        for size in range(1, 5):
            for combo in combinations(universe, size):
                assert tl.tidset_of(combo) == brute_tidset(store9_db, combo)

    @settings(deadline=None)
    @given(rows=db_rows(max_tx=12, max_items=6))
    def test_brute_force_oracle_on_random_databases(self, rows):
        db = db_from_rows(rows)
        tl = TradeList.build(db)
        for size in range(1, min(4, len(db.items)) + 1):
            for combo in combinations(range(len(db.items)), size):
                assert tl.tidset_of(combo) == brute_tidset(db, combo)

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
                bigger = tl.tidset_of(small + (extra,))
                assert set(bigger) <= set(tl.tidset_of(small))


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
