import random
from itertools import count

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from basketmine import miner
from basketmine.apriori import mine_apriori
from basketmine.ingest import SyntheticSpec, generate_synthetic, parse_into
from basketmine.miner import MineResult, mine, remine
from basketmine.model import Database, SupportThreshold, ThresholdError
from basketmine.tradelist import TradeList

from oracles import brute_frequents, db_from_rows, db_rows


def label_sets(db, result):
    return {
        (tuple(db.items.label(i) for i in fi.itemset), fi.support) for fi in result
    }


def as_label_levels(db, result):
    return [
        [(tuple(db.items.label(i) for i in fi.itemset), fi.support) for fi in level]
        for level in result.levels
    ]


class TestMine:
    def test_store9_minsupp2(self, store9_db):
        result = mine(TradeList.build(store9_db), 2)
        assert as_label_levels(store9_db, result) == [
            [(("I1",), 6), (("I2",), 7), (("I5",), 2), (("I4",), 2), (("I3",), 6)],
            [
                (("I1", "I2"), 4),
                (("I1", "I5"), 2),
                (("I1", "I3"), 4),
                (("I2", "I5"), 2),
                (("I2", "I4"), 2),
                (("I2", "I3"), 4),
            ],
            [(("I1", "I2", "I5"), 2), (("I1", "I2", "I3"), 2)],
        ]
        assert result.n_itemsets == 13
        assert result.stats.raw_passes == 0
        assert result.stats.intersections > 0
        assert result.stats.containment_checks == 0

    def test_store10_minsupp2_has_fourteen(self, store10_db):
        result = mine(TradeList.build(store10_db), 2)
        assert result.n_itemsets == 14
        assert [len(level) for level in result.levels] == [5, 7, 2]
        labelled = label_sets(store10_db, result)
        assert (("I1", "I4"), 2) in labelled
        assert (("I2", "I4"), 2) in labelled
        triples = {itemset for itemset, _ in labelled if len(itemset) == 3}
        assert triples == {("I1", "I2", "I5"), ("I1", "I2", "I3")}

    def test_threshold_above_database_size(self, store9_db):
        result = mine(TradeList.build(store9_db), 10)
        assert result.levels == []
        assert result.n_itemsets == 0

    def test_minsupp_one_equals_brute_force(self, store9_db):
        result = mine(TradeList.build(store9_db), 1)
        assert result.pairs() == brute_frequents(store9_db, 1)

    def test_fractional_threshold(self, store9_db):
        # ceil(0.25 * 9) = 3
        frac = mine(TradeList.build(store9_db), SupportThreshold.fractional("0.25"))
        assert frac.pairs() == mine(TradeList.build(store9_db), 3).pairs()

    @pytest.mark.parametrize("threshold", [2.9, 0.05])
    def test_bare_float_threshold_rejected(self, store9_db, threshold):
        # 2.9 once truncated to 2 and 0.05 to 0; neither is a count.
        with pytest.raises(ThresholdError, match="SupportThreshold.fractional"):
            mine(TradeList.build(store9_db), threshold)

    def test_bool_threshold_rejected(self, store9_db):
        # True once counted as a support of 1.
        with pytest.raises(ThresholdError):
            mine(TradeList.build(store9_db), True)

    def test_empty_tradelist(self):
        result = mine(TradeList.build(Database()), 2)
        assert result.levels == []
        with pytest.raises(ThresholdError):
            mine(TradeList.build(Database()), SupportThreshold.fractional("0.5"))

    def test_deterministic_across_runs(self, store10_db):
        tl = TradeList.build(store10_db)
        a, b = mine(tl, 2), mine(tl, 2)
        assert a.levels == b.levels
        assert a.stats.intersections == b.stats.intersections

    @pytest.mark.parametrize(
        "fixture,expected",
        [("store9_db", [17, 13, 4]), ("store10_db", [16, 13, 7])],
    )
    def test_intersection_counts_pinned(self, fixture, expected, request):
        # One tick per candidate extension; singletons cost none.
        tl = TradeList.build(request.getfixturevalue(fixture))
        assert [mine(tl, minsupp).stats.intersections for minsupp in (1, 2, 3)] == expected


class TestRemine:
    def test_store9_minsupp3(self, store9_db):
        tl = TradeList.build(store9_db)
        mine(tl, 2)  # first mining at the original threshold
        result = remine(tl, 3)
        assert as_label_levels(store9_db, result) == [
            [(("I1",), 6), (("I2",), 7), (("I3",), 6)],
            [(("I1", "I2"), 4), (("I1", "I3"), 4), (("I2", "I3"), 4)],
        ]
        assert result.stats.raw_passes == 0
        assert tl.raw_passes == 1

    @settings(deadline=None, max_examples=50)
    @given(rows=db_rows(max_tx=10, max_items=8), minsupp=st.integers(1, 5))
    def test_remine_equals_mine(self, rows, minsupp):
        tl = TradeList.build(db_from_rows(rows))
        assert remine(tl, minsupp).levels == mine(tl, minsupp).levels


class TestProperties:
    @settings(deadline=None, max_examples=80)
    @given(rows=db_rows(max_tx=10, max_items=8), minsupp=st.integers(1, 4))
    def test_oracle_equivalence(self, rows, minsupp):
        db = db_from_rows(rows)
        result = mine(TradeList.build(db), minsupp)
        assert result.pairs() == brute_frequents(db, minsupp)

    @settings(deadline=None, max_examples=60)
    @given(rows=db_rows(max_tx=10, max_items=8), minsupp=st.integers(1, 4))
    def test_downward_closure_and_antimonotone_support(self, rows, minsupp):
        from itertools import combinations

        db = db_from_rows(rows)
        tl = TradeList.build(db)
        supports = mine(tl, minsupp).support_map()
        for itemset, support in supports.items():
            assert support <= min(len(tl.tidset(i)) for i in itemset)
            for size in range(1, len(itemset)):
                for sub in combinations(itemset, size):
                    assert sub in supports
                    assert supports[sub] >= support

    @settings(deadline=None, max_examples=60)
    @given(rows=db_rows(max_tx=10, max_items=8), minsupp=st.integers(1, 4))
    def test_threshold_monotonicity(self, rows, minsupp):
        tl = TradeList.build(db_from_rows(rows))
        assert mine(tl, minsupp + 1).pairs() <= mine(tl, minsupp).pairs()

    @settings(deadline=None, max_examples=60)
    @given(rows=db_rows(max_tx=10, max_items=8))
    def test_itemsets_are_canonical(self, rows):
        result = mine(TradeList.build(db_from_rows(rows)), 1)
        for k, level in enumerate(result.levels, 1):
            itemsets = [fi.itemset for fi in level]
            assert itemsets == sorted(itemsets)
            assert all(len(s) == k for s in itemsets)
            assert all(list(s) == sorted(set(s)) for s in itemsets)


#: The fewest frequent items that make the level-wise kernel's pair count.
LEVELWISE_MIN_ITEMS = next(m for m in count(2) if m * (m - 1) // 2 >= miner.LEVELWISE_MIN_PAIRS)


def grow_both(tl, minsupp):
    """``_depth_first`` and ``_levelwise`` called directly, on what ``mine`` feeds them.

    Yields each one's levels from 2 up, read back as records through the
    checked ``MineResult`` constructor, and its count.
    """
    result = mine(tl, minsupp)
    singles = sorted(result.level(1), key=lambda fi: fi.support)  # stable
    order = [fi.itemset[0] for fi in singles]
    bitmaps = [tl.bitmap(i) for i in order]
    for grow in (miner._depth_first, miner._levelwise):
        levels, n_intersections = grow(order, bitmaps, minsupp)
        itemsets, supports = zip((result.itemsets[0], result.supports[0]), *levels)
        yield MineResult(list(itemsets), list(supports), result.stats).levels[1:], n_intersections


def nth_support(tl, n):
    """The n-th largest item support: at least n items reach it."""
    return sorted(tl.supports().tolist(), reverse=True)[n - 1]


class TestLevelwise:
    """The level-wise kernel tests the depth-first search's candidates and finds its itemsets."""

    @pytest.mark.parametrize(
        "spec,minsupp,m,levelwise",
        [
            ((400, 12, 4, 2), 8, 12, False),  # 66 pairs
            ((500, 20, 5, 9), 10, 20, False),  # 190 pairs
            ((500, 25, 5, 9), 10, 25, True),  # 300 pairs
            ((600, 40, 5, 4), 20, 39, True),  # 741 pairs
        ],
        ids=["400,12,4,2", "500,20,5,9", "500,25,5,9", "600,40,5,4"],
    )
    def test_mine_equals_apriori_and_both_growers(self, spec, minsupp, m, levelwise):
        db = generate_synthetic(SyntheticSpec(*spec))
        tl = TradeList.build(db)
        result = mine(tl, minsupp)
        assert len(result.level(1)) == m
        assert (m >= LEVELWISE_MIN_ITEMS) is levelwise
        assert result.levels == mine_apriori(db, minsupp).levels
        (dfs, dfs_ops), (lw, lw_ops) = grow_both(tl, minsupp)
        assert dfs == lw == result.levels[1:]
        assert dfs_ops == lw_ops == result.stats.intersections

    def test_counters_pinned_above_the_crossover(self):
        # Recorded with the depth-first search alone.
        tl = TradeList.build(generate_synthetic(SyntheticSpec(2000, 30, 6, 5)))
        result = mine(tl, SupportThreshold.fractional("0.02"))
        assert len(result.level(1)) >= LEVELWISE_MIN_ITEMS
        assert [len(level) for level in result.levels] == [30, 232, 399, 240, 45, 1]
        assert result.n_itemsets == 947
        assert result.stats.intersections == 1830
        assert result.stats.bitmap_tids == 11959

    def test_level_larger_than_one_block(self):
        tl = TradeList.build(generate_synthetic(SyntheticSpec(20000, 24, 4, 1)))
        result = mine(tl, 200)
        assert len(result.level(1)) >= LEVELWISE_MIN_ITEMS
        words = (tl.n_transactions + 63) // 64
        m = len(result.level(1))
        assert m * (m - 1) // 2 > miner._BLOCK_WORDS // words  # level 2 spans blocks
        (dfs, dfs_ops), (lw, lw_ops) = grow_both(tl, 200)
        assert dfs == lw == result.levels[1:]
        assert dfs_ops == lw_ops == result.stats.intersections == 1248
        assert [len(level) for level in result.levels] == [24, 185, 262, 115, 11]


def wide_rows(n_tx, n_items, lead, seed, skew=0):
    """``n_tx`` random rows; items ``n_items // 2`` and up are absent before row ``lead``.

    Item x is drawn with probability ``0.4 / (x + 1) ** skew``.
    """
    rng = random.Random(seed)
    late = n_items // 2
    rows = []
    for t in range(n_tx):
        pool = range(n_items) if t >= lead else range(max(late, 1))
        row = sorted(x for x in pool if rng.random() < 0.4 / (x + 1) ** skew)
        rows.append(row or [rng.randrange(len(pool))])
    return rows


wide_databases = st.builds(
    lambda n_tx, n_items, lead_share, seed: wide_rows(
        n_tx, n_items, int(lead_share * n_tx), seed
    ),
    n_tx=st.integers(65, 400),
    n_items=st.integers(2, 7),
    lead_share=st.floats(0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)

# Enough items for the level-wise kernel, skewed so that the lattice stays
# small at the thresholds that keep enough of them frequent for it.
many_item_databases = st.builds(
    lambda n_tx, n_items, lead_share, seed: wide_rows(
        n_tx, n_items, int(lead_share * n_tx), seed, skew=0.5
    ),
    n_tx=st.integers(65, 300),
    n_items=st.integers(24, 32),
    lead_share=st.floats(0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)


class TestBitmapKernel:
    """Bitmaps spanning several 64-bit words, with items that start late."""

    @settings(deadline=None, max_examples=30)
    @given(rows=wide_databases, minsupp_share=st.floats(0.01, 0.6))
    def test_oracle_equivalence_multiword(self, rows, minsupp_share):
        db = db_from_rows(rows)
        minsupp = max(1, int(minsupp_share * len(rows)))
        assert mine(TradeList.build(db), minsupp).pairs() == brute_frequents(db, minsupp)

    @settings(deadline=None, max_examples=30)
    @given(
        rows=wide_databases,
        split_share=st.floats(0, 1),
        minsupp_share=st.floats(0.01, 0.6),
    )
    def test_grown_index_remines_like_rebuild(self, rows, split_share, minsupp_share):
        minsupp = max(1, int(minsupp_share * len(rows)))
        remine_grown_and_rebuilt(rows, int(split_share * len(rows)), minsupp)

    @settings(deadline=None, max_examples=20)
    @given(rows=many_item_databases, split_share=st.floats(0, 1), data=st.data())
    def test_grown_index_remines_like_rebuild_levelwise(self, rows, split_share, data):
        full = TradeList.build(db_from_rows(rows))
        assume(full.n_items >= LEVELWISE_MIN_ITEMS)
        rank = data.draw(st.integers(LEVELWISE_MIN_ITEMS, full.n_items), label="rank")
        minsupp = nth_support(full, rank)
        grown = remine_grown_and_rebuilt(rows, int(split_share * len(rows)), minsupp)
        assert len(grown.level(1)) >= LEVELWISE_MIN_ITEMS


def remine_grown_and_rebuilt(rows, split, minsupp):
    """Build on ``rows[:split]``, mine, append the rest, and re-mine like a rebuild."""
    db = db_from_rows(rows[:split])
    tl = TradeList.build(db)
    if split:
        mine(tl, minsupp)
    for t, row in enumerate(rows[split:], start=split):
        tl.add_transaction(db.add_transaction(f"T{t + 1}", [f"I{i}" for i in row]))
    rebuilt = TradeList.build(db)
    assert tl == rebuilt
    grown, fresh = remine(tl, minsupp), mine(rebuilt, minsupp)
    assert grown.levels == fresh.levels
    assert grown.stats.intersections == fresh.stats.intersections
    return grown


def fresh_bitmap(tl, item):
    return sum(1 << t for t in tl.tidset(item))


class TestBitmapCache:
    """Bitmaps stay cached across mines; a re-mine converts only appended TIDs."""

    def test_fresh_index_converts_the_frequent_supports(self, store9_db):
        result = mine(TradeList.build(store9_db), 2)
        assert result.stats.bitmap_tids == sum(fi.support for fi in result.level(1)) == 23

    def test_repeated_mine_converts_nothing(self, store9_db):
        tl = TradeList.build(store9_db)
        first, again = mine(tl, 2), mine(tl, 2)
        assert again.stats.bitmap_tids == 0
        assert again.levels == first.levels
        assert again.stats.intersections == first.stats.intersections

    def test_batch_converts_the_entries_appended_since_the_last_read(self, store9_db):
        tl = TradeList.build(store9_db)
        mine(tl, 2)  # reads all five items
        for tx in parse_into(store9_db, "T910,I1,I4\nT920,I2,I4,I5\n"):
            tl.add_transaction(tx)
        # At 5 only I1, I2 and I3 are frequent: T910 and T920 add one entry
        # each to I1 and I2, none to I3.
        assert remine(tl, 5).stats.bitmap_tids == 2
        # I1 and I2 are current; I4 gained two entries and I5 one.
        assert remine(tl, 2).stats.bitmap_tids == 3
        assert remine(tl, 2).stats.bitmap_tids == 0

    def test_single_frequent_item_needs_no_bitmap(self, store9_db):
        result = mine(TradeList.build(store9_db), 7)
        assert result.n_itemsets == 1
        assert result.stats.bitmap_tids == 0

    @settings(deadline=None, max_examples=40)
    @given(rows=wide_databases, data=st.data())
    def test_interleaved_appends_and_mines_match_rebuild(self, rows, data):
        def draw_minsupp(tl):
            return data.draw(st.integers(1, tl.n_transactions), label="minsupp")

        interleave_appends_and_mines(rows, data, draw_minsupp)

    @settings(deadline=None, max_examples=20)
    @given(rows=many_item_databases, data=st.data())
    def test_interleaved_appends_and_mines_match_rebuild_levelwise(self, rows, data):
        def draw_minsupp(tl):
            # Enough frequent items for the level-wise kernel, once the index
            # holds that many.
            low = min(LEVELWISE_MIN_ITEMS, tl.n_items)
            return nth_support(tl, data.draw(st.integers(low, tl.n_items), label="rank"))

        interleave_appends_and_mines(rows, data, draw_minsupp)


def interleave_appends_and_mines(rows, data, draw_minsupp):
    """Build on a first slice of ``rows``, then mine and append a slice at a time.

    Each re-mine must equal a rebuild's, and convert only what was appended
    to the frequent items since their bitmaps were last read.
    """
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=5), label="cuts"))
    bounds = [0, *cuts, len(rows)]
    # The first slice is built; each later one is appended after a mine.
    db = db_from_rows(rows[: bounds[1]])
    tl = TradeList.build(db)
    covered: dict[int, int] = {}  # what the cache should cover, per item
    for lo, hi in zip(bounds[1:], bounds[2:] + [None]):
        if tl.n_transactions:
            minsupp = draw_minsupp(tl)
            grown, fresh = remine(tl, minsupp), mine(TradeList.build(db), minsupp)
            assert grown.levels == fresh.levels
            assert grown.stats.intersections == fresh.stats.intersections
            frequent = [fi.itemset[0] for fi in grown.level(1)]
            if len(frequent) > 1:
                expected = sum(len(tl.tidset(i)) - covered.get(i, 0) for i in frequent)
                assert grown.stats.bitmap_tids == expected
                assert fresh.stats.bitmap_tids == sum(len(tl.tidset(i)) for i in frequent)
                covered.update((i, len(tl.tidset(i))) for i in frequent)
            else:
                assert grown.stats.bitmap_tids == fresh.stats.bitmap_tids == 0
            if data.draw(st.booleans(), label="read every cached bitmap"):
                for item in covered:
                    assert tl.bitmap(item) == fresh_bitmap(tl, item)
                    covered[item] = len(tl.tidset(item))
        for t, row in enumerate(rows[lo:hi], start=lo):
            tl.add_transaction(db.add_transaction(f"T{t + 1}", [f"I{i}" for i in row]))
