from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketmine import apriori
from basketmine.apriori import count_support, generate_candidates, mine_apriori
from basketmine.ingest import SyntheticSpec, generate_synthetic
from basketmine.miner import mine
from basketmine.model import Database, MiningError
from basketmine.tradelist import TradeList

from oracles import brute_frequents, db_from_rows, db_rows


class TestGenerateCandidates:
    def test_singletons_join_to_all_pairs(self):
        assert generate_candidates([(0,), (1,), (2,)]) == [(0, 1), (0, 2), (1, 2)]

    def test_triple_survives_when_all_pairs_frequent(self):
        assert generate_candidates([(0, 1), (0, 2), (1, 2)]) == [(0, 1, 2)]

    def test_triple_pruned_when_a_pair_is_missing(self):
        assert generate_candidates([(0, 1), (0, 2)]) == []

    def test_empty_input(self):
        assert generate_candidates([]) == []

    def test_join_requires_shared_prefix(self):
        # (0,1) and (2,3) share no 1-prefix, so no join at all.
        assert generate_candidates([(0, 1), (2, 3)]) == []

    @settings(max_examples=200)
    @given(
        data=st.data(),
        k=st.integers(1, 4),
        n_items=st.integers(1, 7),
    )
    def test_canonical_in_canonical_out(self, data, k, n_items):
        # Exactly the (k+1)-itemsets whose every k-subset is given, in
        # canonical order with no sort, when the input is canonical.
        every = list(combinations(range(n_items), k))
        frequents = sorted(data.draw(st.sets(st.sampled_from(every))) if every else [])
        known = set(frequents)
        expected = [
            c
            for c in combinations(range(n_items), k + 1)
            if all(sub in known for sub in combinations(c, k))
        ]
        assert generate_candidates(frequents) == expected


class TestCountSupport:
    def test_pair_count(self, store9_db):
        i1, i2 = store9_db.items.labels().index("I1"), store9_db.items.labels().index("I2")
        assert count_support(store9_db, [tuple(sorted((i1, i2)))]) == [4]

    def test_triple_count(self, store9_db):
        ords = tuple(sorted(store9_db.items.labels().index(x) for x in ("I1", "I2", "I4")))
        assert count_support(store9_db, [ords]) == [1]

    def test_no_itemsets_no_counts(self, store9_db):
        assert count_support(store9_db, []) == []

    def test_candidates_of_different_lengths_rejected(self, store9_db):
        with pytest.raises(MiningError):
            count_support(store9_db, [(0, 1), (2,), (0, 1, 3)])

    @pytest.mark.parametrize("itemsets", [[()], [(), ()]])
    def test_empty_itemset_rejected(self, store9_db, itemsets):
        with pytest.raises(MiningError):
            count_support(store9_db, itemsets)

    def test_supports_are_python_ints(self, store9_db):
        counts = count_support(store9_db, [(0, 1), (1, 2)])
        assert [type(c) for c in counts] == [int, int]
        result = mine_apriori(store9_db, 2)
        assert {type(fi.support) for fi in result} == {int}

    def test_row_appended_between_calls_is_counted(self, store9_db):
        # Nothing from a pass outlives it, so the next pass reads the new row.
        (before,) = count_support(store9_db, [(0, 1)])
        store9_db.add_transaction("T999", [store9_db.items.label(0), store9_db.items.label(1)])
        assert count_support(store9_db, [(0, 1)]) == [before + 1]
        assert mine_apriori(store9_db, 2).pairs() == brute_frequents(store9_db, 2)

    @pytest.mark.parametrize("cells", [1, 7])
    def test_block_size_changes_no_count(self, store9_db, monkeypatch, cells):
        # 7 rows at level 1 leave a short last block of store9's 9 rows.
        itemsets = [(0, 1), (0, 2), (1, 3), (2, 4)]
        wanted = count_support(store9_db, itemsets)
        expected = mine_apriori(store9_db, 2)
        monkeypatch.setattr(apriori, "_BLOCK_CELLS", cells)
        assert count_support(store9_db, itemsets) == wanted
        result = mine_apriori(store9_db, 2)
        assert result.levels == expected.levels
        assert result.stats.raw_passes == expected.stats.raw_passes
        assert result.stats.containment_checks == expected.stats.containment_checks

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), rows=db_rows(max_tx=30, max_items=8), ghost=st.booleans())
    def test_counts_match_direct_subset_tests(self, data, rows, ghost):
        db = db_from_rows(rows)
        if ghost:
            db.items._intern("ghost")  # an item no row contains
        # Ordinals from two below zero to two past the dictionary: no row
        # can hold those outside it.
        k = data.draw(st.integers(1, min(4, len(db.items) + 4)), label="k")
        itemsets = data.draw(
            st.lists(
                st.sets(st.integers(-2, len(db.items) + 1), min_size=k, max_size=k).map(
                    lambda s: tuple(sorted(s))
                ),
                max_size=12,
                unique=True,
            ),
            label="itemsets",
        )
        cells = data.draw(st.sampled_from([1, 7, 40, apriori._BLOCK_CELLS]), label="cells")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(apriori, "_BLOCK_CELLS", cells)
            counts = count_support(db, itemsets)
        direct = [sum(set(c) <= set(items) for items in db.transactions) for c in itemsets]
        assert counts == direct


def spy_row_blocks(monkeypatch):
    """Record the row count of each block that each call of ``_row_blocks`` yields."""
    calls = []
    real = apriori._row_blocks

    def spy(transactions, row_cells):
        blocks = []
        calls.append(blocks)
        for lengths, items in real(transactions, row_cells):
            blocks.append(len(lengths))
            yield lengths, items

    monkeypatch.setattr(apriori, "_row_blocks", spy)
    return calls


class TestBlocksOfSeveralWords:
    """Blocks of more than 64 rows pack into several words, the last partial."""

    @pytest.mark.parametrize("cells", [apriori._BLOCK_CELLS, 8000])
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_counts_match_direct_subset_tests(self, monkeypatch, cells, k):
        db = generate_synthetic(SyntheticSpec(200, 40, 8, 3))
        frequent = mine(TradeList.build(db), 4).itemsets[k - 2]
        itemsets = generate_candidates(list(map(tuple, frequent.tolist())))
        calls = spy_row_blocks(monkeypatch)
        monkeypatch.setattr(apriori, "_BLOCK_CELLS", cells)
        counts = count_support(db, itemsets)
        # Every block, and so its last word, ends mid-word; at the small
        # size the pass takes several blocks of more than one word.
        (blocks,) = calls
        assert sum(blocks) == db.n_transactions == 200
        assert all(rows % 64 for rows in blocks)
        if cells < apriori._BLOCK_CELLS:
            assert len(blocks) > 1 and blocks[0] > 64
        rows = [set(items) for items in db.transactions]
        assert counts == [sum(set(c) <= row for row in rows) for c in itemsets]


class TestOnePassPerLevel:
    """Each counted level reads every row afresh, through one ``_row_blocks`` call."""

    def test_count_support_reads_the_rows_once(self, store9_db, monkeypatch):
        calls = spy_row_blocks(monkeypatch)
        count_support(store9_db, [(0, 1), (1, 2)])
        count_support(store9_db, [(0, 1, 2)])
        assert [sum(blocks) for blocks in calls] == [store9_db.n_transactions] * 2

    @pytest.mark.parametrize("minsupp", [1, 2, 10])
    def test_mine_apriori_reads_them_once_per_raw_pass(self, store9_db, monkeypatch, minsupp):
        calls = spy_row_blocks(monkeypatch)
        result = mine_apriori(store9_db, minsupp)
        assert len(calls) == result.stats.raw_passes
        assert all(sum(blocks) == store9_db.n_transactions for blocks in calls)

    def test_mine_apriori_over_several_blocks(self, monkeypatch):
        db = generate_synthetic(SyntheticSpec(200, 12, 5, 3))
        calls = spy_row_blocks(monkeypatch)
        monkeypatch.setattr(apriori, "_BLOCK_CELLS", 150)
        result = mine_apriori(db, 4)
        assert len(result.itemsets) > 3
        assert len(calls) == result.stats.raw_passes
        assert all(sum(blocks) == 200 and len(blocks) > 1 for blocks in calls)


def recount(db, minsupp):
    """``(raw_passes, containment_checks)`` rebuilt from the level-wise parts.

    Level 1 is one pass charged one check per item read; every non-empty
    candidate level after it is one pass charged ``|C_k| * |D|`` checks.
    """
    raw_passes, checks = 1, sum(len(tx) for tx in db.transactions)
    singles = [(item,) for item in range(len(db.items))]
    frequent = [s for s, n in zip(singles, count_support(db, singles)) if n >= minsupp]
    while candidates := generate_candidates(frequent):
        raw_passes += 1
        checks += len(candidates) * db.n_transactions
        frequent = [c for c, n in zip(candidates, count_support(db, candidates)) if n >= minsupp]
    return raw_passes, checks


class TestMineApriori:
    def test_store10_minsupp2(self, store10_db):
        result = mine_apriori(store10_db, 2)
        assert result.n_itemsets == 14
        assert [len(level) for level in result.levels] == [5, 7, 2]
        assert result.pairs() == mine(TradeList.build(store10_db), 2).pairs()

    def test_store9_equal_to_tidset_miner(self, store9_db):
        assert (
            mine_apriori(store9_db, 2).levels
            == mine(TradeList.build(store9_db), 2).levels
        )

    def test_store9_raw_passes(self, store9_db):
        # one pass per counted level: singles, pairs, triples; the candidate
        # generation for level 4 comes up empty, so no fourth scan.
        result = mine_apriori(store9_db, 2)
        assert result.stats.raw_passes == 3
        assert result.stats.intersections == 0
        assert result.stats.containment_checks > 0

    @pytest.mark.parametrize("minsupp", [1, 2, 3, 10])
    def test_counters_recomputed_from_the_passes(self, store9_db, minsupp):
        stats = mine_apriori(store9_db, minsupp).stats
        assert (stats.raw_passes, stats.containment_checks) == recount(store9_db, minsupp)

    @settings(deadline=None, max_examples=80)
    @given(rows=db_rows(max_tx=12, max_items=8), minsupp=st.integers(1, 4))
    def test_counters_recomputed_on_random_databases(self, rows, minsupp):
        db = db_from_rows(rows)
        stats = mine_apriori(db, minsupp).stats
        assert (stats.raw_passes, stats.containment_checks) == recount(db, minsupp)

    def test_no_frequent_singles_is_one_pass(self, store9_db):
        result = mine_apriori(store9_db, 10)
        assert result.levels == []
        assert result.stats.raw_passes == 1

    def test_final_fruitless_pass_is_counted(self):
        db = db_from_rows([[0, 1], [0], [1]])
        # Both singles reach support 2, the lone pair candidate reaches only 1,
        # and the scan that discovered that still counts.
        result = mine_apriori(db, 2)
        assert [len(level) for level in result.levels] == [2]
        assert result.stats.raw_passes == 2

    def test_empty_database(self):
        result = mine_apriori(Database(), 2)
        assert result.levels == []
        assert result.stats.raw_passes == 1

    @settings(deadline=None, max_examples=80)
    @given(rows=db_rows(max_tx=10, max_items=8), minsupp=st.integers(1, 4))
    def test_oracle_equivalence(self, rows, minsupp):
        db = db_from_rows(rows)
        assert mine_apriori(db, minsupp).pairs() == brute_frequents(db, minsupp)

    @settings(deadline=None, max_examples=50)
    @given(rows=db_rows(max_tx=10, max_items=8), minsupp=st.integers(1, 4))
    def test_levels_identical_to_tidset_miner(self, rows, minsupp):
        db = db_from_rows(rows)
        assert (
            mine_apriori(db, minsupp).levels
            == mine(TradeList.build(db), minsupp).levels
        )

    @settings(deadline=None, max_examples=50)
    @given(rows=db_rows(max_tx=10, max_items=7), minsupp=st.integers(1, 3))
    def test_prune_never_drops_a_frequent_candidate(self, rows, minsupp):
        db = db_from_rows(rows)
        frequent = brute_frequents(db, minsupp)
        by_size = {}
        for itemset, _ in frequent:
            by_size.setdefault(len(itemset), []).append(itemset)
        for size, itemsets in sorted(by_size.items()):
            if size + 1 not in by_size:
                continue
            candidates = set(generate_candidates(sorted(itemsets)))
            for bigger in by_size[size + 1]:
                assert bigger in candidates

    @settings(deadline=None, max_examples=40)
    @given(rows=db_rows(max_tx=10, max_items=7), minsupp=st.integers(1, 3))
    def test_raw_passes_at_least_result_depth(self, rows, minsupp):
        db = db_from_rows(rows)
        result = mine_apriori(db, minsupp)
        assert result.stats.raw_passes >= len(result.levels)


def test_candidate_counts_match_brute_subsets(store9_db):
    """Every surviving level-2 candidate count agrees with a direct scan."""
    l1 = [fi.itemset for fi in mine_apriori(store9_db, 2).levels[0]]
    cands = generate_candidates(l1)
    for itemset, count in zip(cands, count_support(store9_db, cands)):
        wanted = set(itemset)
        direct = sum(1 for items in store9_db.transactions if wanted <= set(items))
        assert count == direct
