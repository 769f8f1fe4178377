"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL verdict line (run with ``pytest -s tests/test_acceptance.py`` to
see them). Tolerances are pinned here, not configurable.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from basketmine.apriori import mine_apriori
from basketmine.cli import main
from basketmine.ingest import parse_database, parse_into
from basketmine.miner import mine, remine
from basketmine.rules import RuleQuery, confidence, format_percent, generate_rules
from basketmine.tradelist import TradeList

from conftest import DATA, GOLDEN
from oracles import add_row, brute_support_map, brute_tidset, db_from_rows, random_rows

SEED = 0x5EED


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def labelled_tidsets(db, tl):
    return {
        db.items.label(i): [db.tids.label(t) for t in tl.tidset(i)]
        for i in range(tl.n_items)
    }


def test_criterion_1_index_reconstruction(store9_db):
    with criterion(1, "exact tidset reconstruction and byte-for-byte log"):
        start = time.perf_counter()
        tl = TradeList.build(store9_db)
        log = tl.serialize_log()
        elapsed = time.perf_counter() - start
        assert labelled_tidsets(store9_db, tl) == {
            "I1": ["T100", "T400", "T500", "T700", "T800", "T900"],
            "I2": ["T100", "T200", "T300", "T400", "T600", "T800", "T900"],
            "I3": ["T300", "T500", "T600", "T700", "T800", "T900"],
            "I4": ["T200", "T400"],
            "I5": ["T100", "T800"],
        }
        assert log.encode() == (GOLDEN / "tradelist_store9.log").read_bytes()
        assert elapsed < 1.0


def test_criterion_2_worked_pair_intersection(store9_db):
    with criterion(2, "support of {I1, I2} is 4 by tidset intersection"):
        tl = TradeList.build(store9_db)
        i1, i2 = store9_db.items.ordinal("I1"), store9_db.items.ordinal("I2")
        common = tl.bitmap(i1) & tl.bitmap(i2)
        assert common.bit_count() == 4
        assert common == sum(1 << t for t in brute_tidset(store9_db, (i1, i2)))


def test_criterion_3_fourteen_itemsets_after_append(store10_db):
    with criterion(3, "10-transaction dataset at minsupp 2: exactly 14 itemsets"):
        db = store10_db
        expected_labels = {
            (("I1",), 7), (("I2",), 7), (("I3",), 6), (("I4",), 3), (("I5",), 2),
            (("I1", "I2"), 4), (("I1", "I3"), 4), (("I1", "I4"), 2),
            (("I1", "I5"), 2), (("I2", "I3"), 4), (("I2", "I4"), 2),
            (("I2", "I5"), 2),
            (("I1", "I2", "I3"), 2), (("I1", "I2", "I5"), 2),
        }

        def with_labels(result):
            return {
                (tuple(db.items.label(i) for i in fi.itemset), fi.support)
                for fi in result
            }

        vertical = mine(TradeList.build(db), 2)
        horizontal = mine_apriori(db, 2)
        assert vertical.n_itemsets == horizontal.n_itemsets == 14
        assert with_labels(vertical) == with_labels(horizontal) == expected_labels

        # The triple {I1, I2, I4} is NOT frequent: brute-force support is 1.
        ords = tuple(sorted(db.items.ordinal(x) for x in ("I1", "I2", "I4")))
        assert len(brute_tidset(db, ords)) == 1
        assert ords not in vertical.support_map()


def test_criterion_4_support_change_without_rescan(store9_db):
    with criterion(4, "raising minsupp to 3 re-mines with zero raw passes"):
        tl = TradeList.build(store9_db)
        mine(tl, 2)
        result = remine(tl, 3)
        label = store9_db.items.label
        l1 = [tuple(label(i) for i in fi.itemset) for fi in result.level(1)]
        l2 = [tuple(label(i) for i in fi.itemset) for fi in result.level(2)]
        assert l1 == [("I1",), ("I2",), ("I3",)]
        assert l2 == [("I1", "I2"), ("I1", "I3"), ("I2", "I3")]
        assert result.level(3) == []
        assert result.stats.raw_passes == 0
        assert tl.raw_passes == 1


def test_criterion_5_single_scan_counters(store9_db, capsys):
    with criterion(5, "one raw pass ever for the index; >= 3 for the baseline"):
        rng = random.Random(SEED)
        datasets = [store9_db] + [
            db_from_rows(random_rows(rng)) for _ in range(20)
        ]
        for db in datasets:
            tl = TradeList.build(db)
            assert tl.raw_passes == 1
            first = mine(tl, 2)
            again = remine(tl, 3)
            assert first.stats.raw_passes == 0
            assert again.stats.raw_passes == 0
            generate_rules(first, RuleQuery(Fraction(1, 2)))
            assert tl.raw_passes == 1
        assert mine_apriori(store9_db, 2).stats.raw_passes >= 3

        # The same inequality is enforced inside the bench command.
        code = main(["bench", "--input", str(DATA / "store9.txt"), "--minsupp", "2"])
        stdout = capsys.readouterr().out
        assert code == 0
        rows = {
            line.split(",")[0]: line.split(",")
            for line in stdout.strip().splitlines()[1:]
        }
        assert int(rows["tradelist"][2]) == 1
        assert int(rows["apriori"][2]) >= 3


def test_criterion_6_incremental_equivalence():
    with criterion(6, "build+add+mine equals scratch-build+mine on 200 random splits"):
        rng = random.Random(SEED + 1)
        for _ in range(200):
            rows = random_rows(rng, max_tx=10, max_items=8)
            cut = rng.randint(0, len(rows))
            minsupp = rng.randint(1, 3)

            full = db_from_rows(rows)
            prefix = db_from_rows(rows[:cut])
            incremental = TradeList.build(prefix)
            for row in rows[cut:]:
                incremental.add_transaction(add_row(prefix, row))
            scratch = TradeList.build(full)
            assert incremental == scratch
            assert mine(incremental, minsupp).levels == mine(scratch, minsupp).levels


def test_criterion_7_three_way_oracle_equivalence():
    with criterion(7, "vertical = level-wise = exhaustive oracle, 200 dbs x 4 thresholds"):
        rng = random.Random(SEED + 2)
        start = time.perf_counter()
        for _ in range(200):
            rows = random_rows(rng, max_tx=10, max_items=8)
            db = db_from_rows(rows)
            supports = brute_support_map(db)
            tl = TradeList.build(db)
            for minsupp in range(1, 5):
                expected = {
                    (itemset, support)
                    for itemset, support in supports.items()
                    if support >= minsupp
                }
                assert mine(tl, minsupp).pairs() == expected
                assert mine_apriori(db, minsupp).pairs() == expected
        assert time.perf_counter() - start < 60.0


def test_criterion_8_rule_generation(store9_db):
    with criterion(8, "6 exact-implication rules at minconf 0.7; exact percent strings"):
        result = mine(TradeList.build(store9_db), 2)
        rules = generate_rules(result, RuleQuery(Fraction(7, 10)))
        label = store9_db.items.label

        def sides(rule):
            return (
                tuple(label(i) for i in rule.antecedent),
                tuple(label(i) for i in rule.consequent),
            )

        assert [sides(r) for r in rules] == [
            (("I5",), ("I1",)),
            (("I5",), ("I2",)),
            (("I4",), ("I2",)),
            (("I5",), ("I1", "I2")),
            (("I1", "I5"), ("I2",)),
            (("I2", "I5"), ("I1",)),
        ]
        assert all(format_percent(r.confidence) == "100%" for r in rules)
        assert format_percent(Fraction(7, 9)) == "77.78%"
        assert format_percent(Fraction(5, 8)) == "62.5%"
        assert format_percent(Fraction(5, 7)) == "71.43%"
        assert format_percent(Fraction(1)) == "100%"


def test_criterion_9_quantified_invariants():
    with criterion(9, "closure, anti-monotonicity, and threshold monotonicity invariants"):
        rng = random.Random(SEED + 3)
        for _ in range(30):
            rows = random_rows(rng, max_tx=10, max_items=8)
            db = db_from_rows(rows)
            tl = TradeList.build(db)
            minsupp = rng.randint(1, 3)
            result = mine(tl, minsupp)
            supports = result.support_map()

            for itemset, support in supports.items():
                # Support anti-monotonicity against the single items.
                assert support <= min(len(tl.tidset(i)) for i in itemset)
                # Downward closure: every proper subset present, never lighter.
                for size in range(1, len(itemset)):
                    for sub in combinations(itemset, size):
                        assert supports[sub] >= support

            # Raising the threshold only removes itemsets.
            assert mine(tl, minsupp + 1).pairs() <= result.pairs()

            # Confidence anti-monotonicity in the antecedent on all splits.
            for level in result.levels[1:]:
                for fi in level:
                    whole = fi.itemset
                    for size in range(1, len(whole) - 1):
                        for smaller in combinations(whole, size):
                            rest = [i for i in whole if i not in smaller]
                            for extra in rest:
                                larger = tuple(sorted(smaller + (extra,)))
                                assert confidence(
                                    fi.support, supports[larger]
                                ) >= confidence(fi.support, supports[smaller])


def test_criterion_6_update_command_round_trip(tmp_path, capsys):
    """CLI flavor of the incremental path: update equals mining the full file."""
    with criterion("6 (cli)", "update command output equals full-file mining"):
        updated_dir = tmp_path / "upd"
        code = main(
            [
                "update", "--input", str(DATA / "store9.txt"),
                "--update", str(DATA / "update_t910.txt"),
                "--minsupp", "2", "--minconf", "0.7", "--out", str(updated_dir),
            ]
        )
        assert code == 0
        full_out = tmp_path / "full.log"
        code = main(
            [
                "mine", "--input", str(DATA / "store10.txt"), "--minsupp", "2",
                "--out", str(full_out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert (updated_dir / "freq.log").read_bytes() == full_out.read_bytes()
