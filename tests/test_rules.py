import sys
from fractions import Fraction
from itertools import combinations
from math import floor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketmine.ingest import SyntheticSpec, generate_synthetic
from basketmine.miner import FrequentItemset, mine
from basketmine import rules as rules_module
from basketmine.model import MiningError, ThresholdError
from basketmine.rules import (
    Rule,
    RuleQuery,
    confidence,
    format_percent,
    generate_rules,
    parse_confidence,
)
from basketmine.tradelist import TradeList

from oracles import brute_rules, brute_tidset, db_from_rows, db_rows, packed

#: ARRAY_MIN_ITEMSETS values that send every level to the array path, then
#: every level to the loop over each Z.
CROSSOVERS = (0, sys.maxsize)


def rules_on_both_paths(result, query):
    """The rules as a list, checked equal, with equal test counts, on both paths."""
    found = []
    for crossover in CROSSOVERS:
        with mock.patch.object(rules_module, "ARRAY_MIN_ITEMSETS", crossover):
            found.append(generate_rules(result, query))
    arrays, loop = found
    assert list(arrays) == list(loop)
    assert arrays.confidence_tests == loop.confidence_tests
    return list(loop)


def assert_same_error_on_both_paths(result, query):
    messages = []
    for crossover in CROSSOVERS:
        with mock.patch.object(rules_module, "ARRAY_MIN_ITEMSETS", crossover):
            with pytest.raises(MiningError, match="downward-closed") as caught:
                generate_rules(result, query)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def deep_result():
    """Itemsets up to size 7 over 20 items, with levels on both sides of the crossover."""
    return mine(TradeList.build(generate_synthetic(SyntheticSpec(200, 20, 6, 7))), 4)


class TestConfidence:
    def test_exact_implication(self):
        assert confidence(2, 2) == 1

    def test_two_thirds(self):
        assert confidence(4, 6) == Fraction(2, 3)

    def test_zero_numerator(self):
        assert confidence(0, 5) == 0

    def test_zero_antecedent_support(self):
        with pytest.raises(MiningError):
            confidence(0, 0)

    def test_impossible_counts(self):
        with pytest.raises(MiningError):
            confidence(5, 4)


class TestParseConfidence:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.7", Fraction(7, 10)),
            ("70%", Fraction(7, 10)),
            (" 70 % ", Fraction(7, 10)),
            ("100%", Fraction(1)),
            ("2/3", Fraction(2, 3)),
            ("1", Fraction(1)),
        ],
    )
    def test_forms(self, text, expected):
        assert parse_confidence(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "%", "1/0"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ThresholdError):
            parse_confidence(bad)

    @pytest.mark.parametrize("out_of_range", [Fraction(0), Fraction(3, 2)])
    def test_query_range(self, out_of_range):
        with pytest.raises(ThresholdError):
            RuleQuery(out_of_range)


class TestGenerateRules:
    def expected_store9_rules(self, db):
        def ords(*labels):
            return tuple(sorted(db.items.labels().index(x) for x in labels))

        return [
            Rule(ords("I5"), ords("I1"), 2, Fraction(1)),
            Rule(ords("I5"), ords("I2"), 2, Fraction(1)),
            Rule(ords("I4"), ords("I2"), 2, Fraction(1)),
            Rule(ords("I5"), ords("I1", "I2"), 2, Fraction(1)),
            Rule(ords("I1", "I5"), ords("I2"), 2, Fraction(1)),
            Rule(ords("I2", "I5"), ords("I1"), 2, Fraction(1)),
        ]

    def test_store9_six_rules_at_07(self, store9_db):
        result = mine(TradeList.build(store9_db), 2)
        rules = generate_rules(result, RuleQuery(Fraction(7, 10)))
        assert list(rules) == self.expected_store9_rules(store9_db)

    @pytest.mark.parametrize("minconf", [0.7, "0.7", "7/10"])
    def test_query_from_a_float_or_a_string(self, store9_db, minconf):
        # A float once reached generate_rules unconverted and raised AttributeError.
        result = mine(TradeList.build(store9_db), 2)
        rules = generate_rules(result, RuleQuery(minconf))
        assert list(rules) == self.expected_store9_rules(store9_db)

    def test_minconf_one_keeps_exact_implications(self, store9_db):
        result = mine(TradeList.build(store9_db), 2)
        rules = generate_rules(result, RuleQuery(Fraction(1)))
        assert list(rules) == self.expected_store9_rules(store9_db)
        assert all(rule.confidence == 1 for rule in rules)

    def test_exact_boundary_two_thirds(self, store9_db):
        result = mine(TradeList.build(store9_db), 2)
        at_boundary = generate_rules(result, RuleQuery(Fraction(2, 3)))
        # I1 => I2 sits exactly at 4/6; "not less than" includes it.
        i1, i2 = store9_db.items.labels().index("I1"), store9_db.items.labels().index("I2")
        assert any(
            r.antecedent == (i1,) and r.consequent == (i2,) for r in at_boundary
        )
        just_above = generate_rules(result, RuleQuery(Fraction(6667, 10000)))
        assert not any(
            r.antecedent == (i1,) and r.consequent == (i2,) for r in just_above
        )

    def test_completeness_at_vanishing_threshold(self, store9_db):
        result = mine(TradeList.build(store9_db), 2)
        rules = generate_rules(result, RuleQuery(Fraction(1, 10**9)))
        expected = sum(
            2 ** len(fi.itemset) - 2 for level in result.levels[1:] for fi in level
        )
        assert len(rules) == expected == 24

    def test_antecedent_and_consequent_disjoint_with_frequent_union(self, store9_db):
        result = mine(TradeList.build(store9_db), 2)
        supports = result.support_map()
        for rule in generate_rules(result, RuleQuery(Fraction(1, 100))):
            assert rule.antecedent and rule.consequent
            assert not set(rule.antecedent) & set(rule.consequent)
            union = tuple(sorted(rule.antecedent + rule.consequent))
            assert supports[union] == rule.support
            assert 0 < rule.confidence <= 1

    def test_missing_antecedent_support_is_an_internal_error(self):
        broken = packed(
            [
                [FrequentItemset((0,), 3)],
                [FrequentItemset((0, 1), 2)],  # (1,) support missing
            ]
        )
        assert_same_error_on_both_paths(broken, RuleQuery(Fraction(1, 2)))

    def test_missing_two_item_antecedent_is_an_internal_error(self):
        broken = packed(
            [
                [FrequentItemset((0,), 3), FrequentItemset((1,), 3), FrequentItemset((2,), 3)],
                [FrequentItemset((0, 2), 2), FrequentItemset((1, 2), 2)],  # (0, 1) missing
                [FrequentItemset((0, 1, 2), 2)],
            ]
        )
        assert_same_error_on_both_paths(broken, RuleQuery(Fraction(1, 2)))

    def test_itemset_too_large_for_mask_keys_fails_its_lookups_first(self):
        # z << 63 | mask keys would overflow int64, but a result holding a
        # 63-itemset would need its 2^63 - 1 subsets: the one-item tests,
        # made before any key, find them missing.
        whole = tuple(range(63))
        levels = [[FrequentItemset((i,), 2) for i in whole]] + [[] for _ in range(61)]
        broken = packed(levels + [[FrequentItemset(whole, 2)]])
        assert_same_error_on_both_paths(broken, RuleQuery(Fraction(1, 2)))

    @settings(deadline=None, max_examples=150)
    @given(rows=db_rows(max_tx=12, max_items=8), minsupp=st.integers(1, 3), data=st.data())
    def test_same_rules_in_the_same_order_as_every_antecedent_tried(self, rows, minsupp, data):
        result = mine(TradeList.build(db_from_rows(rows)), minsupp)
        # Confidences some rule has exactly: supp(Z) * den == supp(X) * num.
        supports = result.support_map()
        exact = sorted(
            {
                Fraction(fi.support, supports[antecedent])
                for fi in result if len(fi.itemset) > 1
                for size in range(1, len(fi.itemset))
                for antecedent in combinations(fi.itemset, size)
            }
        )
        choices = [st.just(Fraction(1)), st.just(Fraction(1, 10**9)), st.fractions(0, 1).filter(bool)]
        if exact:
            choices.append(st.sampled_from(exact))
        minconf = data.draw(st.one_of(choices), label="minconf")
        assert rules_on_both_paths(result, RuleQuery(minconf)) == brute_rules(result, minconf)

    @pytest.mark.parametrize("minconf", ["0.3", "0.5", "0.7", "0.9", "1"])
    def test_deep_itemsets_match_every_antecedent_tried(self, minconf):
        # Itemsets up to size 7, so consequents grow over several sizes.
        result = deep_result()
        assert len(result.levels) == 7
        expected = brute_rules(result, Fraction(minconf))
        assert rules_on_both_paths(result, RuleQuery(Fraction(minconf))) == expected

    @pytest.mark.parametrize(
        "minconf", [Fraction(1, 10**30), Fraction(10**30 - 1, 10**30)], ids=["1e-30", "1-1e-30"]
    )
    def test_denominators_past_int64_stay_exact(self, minconf):
        # supp(Z) * den overflows int64 here, and the threshold is within
        # 10^-30 of 0 or 1: only exact integers tell the rules apart.
        result = deep_result()
        expected = brute_rules(result, minconf)
        assert rules_on_both_paths(result, RuleQuery(minconf)) == expected
        assert expected

    @pytest.mark.parametrize("first", [65_500, 2**40])
    def test_wide_item_ordinals(self, first):
        # Ordinals of 65,536 or more take wider search keys; spacing them
        # keeps every itemset canonical.
        result = deep_result()
        widened = [
            [FrequentItemset(tuple(first + 3 * i for i in fi.itemset), fi.support) for fi in level]
            for level in result.levels
        ]
        wide = packed(widened, result.stats)
        query = RuleQuery(Fraction(7, 10))
        expected = brute_rules(wide, query.min_confidence)
        assert rules_on_both_paths(wide, query) == expected
        assert len(expected) == len(generate_rules(result, query))

    @pytest.mark.parametrize("depth", [4, 5], ids=["at", "past"])
    @pytest.mark.parametrize("minconf", [Fraction(1, 10**9), Fraction(1, 2), Fraction(4, 5)])
    def test_search_keys_leave_int64_where_base_to_the_k_passes_it(self, depth, minconf):
        # Largest ordinal 2^21 - 2, so base 2^21 - 1: base^3 is the largest
        # cube below 2^63 - 1 and base^4 passes it. Levels 1 to 3 take int64
        # keys, level 3's close to the top of the range; level 4 ("at") and
        # level 5 ("past") take byte strings. An int64 level 4 would wrap.
        top = 2**21 - 2
        whole = (7, top - 3, top - 2, top - 1, top)[-depth:]
        weight = dict(zip(whole, (1, 2, 4, 8, 16)))
        # 3 plus the weights of the items left out: a subset's support is
        # never below its superset's.
        levels = [
            [
                FrequentItemset(s, 3 + sum(weight.values()) - sum(map(weight.get, s)))
                for s in combinations(whole, k)
            ]
            for k in range(1, depth + 1)
        ]
        result = packed(levels)
        rows = rules_module._Rows(result)
        kinds = [rows.keys(k).dtype.kind for k in range(1, depth + 1)]
        assert kinds == ["i"] * 3 + ["V"] * (depth - 3)
        assert int(rows.keys(3).max()) > 2**63 - 2**45
        expected = brute_rules(result, minconf)
        assert rules_on_both_paths(result, RuleQuery(minconf)) == expected
        assert expected

    @pytest.mark.parametrize(
        "minconf,n_rules",
        [(Fraction(1, 2), 5_110), (Fraction(1, 4), 16_585), (Fraction(1, 8), 31_825)],
        ids=["1/2", "1/4", "1/8"],
    )
    def test_loop_levels_below_and_above_array_levels(self, minconf, n_rules):
        # Every non-empty subset of 10 items is a row, so every itemset is
        # frequent at support 1 and the levels hold C(10, k) itemsets. At the
        # real crossover levels 2, 8, 9 and 10 take the loop and levels 3 to
        # 7 the arrays: each level's rules must still come in level order.
        rows = [s for k in range(1, 11) for s in combinations(range(10), k)]
        result = mine(TradeList.build(db_from_rows(rows)), 1)
        sizes = list(map(len, result.supports))
        assert sizes == [10, 45, 120, 210, 252, 210, 120, 45, 10, 1]
        on_arrays = [n >= rules_module.ARRAY_MIN_ITEMSETS for n in sizes[1:]]
        assert on_arrays == [False] + [True] * 5 + [False] * 3
        rules = list(generate_rules(result, RuleQuery(minconf)))
        assert rules == brute_rules(result, minconf)
        assert len(rules) == n_rules

    @pytest.mark.parametrize(
        "minconf,confidence_tests,n_rules",
        [
            ("3/10", 18853, 13211),
            ("1/2", 12866, 7425),
            ("7/10", 9373, 3670),
            ("9/10", 7979, 1505),
            ("1", 7956, 1351),
        ],
        ids=["3/10", "1/2", "7/10", "9/10", "1"],
    )
    def test_deep_itemsets_confidence_tests_pinned(self, minconf, confidence_tests, n_rules):
        # Each confidence test looks one antecedent's support up. Growing
        # consequents tests the one-item ones of every Z, then only joins
        # whose every subset one item smaller passed: a weaker prune, or
        # none, makes more tests for the same rules.
        result = deep_result()
        for crossover in CROSSOVERS:
            with mock.patch.object(rules_module, "ARRAY_MIN_ITEMSETS", crossover):
                rules = generate_rules(result, RuleQuery(Fraction(minconf)))
            assert (len(rules), rules.confidence_tests) == (n_rules, confidence_tests)

    @settings(deadline=None, max_examples=50)
    @given(rows=db_rows(max_tx=10, max_items=6), minsupp=st.integers(1, 3))
    def test_confidence_recomputes_from_tidsets(self, rows, minsupp):
        db = db_from_rows(rows)
        result = mine(TradeList.build(db), minsupp)
        for rule in generate_rules(result, RuleQuery(Fraction(1, 100))):
            union = tuple(sorted(rule.antecedent + rule.consequent))
            supp_union = len(brute_tidset(db, union))
            supp_x = len(brute_tidset(db, rule.antecedent))
            assert rule.confidence == Fraction(supp_union, supp_x)
            assert rule.support == supp_union

    @settings(deadline=None, max_examples=50)
    @given(rows=db_rows(max_tx=10, max_items=6), minsupp=st.integers(1, 3))
    def test_antecedent_antimonotonicity(self, rows, minsupp):
        """Growing the antecedent within a fixed Z never lowers confidence."""
        db = db_from_rows(rows)
        result = mine(TradeList.build(db), minsupp)
        supports = result.support_map()
        for level in result.levels[1:]:
            for fi in level:
                whole = fi.itemset
                for size in range(1, len(whole) - 1):
                    for smaller in combinations(whole, size):
                        for extra in whole:
                            if extra in smaller:
                                continue
                            larger = tuple(sorted(smaller + (extra,)))
                            if larger == whole:
                                continue
                            assert confidence(
                                fi.support, supports[larger]
                            ) >= confidence(fi.support, supports[smaller])

    @settings(deadline=None, max_examples=40)
    @given(rows=db_rows(max_tx=10, max_items=6), minsupp=st.integers(1, 3))
    def test_emitted_iff_confidence_meets_threshold(self, rows, minsupp):
        db = db_from_rows(rows)
        result = mine(TradeList.build(db), minsupp)
        supports = result.support_map()
        threshold = Fraction(3, 5)
        emitted = {
            (rule.antecedent, rule.consequent)
            for rule in generate_rules(result, RuleQuery(threshold))
        }
        for level in result.levels[1:]:
            for fi in level:
                for size in range(1, len(fi.itemset)):
                    for antecedent in combinations(fi.itemset, size):
                        consequent = tuple(
                            i for i in fi.itemset if i not in antecedent
                        )
                        conf = Fraction(fi.support, supports[antecedent])
                        assert ((antecedent, consequent) in emitted) == (
                            conf >= threshold
                        )


class TestFormatPercent:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(7, 9), "77.78%"),
            (Fraction(5, 8), "62.5%"),
            (Fraction(1), "100%"),
            (Fraction(5, 7), "71.43%"),
            (Fraction(2, 3), "66.67%"),
            (Fraction(3, 5), "60%"),
            (Fraction(3, 4), "75%"),
            (Fraction(4, 5), "80%"),
            (Fraction(6, 7), "85.71%"),
            (0, "0%"),
        ],
    )
    def test_known_renderings(self, value, text):
        assert format_percent(value) == text

    def test_half_rounds_away_from_zero(self):
        # 1/800 of 100% is 0.125%, which must round to 0.13, not 0.12.
        assert format_percent(Fraction(1, 800)) == "0.13%"

    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(1, 8), "12.5%"),
            (Fraction(1, 20000), "0.01%"),
            (Fraction(1, 40000), "0%"),
            (Fraction(2, 3), "66.67%"),
            (1, "100%"),
        ],
    )
    def test_rounding_boundaries(self, value, text):
        assert format_percent(value) == text

    @pytest.mark.parametrize("value", [Fraction(-1, 8), Fraction(-1, 3), Fraction(-1, 20000)])
    def test_negative_rejected(self, value):
        # Confidences and support shares are never negative; half-up
        # rounding would misrender these as "-13.5%", "-34.67%" and "0%".
        with pytest.raises(MiningError):
            format_percent(value)

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=10**7).filter(
            lambda v: v > 0
        )
    )
    def test_matches_fraction_formula(self, value):
        hundredths = floor(Fraction(value) * 10000 + Fraction(1, 2))
        whole, rest = divmod(hundredths, 100)
        expected = f"{whole}.{rest:02d}".rstrip("0").rstrip(".") + "%"
        assert format_percent(value) == expected
