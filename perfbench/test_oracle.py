"""Self-test of the benchmark's oracle and input generator.

    python3 -m pytest -q perfbench/test_oracle.py

The oracle must accept the program's outputs, flag a corrupted output of
each kind, and agree with an exhaustive count on small inputs. The generator
must still produce the inputs whose digests ``baseline.json`` recorded.
"""

import dataclasses
import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from basketmine import RuleQuery, TradeList, generate_rules, parse_database, remine  # noqa: E402
from basketmine.cli import format_freq_log, format_rules_log  # noqa: E402

from oracle import Oracle, percent, ranks  # noqa: E402
from workloads import WORKLOADS, generate_rows, make_inputs  # noqa: E402

SMALL = dataclasses.replace(WORKLOADS["crosscheck"], n_base=300, batches=2, batch_size=25)


@pytest.fixture(scope="module")
def mined():
    inputs = make_inputs(SMALL, seed=3)
    db = parse_database(inputs.base_text + inputs.delta_text)
    tl = TradeList.build(db)
    n = SMALL.n_base + SMALL.n_delta
    oracle = Oracle(inputs.rows, SMALL.n_items)
    minsupp = oracle.minsupp(SMALL.support, n)
    minconf = Fraction(SMALL.confidence)
    result = remine(tl, minsupp)
    rules = generate_rules(result, RuleQuery(minconf))
    assert len(result.levels) >= 3 and rules, "the small workload must reach level 3 and emit rules"
    label = db.items.label
    return {
        "oracle": oracle,
        "n": n,
        "minsupp": minsupp,
        "minconf": minconf,
        "supports": {ranks(map(label, fi.itemset)): fi.support for fi in result},
        "rules": {
            (ranks(map(label, r.antecedent)), ranks(map(label, r.consequent))): r.confidence for r in rules
        },
        "tradelist_log": tl.serialize_log(),
        "freq_log": format_freq_log(result, db),
        "rules_log": format_rules_log(rules, db),
    }


def test_oracle_accepts_program_outputs(mined):
    o, n, minsupp, minconf = mined["oracle"], mined["n"], mined["minsupp"], mined["minconf"]
    assert o.check_itemsets(mined["supports"], minsupp, n) == []
    assert o.check_rules(mined["rules"], len(mined["rules"]), minsupp, minconf, n) == []
    assert o.check_tradelist_log(mined["tradelist_log"], n) == []
    assert o.check_freq_log(mined["freq_log"], minsupp, n) == []
    assert o.check_rules_log(mined["rules_log"], minsupp, minconf, n) == []


def test_oracle_flags_a_wrong_support(mined):
    o, n, minsupp = mined["oracle"], mined["n"], mined["minsupp"]
    supports = dict(mined["supports"])
    deepest = max(supports, key=len)
    supports[deepest] += 1
    problems = o.check_itemsets(supports, minsupp, n)
    assert len(problems) == 1 and "rows give" in problems[0]


def test_oracle_flags_a_missing_itemset(mined):
    o, n, minsupp = mined["oracle"], mined["n"], mined["minsupp"]
    supports = dict(mined["supports"])
    del supports[max(supports, key=len)]
    assert "missing" in o.check_itemsets(supports, minsupp, n)[0]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: lines[:-1],  # a frequent itemset dropped
        lambda lines: lines + [f"{len(lines) + 1}-I1, I99"],  # an infrequent one added
        lambda lines: [lines[1], lines[0]] + lines[2:],  # numbering out of order
        lambda lines: lines + [lines[-1].replace(lines[-1].split("-")[0], str(len(lines) + 1), 1)],  # repeated
    ],
)
def test_oracle_flags_a_corrupted_freq_log(mined, corrupt):
    lines = mined["freq_log"].splitlines()
    text = "".join(line + "\n" for line in corrupt(lines))
    assert mined["oracle"].check_freq_log(text, mined["minsupp"], mined["n"])


def test_oracle_flags_corrupted_rules(mined):
    o, n, minsupp, minconf = mined["oracle"], mined["n"], mined["minsupp"], mined["minconf"]
    rules = dict(mined["rules"])
    key = next(iter(rules))
    assert o.check_rules({**rules, key: rules[key] - Fraction(1, 1000)}, len(rules), minsupp, minconf, n)
    del rules[key]
    assert o.check_rules(rules, len(rules), minsupp, minconf, n)
    lines = mined["rules_log"].splitlines()
    assert o.check_rules_log("".join(line + "\n" for line in lines[1:]), minsupp, minconf, n)


def test_oracle_flags_a_corrupted_tradelist_log(mined):
    lines = mined["tradelist_log"].splitlines(keepends=True)
    lines[1] = lines[1].replace(", ", ", T9999, ", 1)
    assert "line 2" in mined["oracle"].check_tradelist_log("".join(lines), mined["n"])[0]


def test_oracle_frequent_matches_exhaustive_count():
    rng = np.random.default_rng(11)
    rows = generate_rows(60, 7, 3, rng)
    oracle = Oracle(rows, 7)
    for n in (1, 17, 60):
        for minsupp in (1, 3, 8):
            want = {}
            for size in range(1, 8):
                for itemset in combinations(range(7), size):
                    supp = sum(1 for row in rows[:n] if set(itemset) <= set(row))
                    if supp >= minsupp:
                        want[itemset] = supp
            assert oracle.frequent(minsupp, n) == want


def test_percent_rounds_half_up():
    assert [percent(Fraction(*f)) for f in ((5, 8), (7, 9), (1, 1), (1, 3), (1, 20000))] == [
        "62.5%", "77.78%", "100%", "33.33%", "0.01%"
    ]


def test_generator_reproduces_recorded_inputs():
    recorded = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    assert set(recorded) == set(WORKLOADS)
    for name, entry in recorded.items():
        digest = entry["input_sha256"]
        assert make_inputs(WORKLOADS[name], digest["seed"]).digest == digest["digest"], name
