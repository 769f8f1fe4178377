import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from basketmine.cli import BENCH_CSV_HEADER, format_freq_log, format_rules_log, main
from basketmine.ingest import SyntheticSpec, generate_synthetic
from basketmine.miner import FrequentItemset, mine
from basketmine.model import MiningError, SupportThreshold, UnknownItemError
from basketmine.rules import Rule, RuleQuery, format_percent, generate_rules
from basketmine.tradelist import TradeList

from conftest import DATA, GOLDEN
from oracles import packed

STORE9 = DATA / "store9.txt"
STORE10 = DATA / "store10.txt"
UPDATE = DATA / "update_t910.txt"

FREQ_STORE10_MS2 = (
    "1-I1\n"
    "2-I2\n"
    "3-I5\n"
    "4-I4\n"
    "5-I3\n"
    "6-I1, I2\n"
    "7-I1, I5\n"
    "8-I1, I4\n"
    "9-I1, I3\n"
    "10-I2, I5\n"
    "11-I2, I4\n"
    "12-I2, I3\n"
    "13-I1, I2, I5\n"
    "14-I1, I2, I3\n"
)

CONF_STORE9_MS2_70 = (
    "I5->I1 = 100%\n"
    "I5->I2 = 100%\n"
    "I4->I2 = 100%\n"
    "I5->I1,I2 = 100%\n"
    "I1,I5->I2 = 100%\n"
    "I2,I5->I1 = 100%\n"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(argv, capsys):
    """The stderr of a command whose flags argparse rejects with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestTradelistCmd:
    def test_golden_log(self, tmp_path, capsys):
        out = tmp_path / "tl.log"
        code, stdout, _ = run(
            ["tradelist", "--input", str(STORE9), "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "tradelist_store9.log").read_bytes()
        assert str(out) in stdout

    def test_empty_input(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("")
        out = tmp_path / "tl.log"
        code, _, _ = run(["tradelist", "--input", str(src), "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text() == ""

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("T1,A\nT2\n")
        out = tmp_path / "tl.log"
        code, _, stderr = run(
            ["tradelist", "--input", str(src), "--out", str(out)], capsys
        )
        assert code == 1
        assert "line 2" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("head", ["", "# header comment\n"], ids=["row", "comment"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys, head):
        src = tmp_path / "bom.txt"
        src.write_bytes(b"\xef\xbb\xbf" + head.encode() + STORE9.read_bytes())
        out = tmp_path / "tl.log"
        code, _, stderr = run(["tradelist", "--input", str(src), "--out", str(out)], capsys)
        assert (code, stderr) == (0, "")
        assert out.read_bytes() == (GOLDEN / "tradelist_store9.log").read_bytes()

    def test_default_name_is_timestamped(self, tmp_path, capsys):
        code, _, _ = run(
            ["tradelist", "--input", str(STORE9), "--outdir", str(tmp_path)], capsys
        )
        assert code == 0
        names = [p.name for p in tmp_path.glob("tradelist_*.log")]
        assert len(names) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, stderr = run(
            ["tradelist", "--input", str(tmp_path / "nope.txt")], capsys
        )
        assert code == 1
        assert "nope.txt" in stderr


class TestMineCmd:
    def test_store10_minsupp2(self, tmp_path, capsys):
        out = tmp_path / "freq.log"
        code, stdout, _ = run(
            ["mine", "--input", str(STORE10), "--minsupp", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text() == FREQ_STORE10_MS2
        assert "frequent itemsets: 14 (L1=5, L2=7, L3=2)" in stdout
        assert "raw passes: 1" in stdout

    def test_store9_minsupp3_has_six_rows(self, tmp_path, capsys):
        out = tmp_path / "freq.log"
        code, _, _ = run(
            ["mine", "--input", str(STORE9), "--minsupp", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text() == "1-I1\n2-I2\n3-I3\n4-I1, I2\n5-I1, I3\n6-I2, I3\n"

    def test_huge_threshold_gives_empty_log(self, tmp_path, capsys):
        out = tmp_path / "freq.log"
        code, _, _ = run(
            ["mine", "--input", str(STORE9), "--minsupp", "100", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text() == ""

    def test_fractional_threshold(self, tmp_path, capsys):
        out = tmp_path / "freq.log"
        code, _, _ = run(
            [
                "mine", "--input", str(STORE9), "--minsupp-frac", "0.25",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0  # ceil(0.25 * 9) = 3
        assert out.read_text().splitlines()[0] == "1-I1"
        assert len(out.read_text().splitlines()) == 6

    def test_requires_threshold(self, capsys):
        stderr = usage_error(["mine", "--input", str(STORE9)], capsys)
        assert "--minsupp --minsupp-frac is required" in stderr

    def test_rejects_both_threshold_forms(self, capsys):
        stderr = usage_error(
            [
                "mine", "--input", str(STORE9),
                "--minsupp", "2", "--minsupp-frac", "0.5",
            ],
            capsys,
        )
        assert "argument --minsupp-frac: not allowed with argument --minsupp" in stderr

    def test_rejects_two_input_sources(self, capsys):
        stderr = usage_error(
            [
                "mine", "--input", str(STORE9), "--synthetic", "10,5,2,1",
                "--minsupp", "2",
            ],
            capsys,
        )
        assert "argument --synthetic: not allowed with argument --input" in stderr

    def test_requires_an_input_source(self, capsys):
        stderr = usage_error(["mine", "--minsupp", "2"], capsys)
        assert "--input --synthetic is required" in stderr

    def test_synthetic_input(self, tmp_path, capsys):
        out = tmp_path / "freq.log"
        code, stdout, _ = run(
            [
                "mine", "--synthetic", "50,10,3,7", "--minsupp", "5",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "frequent itemsets:" in stdout

    def test_bad_synthetic_spec(self, capsys):
        stderr = usage_error(["mine", "--synthetic", "50,10,3", "--minsupp", "5"], capsys)
        assert "argument --synthetic: expected N_TX,N_ITEMS,MEAN,SEED" in stderr

    def test_input_not_utf8(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"T1,A\xff\n")
        out = tmp_path / "freq.log"
        code, _, stderr = run(
            ["mine", "--input", str(src), "--minsupp", "1", "--out", str(out)], capsys
        )
        assert code == 1
        assert stderr.startswith(f"error: {src}: ") and "0xff" in stderr
        assert not out.exists()


class TestRulesCmd:
    def test_store9_six_rules(self, tmp_path, capsys):
        out = tmp_path / "conf.log"
        code, stdout, _ = run(
            [
                "rules", "--input", str(STORE9), "--minsupp", "2",
                "--minconf", "0.7", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert out.read_text() == CONF_STORE9_MS2_70
        assert "rules: 6" in stdout

    def test_percent_form_equivalent(self, tmp_path, capsys):
        out = tmp_path / "conf.log"
        run(
            [
                "rules", "--input", str(STORE9), "--minsupp", "2",
                "--minconf", "70%", "--out", str(out),
            ],
            capsys,
        )
        assert out.read_text() == CONF_STORE9_MS2_70

    def test_minconf_one_boundary(self, tmp_path, capsys):
        out = tmp_path / "conf.log"
        code, _, _ = run(
            [
                "rules", "--input", str(STORE9), "--minsupp", "2",
                "--minconf", "1.0", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert all(line.endswith("= 100%") for line in lines)

    @pytest.mark.parametrize("minconf,kept", [("2/3", True), ("0.6667", False)])
    def test_exact_two_thirds_boundary(self, tmp_path, capsys, minconf, kept):
        # I1 => I2 holds in 4 of the 6 transactions containing I1: exactly 2/3.
        out = tmp_path / "conf.log"
        code, _, _ = run(
            [
                "rules", "--input", str(STORE9), "--minsupp", "2",
                "--minconf", minconf, "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert ("I1->I2 = 66.67%" in out.read_text().splitlines()) == kept

    def test_lower_threshold_matches_library(self, tmp_path, capsys):
        from fractions import Fraction

        from basketmine.cli import format_rules_log
        from basketmine.miner import mine
        from basketmine.rules import RuleQuery, generate_rules
        from basketmine.tradelist import TradeList
        from basketmine.ingest import parse_database

        out = tmp_path / "conf.log"
        run(
            [
                "rules", "--input", str(STORE9), "--minsupp", "2",
                "--minconf", "0.6", "--out", str(out),
            ],
            capsys,
        )
        db = parse_database(STORE9.read_text())
        expected = format_rules_log(
            generate_rules(
                mine(TradeList.build(db), 2), RuleQuery(Fraction(3, 5))
            ),
            db,
        )
        assert out.read_text() == expected

    def test_requires_minconf(self, capsys):
        stderr = usage_error(["rules", "--input", str(STORE9), "--minsupp", "2"], capsys)
        assert "required: --minconf" in stderr

    def test_bad_minconf(self, capsys):
        stderr = usage_error(
            [
                "rules", "--input", str(STORE9), "--minsupp", "2",
                "--minconf", "abc",
            ],
            capsys,
        )
        assert "argument --minconf: bad confidence 'abc'" in stderr


class TestUpdateCmd:
    def test_update_matches_full_rebuild(self, tmp_path, capsys):
        updated_dir = tmp_path / "upd"
        code, stdout, _ = run(
            [
                "update", "--input", str(STORE9), "--update", str(UPDATE),
                "--minsupp", "2", "--minconf", "0.7", "--out", str(updated_dir),
            ],
            capsys,
        )
        assert code == 0
        assert "raw passes: build=1, update+re-mine=0" in stdout
        freq_full = tmp_path / "full.log"
        run(
            [
                "mine", "--input", str(STORE10), "--minsupp", "2",
                "--out", str(freq_full),
            ],
            capsys,
        )
        assert (updated_dir / "freq.log").read_bytes() == freq_full.read_bytes()
        tl_log = (updated_dir / "tradelist.log").read_text()
        assert "I4 = T200, T400, T910" in tl_log
        assert (updated_dir / "conf.log").exists()

    def test_pair_i1_i4_appears_after_update(self, tmp_path, capsys):
        updated_dir = tmp_path / "upd"
        run(
            [
                "update", "--input", str(STORE9), "--update", str(UPDATE),
                "--minsupp", "2", "--minconf", "0.7", "--out", str(updated_dir),
            ],
            capsys,
        )
        assert "8-I1, I4" in (updated_dir / "freq.log").read_text()

    def test_empty_update_equals_plain_mine(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        updated_dir = tmp_path / "upd"
        run(
            [
                "update", "--input", str(STORE9), "--update", str(empty),
                "--minsupp", "2", "--minconf", "0.7", "--out", str(updated_dir),
            ],
            capsys,
        )
        base_freq = tmp_path / "base.log"
        run(
            ["mine", "--input", str(STORE9), "--minsupp", "2", "--out", str(base_freq)],
            capsys,
        )
        assert (updated_dir / "freq.log").read_bytes() == base_freq.read_bytes()

    def test_duplicate_tid_across_base_and_update(self, tmp_path, capsys):
        clash = tmp_path / "clash.txt"
        clash.write_text("T100,I1\n")
        code, _, stderr = run(
            [
                "update", "--input", str(STORE9), "--update", str(clash),
                "--minsupp", "2", "--minconf", "0.7", "--out", str(tmp_path / "u"),
            ],
            capsys,
        )
        assert code == 1
        assert "T100" in stderr

    def test_update_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"T910,I1\xff\n")
        code, _, stderr = run(
            [
                "update", "--input", str(STORE9), "--update", str(bad),
                "--minsupp", "2", "--minconf", "0.7", "--out", str(tmp_path / "u"),
            ],
            capsys,
        )
        assert code == 1
        assert stderr.startswith(f"error: {bad}: ") and "0xff" in stderr
        assert str(STORE9) not in stderr
        assert not (tmp_path / "u").exists()

    def test_update_base_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"T100,I1\nT200,I2\xff\n")
        code, _, stderr = run(
            [
                "update", "--input", str(bad), "--update", str(UPDATE),
                "--minsupp", "2", "--minconf", "0.7", "--out", str(tmp_path / "u"),
            ],
            capsys,
        )
        assert code == 1
        assert stderr.startswith(f"error: {bad}: ") and "0xff" in stderr
        assert str(UPDATE) not in stderr
        assert not (tmp_path / "u").exists()

    def test_requires_update_path(self, capsys):
        stderr = usage_error(
            [
                "update", "--input", str(STORE9), "--minsupp", "2",
                "--minconf", "0.7",
            ],
            capsys,
        )
        assert "required: --update" in stderr


class TestBenchCmd:
    def parse_csv(self, stdout):
        lines = stdout.strip().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        rows = {}
        for line in lines[1:]:
            algo, ms, raw, work, n = line.split(",")
            rows[algo] = (float(ms), int(raw), int(work), int(n))
        return rows

    def test_store9_counters(self, capsys):
        code, stdout, _ = run(
            ["bench", "--input", str(STORE9), "--minsupp", "2", "--repeat", "2"],
            capsys,
        )
        assert code == 0
        rows = self.parse_csv(stdout)
        assert rows["tradelist"][1] == 1
        assert rows["apriori"][1] >= 3
        assert rows["tradelist"][3] == rows["apriori"][3] == 13

    def test_empty_database(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("")
        code, stdout, _ = run(
            ["bench", "--input", str(src), "--minsupp", "2"], capsys
        )
        assert code == 0
        rows = self.parse_csv(stdout)
        assert rows["tradelist"][3] == rows["apriori"][3] == 0

    def test_synthetic_agreement(self, capsys):
        code, stdout, _ = run(
            [
                "bench", "--synthetic", "200,20,5,7", "--minsupp-frac", "0.05",
                "--repeat", "1",
            ],
            capsys,
        )
        assert code == 0
        rows = self.parse_csv(stdout)
        assert rows["tradelist"][3] == rows["apriori"][3] > 0

    def test_counters_pinned_on_a_seeded_file(self, tmp_path, capsys):
        # 300 seeded rows over 24 skewed items: Apriori counts candidate
        # levels 2 to 5, the last one fruitless. How candidates are counted
        # may change; the passes and the work reported for them may not.
        rng = random.Random(4)
        lines = []
        for t in range(1, 301):
            items = [i for i in range(24) if rng.random() < 0.7 / (1 + i / 3)] or [0]
            lines.append(f"T{t}," + ",".join(f"I{i}" for i in items) + "\n")
        src = tmp_path / "seeded.txt"
        src.write_text("".join(lines))
        code, stdout, _ = run(["bench", "--input", str(src), "--minsupp-frac", "0.03"], capsys)
        assert code == 0
        rows = {algo: counters[1:] for algo, counters in self.parse_csv(stdout).items()}
        assert rows == {"tradelist": (1, 675, 261), "apriori": (5, 195277, 261)}

    def test_readme_example_is_what_the_command_prints(self, capsys):
        # The README's bench example: every column but the timing is pinned.
        readme = (DATA.parent.parent / "README.md").read_text(encoding="utf-8")
        example = re.search(r"For\s+`basketmine (bench [^`]+)`:\s*```\n(.*?)```", readme, re.S)
        assert example, "README shows no bench example"
        code, stdout, _ = run(example.group(1).split(), capsys)
        assert code == 0
        shown = self.parse_csv(example.group(2))
        printed = self.parse_csv(stdout)
        assert {algo: row[1:] for algo, row in printed.items()} == {
            algo: row[1:] for algo, row in shown.items()
        }

    def test_repeat_must_be_positive(self, capsys):
        stderr = usage_error(
            ["bench", "--input", str(STORE9), "--minsupp", "2", "--repeat", "0"],
            capsys,
        )
        assert "argument --repeat: must be >= 1" in stderr

    @pytest.mark.parametrize("flag", ["--out", "--outdir"])
    def test_writes_no_file_so_takes_no_output_flag(self, tmp_path, capsys, flag):
        target = tmp_path / "x"
        stderr = usage_error(
            ["bench", "--input", str(STORE9), "--minsupp", "2", flag, str(target)],
            capsys,
        )
        assert f"unrecognized arguments: {flag}" in stderr
        assert not target.exists()


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["mine", "--input", str(STORE9), "--minsupp", "0"], "--minsupp"),
        (["mine", "--input", str(STORE9), "--minsupp-frac", "2"], "--minsupp-frac"),
        (["mine", "--input", str(STORE9), "--minsupp-frac", "abc"], "--minsupp-frac"),
        (["rules", "--input", str(STORE9), "--minsupp", "2", "--minconf", "abc"], "--minconf"),
        (["rules", "--input", str(STORE9), "--minsupp", "2", "--minconf", "1.5"], "--minconf"),
        (["mine", "--synthetic", "0,5,2,1", "--minsupp", "2"], "--synthetic"),
        (["mine", "--synthetic", "10,5,2,-1", "--minsupp", "1"], "--synthetic"),
    ],
)
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv, flag):
    # The library's own check rejects each value; it reaches the user as
    # argparse's usage error, before any file is read or written.
    out = tmp_path / "out.log"
    stderr = usage_error(argv + ["--out", str(out)], capsys)
    assert f"argument {flag}: " in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tradelist", "--input", str(STORE9)],
        ["mine", "--input", str(STORE9), "--minsupp", "2"],
        ["rules", "--input", str(STORE9), "--minsupp", "2", "--minconf", "0.7"],
        [
            "update", "--input", str(STORE9), "--update", str(UPDATE),
            "--minsupp", "2", "--minconf", "0.7",
        ],
    ],
    ids=["tradelist", "mine", "rules", "update"],
)
@pytest.mark.parametrize("outdir", ["d", "."])
def test_out_and_outdir_exclude_each_other(tmp_path, capsys, monkeypatch, argv, outdir):
    # --out pins the output; an --outdir beside it would be ignored.
    monkeypatch.chdir(tmp_path)
    stderr = usage_error(argv + ["--out", "o", "--outdir", outdir], capsys)
    assert "argument --outdir: not allowed with argument --out" in stderr
    assert list(tmp_path.iterdir()) == []


class TestLogRendering:
    """The logs name items by label; an ordinal the database lacks is an error.

    An ordinal past the end is caught when a log is rendered; a negative one,
    which a label list would count from the end, when its record is built.
    """

    @pytest.mark.parametrize("itemset", [(5,), (0, 5)])
    def test_freq_log_rejects_an_unknown_ordinal(self, store9_db, itemset):
        assert len(store9_db.items) == 5
        # A level of the itemset's width alone; the levels below it stay empty.
        result = packed([[] for _ in itemset[1:]] + [[FrequentItemset(itemset, 2)]])
        with pytest.raises(UnknownItemError):
            format_freq_log(result, store9_db)

    @pytest.mark.parametrize(
        "antecedent,consequent",
        [((5,), (0,)), ((0,), (1, 5))],
    )
    def test_rules_log_rejects_an_unknown_ordinal(self, store9_db, antecedent, consequent):
        # Every subset of X u Y at one support: every rule of it passes.
        whole = tuple(sorted(antecedent + consequent))
        levels = [
            [FrequentItemset(itemset, 2) for itemset in combinations(whole, k)]
            for k in range(1, len(whole) + 1)
        ]
        rules = generate_rules(packed(levels), RuleQuery(Fraction(1, 2)))
        assert Rule(antecedent, consequent, 2, Fraction(1)) in rules
        with pytest.raises(UnknownItemError):
            format_rules_log(rules, store9_db)

    def test_rules_log_renders_shared_and_equal_confidences(self, store9_db):
        # I1->I2 and I1->I5 share the support pair (2, 3); I2->I5 has (4, 6),
        # another pair of the same value 2/3.
        levels = [
            [FrequentItemset((0,), 3), FrequentItemset((1,), 6), FrequentItemset((2,), 5)],
            [FrequentItemset((0, 1), 2), FrequentItemset((0, 2), 2), FrequentItemset((1, 2), 4)],
        ]
        rules = generate_rules(packed(levels), RuleQuery(Fraction(1, 2)))
        assert [rule.confidence for rule in rules] == [Fraction(2, 3)] * 3 + [Fraction(4, 5)]
        assert format_rules_log(rules, store9_db) == (
            "I1->I2 = 66.67%\n"
            "I1->I5 = 66.67%\n"
            "I2->I5 = 66.67%\n"
            "I5->I2 = 80%\n"
        )

    # (0, -1) rendered as "1-I1, I3" when only the least ordinal was checked.
    @pytest.mark.parametrize("itemset", [(-1,), (-1, 0), (0, -1)])
    def test_frequent_itemset_with_a_negative_ordinal_is_not_built(self, itemset):
        with pytest.raises(MiningError):
            FrequentItemset(itemset, 2)

    # ((1, -1), (0,)) rendered as "I2,I3->I1 = 50%" on store9.
    @pytest.mark.parametrize(
        "antecedent,consequent", [((-1,), (0,)), ((0,), (-1, 1)), ((1, -1), (0,))]
    )
    def test_rule_with_a_negative_ordinal_is_not_built(self, antecedent, consequent):
        with pytest.raises(MiningError):
            Rule(antecedent, consequent, 2, Fraction(1, 2))

    # ((0,), (0,)) rendered as "I1->I1 = 50%".
    @pytest.mark.parametrize("antecedent,consequent", [((0,), (0,)), ((0, 1), (1, 2))])
    def test_rule_whose_sides_share_an_item_is_not_built(self, antecedent, consequent):
        with pytest.raises(MiningError):
            Rule(antecedent, consequent, 2, Fraction(1, 2))

    # Fraction(3, 2) rendered as "I1->I2 = 150%".
    @pytest.mark.parametrize("confidence", [Fraction(3, 2), Fraction(0), Fraction(-1, 2)])
    def test_rule_with_a_confidence_outside_0_1_is_not_built(self, confidence):
        with pytest.raises(MiningError):
            Rule((0,), (1,), 2, confidence)
        assert Rule((0,), (1,), 2, Fraction(1)).confidence == 1


def test_logs_are_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    for out in (a, b):
        run(
            [
                "rules", "--input", str(STORE10), "--minsupp", "2",
                "--minconf", "0.6", "--out", str(out),
            ],
            capsys,
        )
    assert a.read_bytes() == b.read_bytes()


#: A synthetic input whose 95 frequent items send mining to the level-wise
#: grower and whose rules take both rule paths.
LEVELWISE = ["--synthetic", "3000,200,20,2", "--minsupp-frac", "0.05"]


# sha256 of the freq log and of the conf log at 50%, recorded before the
# mining result held its levels as arrays.
@pytest.mark.parametrize(
    "source,summary,freq_sha256,conf_sha256",
    [
        (
            LEVELWISE,
            "frequent itemsets: 6832 (L1=95, L2=661, L3=1763, L4=2254, L5=1491, L6=504, L7=63, L8=1)",
            "bfe650cadd2b21447a7c50679689dd640c76c259a315ed7a155ee69e6c2f4d7e",
            "d7483bb601076771b291f501bc2e272476840a452aae370cc2955b7f6a5ca7d4",
        ),
        (
            ["--synthetic", "2000,60,6,3", "--minsupp-frac", "0.07"],  # 21 items: depth-first
            "frequent itemsets: 69 (L1=21, L2=34, L3=13, L4=1)",
            "4c32d7604e94c3ead5f3896c9cd68e2bc6cf5020f2036f29a28f560ad660a739",
            "b037f69e3e7527ac38a6f6e657a6dc1519113eb30e55648d40ff4f4d8dc963e7",
        ),
    ],
    ids=["levelwise", "depth-first"],
)
def test_logs_at_scale_are_pinned(tmp_path, capsys, source, summary, freq_sha256, conf_sha256):
    freq, conf = tmp_path / "freq.log", tmp_path / "conf.log"
    code, out, _ = run(["mine", *source, "--out", str(freq)], capsys)
    assert code == 0 and out.startswith(summary + "\n")
    code, out, _ = run(["rules", *source, "--minconf", "0.5", "--out", str(conf)], capsys)
    assert code == 0
    assert hashlib.sha256(freq.read_bytes()).hexdigest() == freq_sha256
    assert hashlib.sha256(conf.read_bytes()).hexdigest() == conf_sha256


def huge_support_result():
    """Every subset of items 0-2, each support above 2^63 / 20000 (about 4.6e14).

    ``20000 * supp(Z)`` passes int64 for every rule, and the supports differ
    enough that the confidences round to many different percentages.
    """
    weight = {0: 3 * 10**17 + 7, 1: 2**61 + 11, 2: 123_456_789_012_345}
    whole = tuple(weight)
    return packed(
        [
            [
                FrequentItemset(s, 10**15 + 1 + sum(weight.values()) - sum(map(weight.get, s)))
                for s in combinations(whole, k)
            ]
            for k in (1, 2, 3)
        ]
    )


@pytest.mark.parametrize("source", ["levelwise", "huge-supports"])
def test_every_rules_log_line_shows_format_percent(store9_db, source):
    if source == "levelwise":
        _, spec, _, frac = LEVELWISE
        db = generate_synthetic(SyntheticSpec(*map(int, spec.split(","))))
        result = mine(TradeList.build(db), SupportThreshold.fractional(frac))
        minconf = Fraction(1, 2)
    else:
        db, result, minconf = store9_db, huge_support_result(), Fraction(1, 10**9)
    rules = generate_rules(result, RuleQuery(minconf))
    label = db.items.label
    expected = [
        f"{','.join(map(label, r.antecedent))}->{','.join(map(label, r.consequent))}"
        f" = {format_percent(r.confidence)}"
        for r in rules
    ]
    assert format_rules_log(rules, db).splitlines() == expected
    assert len(set(line.rpartition(" = ")[2] for line in expected)) > 6


@pytest.mark.parametrize(
    "source", [["--input", str(STORE9), "--minsupp", "2"], LEVELWISE], ids=["store9", "levelwise"]
)
def test_commands_build_no_frequent_itemset_record(tmp_path, capsys, monkeypatch, source):
    # The commands read the mining result's level arrays; a record is built
    # only when a caller reads one.
    built = []
    check = FrequentItemset.__post_init__

    def spy(record):
        built.append(record)
        check(record)

    monkeypatch.setattr(FrequentItemset, "__post_init__", spy)
    update = tmp_path / "update.txt"
    update.write_text("U1,I1,I4\nU2,I2,I3,I5\n")
    for argv in (
        ["mine", *source, "--out", str(tmp_path / "freq.log")],
        ["rules", *source, "--minconf", "0.5", "--out", str(tmp_path / "conf.log")],
        ["update", *source, "--update", str(update), "--minconf", "0.5", "--out", str(tmp_path)],
        ["bench", *source],
    ):
        assert run(argv, capsys)[0] == 0, argv
    assert built == []
    FrequentItemset((0, 1), 2)
    assert len(built) == 1


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
    assert "invalid choice" in capsys.readouterr().err
