"""The public API is pinned: ``basketmine.__all__``, each CLI subcommand's
flags, the names the README imports, and every name the benchmark harness
under ``perfbench/`` imports or patches. The harness files are read with
``ast``, never imported, so a later trim that would break them fails here
first.
"""

import argparse
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import basketmine
from basketmine import cli
from basketmine.miner import mine
from basketmine.model import Database, Interner
from basketmine.tradelist import TradeList

from conftest import DATA

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

PUBLIC = {
    "Database", "DuplicateTidError", "FrequentItemset", "MineResult", "MineStats",
    "MiningError", "ParseError", "Rule", "RuleQuery", "RuleSet", "SupportThreshold",
    "SyntheticSpec", "ThresholdError", "TradeList", "UnknownItemError",
    "format_percent", "generate_rules", "generate_synthetic", "mine", "mine_apriori",
    "parse_confidence", "parse_database", "parse_into", "remine", "write_database",
}

#: Each subcommand's option strings; a new flag is a visible edit here.
SOURCE_FLAGS = {"-h", "--help", "--input", "--synthetic"}
COMMON_FLAGS = SOURCE_FLAGS | {"--out", "--outdir"}
THRESHOLD_FLAGS = {"--minsupp", "--minsupp-frac"}
CLI_FLAGS = {
    "tradelist": COMMON_FLAGS,
    "mine": COMMON_FLAGS | THRESHOLD_FLAGS,
    "rules": COMMON_FLAGS | THRESHOLD_FLAGS | {"--minconf"},
    "update": COMMON_FLAGS | THRESHOLD_FLAGS | {"--update", "--minconf"},
    # bench writes no file: it prints its CSV.
    "bench": SOURCE_FLAGS | THRESHOLD_FLAGS | {"--repeat"},
}

#: The package's modules; ``__main__`` is left out, since importing it runs the CLI.
SUBMODULES = {
    info.name for info in pkgutil.iter_modules(basketmine.__path__) if info.name != "__main__"
}


def basketmine_imports(source: str) -> list[tuple[str, str]]:
    """Every ``(module, name)`` that a ``from basketmine... import name`` in ``source`` reads."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "basketmine"
        for alias in node.names
    ]


def test_all_is_the_supported_api():
    assert len(basketmine.__all__) == len(PUBLIC)
    assert set(basketmine.__all__) == PUBLIC


def option_strings(parser):
    return {opt for action in parser._actions for opt in action.option_strings}


def test_cli_surface_is_pinned():
    assert cli.__all__ == ["main"]
    parser = cli.build_parser()
    assert option_strings(parser) == {"-h", "--help"}
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: option_strings(sub) for name, sub in commands.choices.items()} == CLI_FLAGS


def test_interner_surface_is_pinned():
    # Labels reach the dictionaries only through Database.add_transaction, which
    # checks them; a second public write path would be a visible edit here.
    public = {name for name in vars(Interner) if not name.startswith("_")}
    assert public == {"label", "label_getter", "labels", "truncate"}


def test_benchmark_reads_only_interner_attributes():
    # ``db.items`` and ``db.tids`` are Interners; every attribute the harness
    # reads through them must still be defined there.
    read = {
        node.attr
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in ("items", "tids")
    }
    assert "label" in read and "labels" in read
    missing = sorted(attr for attr in read if not hasattr(Interner, attr))
    assert missing == []


#: What the harness reads of a mining result, and of one of its records.
RESULT_READS = {"levels", "level", "n_itemsets", "pairs", "stats"}
RECORD_READS = {"itemset", "support"}


def test_benchmark_reads_of_a_result_are_pinned(store9_db):
    read = {
        node.attr
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    assert RESULT_READS | RECORD_READS <= read
    result = mine(TradeList.build(store9_db), 2)
    assert all(hasattr(result, name) for name in RESULT_READS)
    (record, *_) = result
    assert all(hasattr(record, name) for name in RECORD_READS)


@pytest.mark.parametrize("module", ["basketmine", *sorted(f"basketmine.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_readme_imports_only_the_supported_api():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^from basketmine import .*$", text, flags=re.MULTILINE)
    assert lines, "README shows no library import"
    for _, name in basketmine_imports("\n".join(lines)):
        assert name in basketmine.__all__, name


def test_readme_library_snippet_runs(tmp_path, monkeypatch, store10_db):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (snippet,) = re.findall(r"^## Library use\n.*?^```python\n(.*?)^```$", text, re.M | re.S)
    (tmp_path / "store.txt").write_text((DATA / "store9.txt").read_text())
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(snippet, names)
    assert names["db"] == store10_db
    assert names["result"].levels == mine(TradeList.build(store10_db), 3).levels


@pytest.mark.parametrize("name", ["run.py", "test_oracle.py", "spans.py"])
def test_benchmark_imports_resolve(name):
    imports = basketmine_imports((PERFBENCH / name).read_text(encoding="utf-8"))
    assert imports
    for module, attr in imports:
        if module == "basketmine":
            # A package-level name is either supported API or a submodule.
            assert attr in basketmine.__all__ or attr in SUBMODULES, attr
        else:
            assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_benchmark_tracer_patch_points_exist():
    # The tracer swaps ``owner.attr`` for a wrapper and reads the original
    # from ``vars(owner)``, so each must be defined on that very object.
    owners = {"cli": cli, "Database": Database, "TradeList": TradeList}
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    points = [
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) >= 2
        and isinstance(node.elts[0], ast.Name)
        and node.elts[0].id in owners
        and isinstance(node.elts[1], ast.Constant)
        and isinstance(node.elts[1].value, str)
    ]
    assert ("cli", "remine") in points and ("cli", "mine_apriori") in points
    for owner, attr in points:
        assert attr in vars(owners[owner]), f"{owner}.{attr}"
