"""Frequent-itemset and association-rule mining over a vertical trade-list index.

One scan of the transaction database builds the index; mining, re-mining at
new thresholds, and incremental transaction adds all run off the index
without scanning the earlier rows again. A level-wise baseline miner
provides an independent route to the same answers for testing and
benchmarking.
"""

from .apriori import mine_apriori
from .ingest import SyntheticSpec, generate_synthetic, parse_database, parse_into, write_database
from .miner import FrequentItemset, MineResult, MineStats, mine, remine
from .model import (
    Database,
    DuplicateTidError,
    MiningError,
    ParseError,
    SupportThreshold,
    ThresholdError,
    UnknownItemError,
)
from .rules import Rule, RuleQuery, format_percent, generate_rules, parse_confidence
from .tradelist import TradeList

__version__ = "0.1.0"

__all__ = [
    "Database",
    "DuplicateTidError",
    "FrequentItemset",
    "MineResult",
    "MineStats",
    "MiningError",
    "ParseError",
    "Rule",
    "RuleQuery",
    "SupportThreshold",
    "SyntheticSpec",
    "ThresholdError",
    "TradeList",
    "UnknownItemError",
    "format_percent",
    "generate_rules",
    "generate_synthetic",
    "mine",
    "mine_apriori",
    "parse_confidence",
    "parse_database",
    "parse_into",
    "remine",
    "write_database",
]
