"""Association-rule generation with exact rational confidence.

Confidence is exact end to end: the threshold test is an integer
cross-multiplication, ``supp(Z) * den >= supp(X) * num`` for a minimum
confidence ``num/den``, so a rule at confidence 2/3 is included by
``--minconf 2/3`` and excluded by ``--minconf 0.6667`` with no float
round-off deciding the boundary. Emitted rules carry their confidence as a
Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .miner import MineResult
from .model import Itemset, MiningError, ThresholdError

__all__ = [
    "Rule",
    "RuleQuery",
    "confidence",
    "format_percent",
    "generate_rules",
    "parse_confidence",
]


@dataclass(frozen=True)
class Rule:
    """antecedent => consequent, with the union's support and exact confidence."""

    antecedent: Itemset
    consequent: Itemset
    support: int
    confidence: Fraction


@dataclass(frozen=True)
class RuleQuery:
    min_confidence: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.min_confidence <= 1:
            raise ThresholdError(
                f"minimum confidence must be in (0, 1], got {self.min_confidence}"
            )


def parse_confidence(text: str) -> Fraction:
    """Exact confidence from user input: "0.7", "70%", or "7/10"."""
    cleaned = text.strip()
    try:
        if cleaned.endswith("%"):
            return Fraction(cleaned[:-1].strip()) / 100
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ThresholdError(f"bad confidence {text!r}: {exc}") from None


def confidence(supp_xy: int, supp_x: int) -> Fraction:
    """support(X u Y) / support(X), as an exact fraction."""
    if supp_x < 1:
        raise MiningError("antecedent support must be >= 1")
    if not 0 <= supp_xy <= supp_x:
        raise MiningError(f"impossible supports: supp_xy={supp_xy}, supp_x={supp_x}")
    return Fraction(supp_xy, supp_x)


def generate_rules(frequents: MineResult, query: RuleQuery) -> list[Rule]:
    """Every rule X => Z\\X over the frequent itemsets meeting the confidence bar.

    Rules are emitted in canonical order: by Z (level, then canonical itemset
    order), then antecedent size ascending, then canonical antecedent order.
    The mining result must be downward-closed, which every correct miner
    guarantees; a missing antecedent support is therefore an internal error,
    not a data condition.
    """
    supports = frequents.support_map()
    num = query.min_confidence.numerator
    den = query.min_confidence.denominator
    rules: list[Rule] = []
    for level in frequents.levels[1:]:
        for fi in level:
            whole, supp_whole = fi.itemset, fi.support
            for size in range(1, len(whole)):
                for antecedent in combinations(whole, size):
                    supp_x = supports.get(antecedent)
                    if supp_x is None:
                        raise MiningError(
                            f"no support recorded for antecedent {antecedent}; "
                            "mining result is not downward-closed"
                        )
                    if supp_whole * den >= supp_x * num:
                        conf = confidence(supp_whole, supp_x)
                        consequent = tuple(i for i in whole if i not in antecedent)
                        rules.append(Rule(antecedent, consequent, supp_whole, conf))
    return rules


def format_percent(value: Fraction | int) -> str:
    """Percentage string, half-away-from-zero to 2 decimals, zeros trimmed.

    5/8 -> "62.5%", 7/9 -> "77.78%", 1 -> "100%". Computed in integers:
    ``floor(n/d * 10000 + 1/2) == (20000*n + d) // (2*d)``.
    """
    n, d = value.numerator, value.denominator
    hundredths = (20000 * n + d) // (2 * d)
    whole, rest = divmod(hundredths, 100)
    text = f"{whole}.{rest:02d}".rstrip("0").rstrip(".")
    return text + "%"
