"""Association-rule generation with exact rational confidence.

Confidence is exact end to end: the threshold test is an integer
cross-multiplication, ``supp(Z) * den >= supp(X) * num`` for a minimum
confidence ``num/den``, so a rule at confidence 2/3 is included by
``--minconf 2/3`` and excluded by ``--minconf 0.6667`` with no float
round-off deciding the boundary. Emitted rules carry their confidence as a
Fraction; rules with equal supports share one.

Rules are found by growing consequents, not by trying every antecedent
(Agrawal & Srikant, VLDB 1994, section 3, ap-genrules). For each frequent Z
the one-item consequents are tested first. Then each larger size is
apriori-gen over the passing consequents one item smaller
(``apriori.generate_candidates``): those that share all but their last item
are joined, a join with any failed subset one item smaller is dropped, and
only the rest is tested. This is exact because confidence is anti-monotone
in the consequent: moving an item of Z from X to the consequent shrinks X,
which can only raise supp(X) and so lower supp(Z) / supp(X). A consequent
with a failing subset therefore fails too, and every passing one is reached.
The work follows the rules emitted plus the failures on their border, not
the ``2^|Z| - 2`` antecedents of each Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .apriori import generate_candidates
from .miner import MineResult
from .model import Itemset, MiningError, ThresholdError, _check_itemset, _exact_fraction

__all__ = [
    "Rule",
    "RuleQuery",
    "confidence",
    "format_percent",
    "generate_rules",
    "parse_confidence",
]


@dataclass(frozen=True, slots=True)
class Rule:
    """antecedent => consequent, with the union's support and exact confidence."""

    antecedent: Itemset
    consequent: Itemset
    support: int
    confidence: Fraction

    def __post_init__(self) -> None:
        _check_itemset(self.antecedent, "rule antecedent")
        _check_itemset(self.consequent, "rule consequent")
        if not set(self.antecedent).isdisjoint(self.consequent):
            raise MiningError(f"rule sides {self.antecedent} and {self.consequent} share an item")
        if not 0 < self.confidence <= 1:
            raise MiningError(f"rule confidence must be in (0, 1], got {self.confidence}")


# generate_rules builds each Rule through its slots' own setters, which get
# past the frozen __setattr__ and the checks (as miner.mine does for
# FrequentItemset): its sides are disjoint and its confidence is in (0, 1].
_new_object = object.__new__
_set_antecedent = Rule.__dict__["antecedent"].__set__
_set_consequent = Rule.__dict__["consequent"].__set__
_set_support = Rule.__dict__["support"].__set__
_set_confidence = Rule.__dict__["confidence"].__set__


@dataclass(frozen=True)
class RuleQuery:
    """The minimum confidence, read to an exact ``Fraction`` as a fractional support is."""

    min_confidence: Fraction

    def __post_init__(self) -> None:
        value = _exact_fraction(self.min_confidence, "minimum confidence")
        if not 0 < value <= 1:
            raise ThresholdError(f"minimum confidence must be in (0, 1], got {value}")
        object.__setattr__(self, "min_confidence", value)


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
    confidences: dict[tuple[int, int], Fraction] = {}  # one Fraction per support pair

    def rule(antecedent: Itemset, consequent: Itemset, supp_whole: int, supp_x: int) -> Rule:
        conf = confidences.get((supp_whole, supp_x))
        if conf is None:
            conf = confidences[supp_whole, supp_x] = confidence(supp_whole, supp_x)
        new = _new_object(Rule)
        _set_antecedent(new, antecedent)
        _set_consequent(new, consequent)
        _set_support(new, supp_whole)
        _set_confidence(new, conf)
        return new

    rules: list[Rule] = []
    for level in frequents.levels[1:]:
        for fi in level:
            whole, supp_whole = fi.itemset, fi.support
            # supp(X) * num <= supp(Z) * den  iff  supp(X) <= limit, in integers.
            limit = supp_whole * den // num
            # The one-item consequents. combinations drops whole[-1] first and
            # whole[0] last, so the antecedents come in canonical order and
            # antecedents[j] is the one of consequent (whole[last - j],).
            last = len(whole) - 1
            antecedents = list(combinations(whole, last))
            supps = list(map(supports.get, antecedents))
            if None in supps:
                raise MiningError(
                    f"no support recorded for antecedent {antecedents[supps.index(None)]}; "
                    "mining result is not downward-closed"
                )
            passing = [j for j, supp_x in enumerate(supps) if supp_x <= limit]
            if len(passing) > 1 and last > 1:
                # Larger consequents: apriori-gen over the passing consequents
                # one item smaller, testing only its candidates.
                antecedent_of = {(whole[last - j],): antecedents[j] for j in reversed(passing)}
                by_size = []
                width = last  # the antecedents' length at this size
                # Stop once the antecedents are single items: a join would leave none.
                while len(antecedent_of) > 1 and width > 1:
                    width -= 1
                    grown = {}
                    sized = []
                    for consequent in generate_candidates(list(antecedent_of)):
                        # The antecedent of the consequent's head, less the added item.
                        head_antecedent = antecedent_of[consequent[:-1]]
                        j = head_antecedent.index(consequent[-1])
                        antecedent = head_antecedent[:j] + head_antecedent[j + 1 :]
                        # Recorded: head_antecedent is an itemset of a lower
                        # level, so an earlier Z, whose one-item tests looked
                        # this one up.
                        supp_x = supports[antecedent]
                        if supp_x <= limit:
                            grown[consequent] = antecedent
                            sized.append(rule(antecedent, consequent, supp_whole, supp_x))
                    # Same-size complements come in reverse order: the
                    # consequents' canonical order is the antecedents' reversed.
                    sized.reverse()
                    by_size.append(sized)
                    antecedent_of = grown
                # Larger consequents mean smaller antecedents: they come first.
                for sized in reversed(by_size):
                    rules += sized
            for j in passing:
                rules.append(rule(antecedents[j], (whole[last - j],), supp_whole, supps[j]))
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
