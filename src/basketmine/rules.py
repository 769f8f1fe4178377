"""Association-rule generation with exact rational confidence.

Confidence is exact end to end: the threshold test is an integer
cross-multiplication, ``supp(Z) * den >= supp(X) * num`` for a minimum
confidence ``num/den``, so a rule at confidence 2/3 is included by
``--minconf 2/3`` and excluded by ``--minconf 0.6667`` with no float
round-off deciding the boundary.

Rules are found by growing consequents, not by trying every antecedent
(Agrawal & Srikant, VLDB 1994, section 3, ap-genrules). For each frequent Z
the one-item consequents are tested first. Then each larger size is
apriori-gen over the passing consequents one item smaller: those that share
all but their last item are joined, a join with any failed subset one item
smaller is dropped, and only the rest is tested. This is exact because
confidence is anti-monotone in the consequent: moving an item of Z from X to
the consequent shrinks X, which can only raise supp(X) and so lower
supp(Z) / supp(X). A consequent with a failing subset therefore fails too,
and every passing one is reached. The work follows the rules emitted plus
the failures on their border, not the ``2^|Z| - 2`` antecedents of each Z.

A level of at least ``ARRAY_MIN_ITEMSETS`` itemsets is searched a
consequent size at a time for all of its Z at once, on numpy arrays; a
smaller one, Z by Z (``apriori.generate_candidates`` is its join), bisecting
each subset's own level. Both read the mining result's level arrays, make the
same tests and write the same rows, a level at a time. The result is a
:class:`RuleSet`: it holds the mining result's level arrays and each rule as
three of its rows, and builds ``Rule`` records only when it is read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, count
from typing import Iterator, NoReturn

import numpy as np

from .apriori import generate_candidates
from .miner import MineResult, _extensions
from .model import Itemset, MiningError, ThresholdError, _check_itemset, _exact_fraction

__all__ = [
    "Rule",
    "RuleQuery",
    "RuleSet",
    "confidence",
    "format_percent",
    "generate_rules",
    "parse_confidence",
]

#: ``generate_rules`` searches a level of at least this many itemsets on
#: arrays, and one of fewer Z by Z, where each numpy call's fixed cost
#: outweighs the work it batches (the crossover, measured in the ROADMAP).
ARRAY_MIN_ITEMSETS = 64


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


class RuleSet(Sequence[Rule]):
    """The rules of one mining result, each held as three of its rows.

    ``itemsets`` and ``supports`` are the result's level arrays, as
    ``MineResult`` holds them. Row r is the result's r-th itemset in
    iteration order (by level, then canonical order): level k holds rows
    ``first[k - 1]`` up to ``first[k]``. Rule i is ``X => Y`` for
    ``(z, x, y) = sides[i]``: X is row x, Y row y and their union Z row z.
    Indexing or iterating builds each ``Rule`` afresh from its rows' level
    arrays; ``confidence_tests`` counts the antecedent supports looked up to
    find the rules.
    """

    __slots__ = ("itemsets", "supports", "first", "sides", "confidence_tests")

    def __init__(
        self,
        itemsets: list[np.ndarray],
        supports: list[np.ndarray],
        sides: np.ndarray,
        confidence_tests: int,
    ) -> None:
        self.itemsets = itemsets
        self.supports = supports
        self.first = _starts(supports)
        self.sides = sides
        self.confidence_tests = confidence_tests

    def __len__(self) -> int:
        return len(self.sides)

    def __getitem__(self, index: int | slice) -> Rule | list[Rule]:
        if isinstance(index, slice):
            return list(map(self._rule, *self.sides[index].T.tolist()))
        return self._rule(*self.sides[index].tolist())

    def __iter__(self) -> Iterator[Rule]:
        return map(self._rule, *self.sides.T.tolist())

    def _rule(self, z: int, x: int, y: int) -> Rule:
        supp_z = self._row(z)[1]
        antecedent, supp_x = self._row(x)
        return Rule(antecedent, self._row(y)[0], supp_z, confidence(supp_z, supp_x))

    def _row(self, row: int) -> tuple[Itemset, int]:
        """A row's itemset and support, read from its level's arrays."""
        level = bisect_right(self.first, row) - 1
        i = row - self.first[level]
        return tuple(self.itemsets[level][i].tolist()), int(self.supports[level][i])


def _starts(supports: list[np.ndarray]) -> list[int]:
    """The row of each level's first itemset, then the number of rows."""
    return list(accumulate(map(len, supports), initial=0))


def generate_rules(frequents: MineResult, query: RuleQuery) -> RuleSet:
    """Every rule X => Z\\X over the frequent itemsets meeting the confidence bar.

    Rules are emitted in canonical order: by Z (level, then canonical itemset
    order), then antecedent size ascending, then canonical antecedent order.
    The mining result must be downward-closed, which every correct miner
    guarantees; a missing antecedent support is therefore an internal error,
    not a data condition.
    """
    rows = _Rows(frequents)
    num = query.min_confidence.numerator
    den = query.min_confidence.denominator
    found = [np.empty((0, 3), dtype=np.int64)]
    tests = 0
    for k, level in enumerate(frequents.supports[1:], 2):
        search = _level_on_arrays if len(level) >= ARRAY_MIN_ITEMSETS else _level_by_itemset
        sides, n_tests = search(rows, k, num, den)
        found.append(sides)
        tests += n_tests
    return RuleSet(frequents.itemsets, frequents.supports, np.concatenate(found), tests)


def _not_downward_closed(antecedent: Itemset) -> NoReturn:
    raise MiningError(
        f"no support recorded for antecedent {antecedent}; mining result is not downward-closed"
    )


class _Rows:
    """Each itemset's row in a mining result, found by search in its level.

    Row r is the result's r-th itemset in iteration order, and
    ``first[k - 1]`` the row of level k's first itemset. The array path
    searches a level's keys (``find``). A key packs an itemset's k ordinals
    into one native int64 as digits in base (largest ordinal + 1); at a
    level where base^k would pass the int64 maximum, it is the itemset's
    fixed-width big-endian bytes. Both sort in canonical order, so a level,
    already canonical, needs no sort of its own. The loop over each Z
    bisects a level's rows as Python lists (``row``). Each level's keys or
    lists are built the first time that level is searched.
    """

    def __init__(self, result: MineResult) -> None:
        self.result = result
        self.first = _starts(result.supports)
        self._keys: dict[int, np.ndarray] = {}
        self._lists: dict[int, tuple[list[list[int]], list[int]]] = {}

    @cached_property
    def _base(self) -> int:
        return max((int(m.max()) for m in self.result.itemsets if m.size), default=0) + 1

    @cached_property
    def _byte_digit(self) -> np.dtype:
        # The narrowest unsigned type that holds every ordinal keeps the
        # byte-string keys short.
        return np.min_scalar_type(self._base - 1).newbyteorder(">")

    def keys(self, k: int) -> np.ndarray:
        """Level k's search keys, in its (canonical) order."""
        keys = self._keys.get(k)
        if keys is None:
            keys = self._keys[k] = self._pack(self.result.itemsets[k - 1])
        return keys

    def _pack(self, itemsets: np.ndarray) -> np.ndarray:
        k = itemsets.shape[1]
        if self._base**k <= _INT64_MAX:
            return itemsets @ self._base ** np.arange(k - 1, -1, -1)
        width = k * self._byte_digit.itemsize
        return itemsets.astype(self._byte_digit).view(f"V{width}").ravel()

    def find(self, itemsets: np.ndarray) -> np.ndarray:
        """The index in its level of each canonical itemset of an ``n x j`` array."""
        at, hit = _search(self.keys(itemsets.shape[1]), self._pack(itemsets))
        if not hit.all():
            _not_downward_closed(tuple(itemsets[np.argmin(hit)].tolist()))
        return at

    def row(self, itemset: Itemset) -> tuple[int, int]:
        """A canonical itemset's row and support, bisected in its level's rows."""
        k = len(itemset)
        level = self._lists.get(k)
        if level is None:
            level = self._lists[k] = (
                self.result.itemsets[k - 1].tolist(),
                self.result.supports[k - 1].tolist(),
            )
        itemsets, supports = level
        wanted = list(itemset)
        i = bisect_left(itemsets, wanted)
        if i == len(itemsets) or itemsets[i] != wanted:
            _not_downward_closed(itemset)
        return self.first[k - 1] + i, supports[i]


def _search(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each wanted key goes in the sorted ``keys``, and whether it is there."""
    at = np.searchsorted(keys, wanted)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == wanted[hit]
    return at, hit


_INT64_MAX = np.iinfo(np.int64).max


def _limits(supports: np.ndarray, num: int, den: int) -> np.ndarray:
    """``supp(Z) * den // num`` for each Z: supp(X) passes iff it is at most that."""
    if int(supports.max(initial=0)) * den <= _INT64_MAX:
        return supports * den // num
    # Exact in Python ints. Every supp(X) fits in int64, so a limit past it
    # passes them all, as the int64 maximum does.
    return np.array([min(s * den // num, _INT64_MAX) for s in supports.tolist()], dtype=np.int64)


def _picked(whole: np.ndarray, z: np.ndarray, mask: np.ndarray, size: int) -> np.ndarray:
    """The ``size`` items at the set bits of ``mask[i]`` of ``whole[z[i]]``, row i for each i."""
    chosen = (mask[:, None] >> np.arange(whole.shape[1])) & 1 == 1
    return whole[z][chosen].reshape(-1, size)


def _level_on_arrays(rows: _Rows, k: int, num: int, den: int) -> tuple[np.ndarray, int]:
    """Level k's rules as ``(z, x, y)`` rows in canonical order, and their test count.

    A consequent is a bitmask over the positions of its Z: bit p holds the
    item ``Z[p]``. Each size's passing (Z, mask) pairs grow by every higher
    position, and a grown mask is tested only if every mask one bit smaller
    passed, found among the sorted ``z << k | mask`` keys of those that did.

    The keys fit in int64: the one-item tests first find every Z's subsets
    one item smaller, so by then the result holds Z's ``2^k - 1`` subsets,
    and ``n_k * 2^k`` is below the square of its size.
    """
    whole = rows.result.itemsets[k - 1]
    supports, first = rows.result.supports, rows.first
    limit = _limits(supports[k - 1], num, den)
    # One-item consequents, position k - 1 first, so that each Z's
    # antecedents come in canonical order (and a missing one is reported
    # as the loop reports it).
    high = np.tile(np.arange(k - 1, -1, -1), len(whole))
    z = np.repeat(np.arange(len(whole)), k)
    mask = 1 << high
    kept = np.nonzero(~np.eye(k, dtype=bool)[::-1])[1].reshape(k, k - 1)
    x = rows.find(whole[:, kept].reshape(-1, k - 1))
    tests = len(x)
    found = []
    full = (1 << k) - 1
    size = 1
    while True:
        ok = supports[k - size - 1][x] <= limit[z]
        z, mask, high, x = z[ok], mask[ok], high[ok], x[ok]
        y = rows.find(_picked(whole, z, mask, size))
        found.append((z, x + first[k - size - 1], y + first[size - 1]))
        # A consequent of k - 1 items would leave its antecedent no room to shrink.
        if size == k - 1 or len(z) < 2:
            break
        size += 1
        passed = np.sort(z << k | mask)
        # Join: each passing mask with every position above its highest.
        parent, high = _extensions(high, k)
        z = z[parent]
        mask = mask[parent] | 1 << high
        # Prune: dropping the highest bit gives the parent, which passed.
        key = z << k | mask
        keep = np.ones(len(z), dtype=bool)
        for p in range(k - 1):
            smaller = np.flatnonzero((mask >> p & 1 == 1) & (high != p))
            _, hit = _search(passed, key[smaller] ^ 1 << p)
            keep[smaller[~hit]] = False
        z, mask, high = z[keep], mask[keep], high[keep]
        x = rows.find(_picked(whole, z, full ^ mask, k - size))
        tests += len(x)
    z, x, y = map(np.concatenate, zip(*found))
    # By Z, then antecedent: rows run by level, then canonical order.
    order = np.lexsort((x, z))
    return np.stack((z[order] + first[k - 1], x[order], y[order]), axis=1), tests


def _level_by_itemset(rows: _Rows, k: int, num: int, den: int) -> tuple[np.ndarray, int]:
    """``_level_on_arrays`` one Z at a time.

    Larger consequents are apriori-gen over the passing ones of each Z
    (``generate_candidates``). Each antecedent and consequent is bisected in
    its own level's rows (``_Rows.row``).
    """
    row = rows.row
    level = map(tuple, rows.result.itemsets[k - 1].tolist())
    level_supports = rows.result.supports[k - 1].tolist()
    found: list[tuple[int, int, int]] = []
    tests = 0
    last = k - 1
    for z, whole, supp_z in zip(count(rows.first[k - 1]), level, level_supports):
        # supp(X) * num <= supp(Z) * den  iff  supp(X) <= limit, in integers.
        limit = supp_z * den // num
        # The one-item consequents. combinations drops whole[-1] first and
        # whole[0] last, so the antecedents come in canonical order and
        # antecedents[j] is the one of consequent (whole[last - j],).
        antecedents = list(combinations(whole, last))
        xs = list(map(row, antecedents))
        tests += last + 1
        passing = [j for j, (_, supp_x) in enumerate(xs) if supp_x <= limit]
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
                candidates = generate_candidates(list(antecedent_of))
                tests += len(candidates)
                for consequent in candidates:
                    # The antecedent of the consequent's head, less the added item.
                    head_antecedent = antecedent_of[consequent[:-1]]
                    j = head_antecedent.index(consequent[-1])
                    antecedent = head_antecedent[:j] + head_antecedent[j + 1 :]
                    x, supp_x = row(antecedent)
                    if supp_x <= limit:
                        grown[consequent] = antecedent
                        sized.append((z, x, row(consequent)[0]))
                # Same-size complements come in reverse order: the
                # consequents' canonical order is the antecedents' reversed.
                sized.reverse()
                by_size.append(sized)
                antecedent_of = grown
            # Larger consequents mean smaller antecedents: they come first.
            for sized in reversed(by_size):
                found += sized
        found += [(z, xs[j][0], row((whole[last - j],))[0]) for j in passing]
    return np.array(found, dtype=np.int64).reshape(-1, 3), tests


def format_percent(value: Fraction | int) -> str:
    """Percentage string of a value >= 0, half up to 2 decimals, zeros trimmed.

    5/8 -> "62.5%", 7/9 -> "77.78%", 1 -> "100%". Computed in integers:
    ``floor(n/d * 10000 + 1/2) == (20000*n + d) // (2*d)``. Confidences and
    support shares are never negative, so a negative value is rejected.
    """
    if value < 0:
        raise MiningError(f"a percentage must be >= 0, got {value}")
    n, d = value.numerator, value.denominator
    return _hundredths_text((20000 * n + d) // (2 * d))


def _hundredths_text(hundredths: int) -> str:
    """A count of hundredths of a percent as ``format_percent`` writes it."""
    whole, rest = divmod(hundredths, 100)
    if rest % 10:
        return f"{whole}.{rest:02d}%"
    if rest:
        return f"{whole}.{rest // 10}%"
    return f"{whole}%"
