"""Independent numpy oracle for every output the benchmark checks.

It is built from the generated rows alone (0-based item ranks; rank ``g`` is
labelled ``I{g+1}`` and row ``t`` is ``T{t+1}``) and imports nothing from
``basketmine``. Each item's rows are kept as a packed uint64 bitmap, so the
support of an itemset in the first ``n`` rows is the popcount of its
members' bitmaps ANDed together and cut at bit ``n``.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

import numpy as np

Itemset = tuple[int, ...]

#: Most problems listed per check; the first few are enough to diagnose.
MAX_PROBLEMS = 5

BENCH_HEADER = "algo,elapsed_ms,raw_passes,work_ops,n_frequent"


def ranks(labels) -> Itemset:
    """Sorted item ranks of ``I<g+1>`` labels."""
    return tuple(sorted(int(label.strip()[1:]) - 1 for label in labels))


def show(itemset: Itemset) -> str:
    return "{" + ", ".join(f"I{g + 1}" for g in itemset) + "}"


def percent(value: Fraction) -> str:
    """Exact percentage rounded half up to two decimals, zeros trimmed."""
    hundredths = (20000 * value.numerator + value.denominator) // (2 * value.denominator)
    whole, cents = divmod(hundredths, 100)
    if cents == 0:
        return f"{whole}%"
    return f"{whole}.{cents:02d}".rstrip("0") + "%"


class Oracle:
    """Ground truth for a list of rows and any prefix of it."""

    def __init__(self, rows: list[list[int]], n_items: int) -> None:
        self.n_items = n_items
        self.n_rows = len(rows)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        self.offsets = np.concatenate(([0], np.cumsum(lengths)))
        self.flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(self.offsets[-1]))
        self.row_of = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
        self.bits = np.zeros((n_items, (len(rows) + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(
            self.bits,
            (self.flat, self.row_of >> 6),
            np.left_shift(np.uint64(1), (self.row_of & 63).astype(np.uint64)),
        )

    # -- ground truth ------------------------------------------------------

    def _bitmaps(self, items, n: int) -> np.ndarray:
        """Bitmaps of ``items`` restricted to the first ``n`` rows."""
        words, rest = divmod(n, 64)
        out = self.bits[np.asarray(items, dtype=np.int64), : words + (rest > 0)].copy()
        if rest:
            out[:, -1] &= np.uint64((1 << rest) - 1)
        return out

    def support(self, itemset: Itemset, n: int) -> int:
        acc = np.bitwise_and.reduce(self._bitmaps(itemset, n), axis=0)
        return int(np.bitwise_count(acc).sum())

    def minsupp(self, fraction: str, n: int) -> int:
        """Absolute count for a fractional support: ceil(fraction * n), at least 1."""
        frac = Fraction(fraction)
        return max(1, -(-frac.numerator * n // frac.denominator))

    def frequent(self, minsupp: int, n: int) -> dict[Itemset, int]:
        """Every itemset with support >= minsupp in the first ``n`` rows.

        Level-wise: each level joins the frequent itemsets that share all but
        their last item and keeps a candidate only if all its subsets one
        smaller are frequent, then counts it from the rows. The candidates
        counted are exactly the frequent itemsets plus their negative border,
        so an unreported frequent itemset is always found.
        """
        counts = np.bincount(self.flat[: self.offsets[n]], minlength=self.n_items)
        items = [int(g) for g in np.flatnonzero(counts >= minsupp)]
        out: dict[Itemset, int] = {(g,): int(counts[g]) for g in items}
        level = dict(zip(((g,) for g in items), self._bitmaps(items, n)))
        while level:
            keys = sorted(level)
            nxt = {}
            for i, a in enumerate(keys):
                lasts = []
                for b in keys[i + 1 :]:
                    if a[:-1] != b[:-1]:
                        break
                    cand = a + (b[-1],)
                    if all(cand[:j] + cand[j + 1 :] in level for j in range(len(cand) - 2)):
                        lasts.append(b[-1])
                if not lasts:
                    continue
                joined = level[a] & self._bitmaps(lasts, n)
                supports = np.bitwise_count(joined).sum(axis=1)
                for last, bitmap, supp in zip(lasts, joined, supports.tolist()):
                    if supp >= minsupp:
                        nxt[a + (last,)] = bitmap
                        out[a + (last,)] = supp
            level = nxt
        return out

    @staticmethod
    def rules(family: dict[Itemset, int], minconf: Fraction) -> dict[tuple[Itemset, Itemset], Fraction]:
        """Every rule X -> Z\\X over ``family`` with exact confidence >= minconf."""
        out = {}
        for whole, supp_whole in family.items():
            for size in range(1, len(whole)):
                for lhs in combinations(whole, size):
                    conf = Fraction(supp_whole, family[lhs])
                    if conf >= minconf:
                        out[(lhs, tuple(g for g in whole if g not in lhs))] = conf
        return out

    def tradelist_log(self, n: int) -> str:
        """The trade-list log of the first ``n`` rows, items in first-appearance order."""
        flat = self.flat[: self.offsets[n]]
        row_of = self.row_of[: len(flat)]
        present, first = np.unique(flat, return_index=True)
        by_item = row_of[np.argsort(flat, kind="stable")]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(flat)[present])))
        slot = {int(g): k for k, g in enumerate(present)}
        lines = []
        for g in present[np.argsort(first)].tolist():
            k = slot[g]
            tids = by_item[bounds[k] : bounds[k + 1]].tolist()
            lines.append(f"I{g + 1} = " + ", ".join(f"T{t + 1}" for t in tids) + "\n")
        return "".join(lines)

    # -- checks --------------------------------------------------------------

    def check_itemsets(self, reported: dict[Itemset, int | None], minsupp: int, n: int) -> list[str]:
        """Recount every reported support and find every frequent itemset left out.

        A reported support of ``None`` (a log without counts) is checked only
        for reaching ``minsupp``.
        """
        truth = self.frequent(minsupp, n)
        problems = []
        for itemset, supp in reported.items():
            true = truth.get(itemset)
            if true is None:
                problems.append(
                    f"{show(itemset)} reported, but its support {self.support(itemset, n)} < {minsupp}"
                )
            elif supp is not None and supp != true:
                problems.append(f"{show(itemset)} reported with support {supp}, rows give {true}")
        for itemset in sorted(truth.keys() - reported.keys()):
            problems.append(f"{show(itemset)} has support {truth[itemset]} >= {minsupp} but is missing")
        return problems[:MAX_PROBLEMS]

    def check_rules(
        self,
        reported: dict[tuple[Itemset, Itemset], Fraction | str],
        n_reported: int,
        minsupp: int,
        minconf: Fraction,
        n: int,
    ) -> list[str]:
        """Rule count and every rule's confidence: exact, or as its rendered percentage."""
        truth = self.rules(self.frequent(minsupp, n), minconf)
        problems = []
        if n_reported != len(truth):
            problems.append(f"{n_reported} rules reported, rows give {len(truth)}")
        for (lhs, rhs), conf in reported.items():
            want = truth.get((lhs, rhs))
            if isinstance(conf, str) and want is not None:
                want = percent(want)
            if want != conf:
                problems.append(f"rule {show(lhs)}->{show(rhs)} = {conf}, rows give {want}")
        for lhs, rhs in sorted(truth.keys() - reported.keys()):
            problems.append(f"rule {show(lhs)}->{show(rhs)} missing")
        return problems[:MAX_PROBLEMS]

    def check_tradelist_log(self, text: str, n: int) -> list[str]:
        want = self.tradelist_log(n)
        if text == want:
            return []
        got_lines, want_lines = text.splitlines(), want.splitlines()
        for k, (got, expected) in enumerate(zip(got_lines, want_lines), start=1):
            if got != expected:
                return [f"trade-list log line {k} is {got[:80]!r}, rows give {expected[:80]!r}"]
        return [f"trade-list log has {len(got_lines)} lines, rows give {len(want_lines)}"]

    def check_freq_log(self, text: str, minsupp: int, n: int) -> list[str]:
        """Rows numbered 1..N, smaller itemsets first, holding exactly the frequent itemsets."""
        reported: dict[Itemset, int | None] = {}
        problems = []
        size = 0
        for k, line in enumerate(text.splitlines(), start=1):
            number, _, labels = line.partition("-")
            if number != str(k):
                problems.append(f"freq log line {k} is numbered {number!r}")
            itemset = ranks(labels.split(","))
            if len(itemset) < size:
                problems.append(f"freq log line {k}: {show(itemset)} follows a larger itemset")
            size = len(itemset)
            if itemset in reported:
                problems.append(f"freq log line {k}: {show(itemset)} repeated")
            reported[itemset] = None
        return (problems + self.check_itemsets(reported, minsupp, n))[:MAX_PROBLEMS]

    def check_rules_log(self, text: str, minsupp: int, minconf: Fraction, n: int) -> list[str]:
        lines = text.splitlines()
        reported = {}
        for line in lines:
            rule, _, pct = line.partition(" = ")
            lhs, _, rhs = rule.partition("->")
            reported[(ranks(lhs.split(",")), ranks(rhs.split(",")))] = pct
        return self.check_rules(reported, len(lines), minsupp, minconf, n)

    def check_bench_csv(self, stdout: str, minsupp: int, n: int) -> list[str]:
        """Both algorithms report the true itemset count; the trade list scans once."""
        lines = stdout.splitlines()
        if BENCH_HEADER not in lines:
            return [f"bench printed no CSV header: {stdout[-200:]!r}"]
        rows = {}
        for line in lines[lines.index(BENCH_HEADER) + 1 :]:
            algo, _, raw, work, n_frequent = line.split(",")
            rows[algo] = (int(raw), int(work), int(n_frequent))
        if set(rows) != {"tradelist", "apriori"}:
            return [f"bench rows {sorted(rows)}, want apriori and tradelist"]
        want = len(self.frequent(minsupp, n))
        problems = [
            f"{algo} reports {row[2]} frequent itemsets, rows give {want}"
            for algo, row in rows.items()
            if row[2] != want
        ]
        if rows["tradelist"][0] != 1:
            problems.append(f"tradelist made {rows['tradelist'][0]} raw passes, want 1")
        if rows["apriori"][0] < rows["tradelist"][0]:
            problems.append(f"apriori made {rows['apriori'][0]} raw passes, fewer than the trade list")
        return problems
