"""The benchmark's workloads and their seeded input generator.

The generator is the benchmark's own and shares no code with
``basketmine.ingest.generate_synthetic``, so a change to the program's
generator cannot change what the benchmark feeds it. Transaction lengths are
Poisson(mean) clamped to [1, n_items]; items are drawn without replacement
under a 1/rank popularity skew (successive draws with replacement, repeats
rejected). Item ``g`` (0-based popularity rank) is labelled ``I{g+1}``; rows
are labelled ``T1, T2, ...`` across the base file and then the delta.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Workload:
    """One input shape and the thresholds every operation on it uses.

    ``support``/``confidence`` drive the support-change query and the
    ``update`` command; ``bench_support`` drives the ``bench`` command, whose
    Apriori baseline must stay affordable. The delta is ``batches`` batches
    of ``batch_size`` rows, and each absorbed batch is followed by a re-mine
    at ``stream_support``: a dashboard query that stays cheap, so the batch
    latency is the cost of absorbing writes and then serving one read from
    the grown index. ``n_generate`` sizes the timed call to the program's
    own synthetic generator.

    Every support sits between the expected supports of two itemsets, several
    standard deviations from each, so that which itemsets are frequent, and
    hence the work, does not change with the seed.
    """

    name: str
    n_base: int
    n_items: int
    mean_length: float
    support: str
    confidence: str
    batches: int
    batch_size: int
    stream_support: str
    bench_support: str
    n_generate: int

    @property
    def n_delta(self) -> int:
        return self.batches * self.batch_size


#: Why each workload exists is stated once, in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mine-deep",
            n_base=3000,
            n_items=200,
            mean_length=10,
            support="0.01",
            confidence="0.7",
            batches=100,
            batch_size=10,
            stream_support="0.46",
            bench_support="0.46",
            n_generate=1500,
        ),
        Workload(
            name="ingest-wide",
            n_base=20000,
            n_items=5000,
            mean_length=8,
            support="0.12",
            confidence="0.6",
            batches=100,
            batch_size=25,
            stream_support="0.46",
            bench_support="0.46",
            n_generate=1500,
        ),
        Workload(
            name="update-stream",
            n_base=5000,
            n_items=200,
            mean_length=10,
            support="0.46",
            confidence="0.6",
            batches=100,
            batch_size=150,
            stream_support="0.46",
            bench_support="0.46",
            n_generate=1500,
        ),
        Workload(
            name="crosscheck",
            n_base=2000,
            n_items=100,
            mean_length=8,
            support="0.03",
            confidence="0.6",
            batches=100,
            batch_size=10,
            stream_support="0.55",
            bench_support="0.03",
            n_generate=1500,
        ),
    )
}


def generate_rows(n_rows: int, n_items: int, mean_length: float, rng: np.random.Generator) -> list[list[int]]:
    """Rows of distinct 0-based item ranks, in draw order."""
    cdf = np.cumsum(1.0 / np.arange(1, n_items + 1))
    cdf /= cdf[-1]

    def draw(count: int) -> list[int]:
        return np.searchsorted(cdf, rng.random(count), side="right").tolist()

    lengths = np.clip(rng.poisson(mean_length, n_rows), 1, n_items).tolist()
    pool = draw(2 * sum(lengths) + 64)
    pos = 0
    rows = []
    for length in lengths:
        row: list[int] = []
        seen: set[int] = set()
        while len(row) < length:
            if pos == len(pool):
                pool, pos = draw(4096), 0
            item = pool[pos]
            pos += 1
            if item not in seen:
                seen.add(item)
                row.append(item)
        rows.append(row)
    return rows


def render_rows(rows: list[list[int]], first_tid: int) -> str:
    """The program's input format: ``T<n>,I<g+1>,...`` one row per line."""
    return "".join(
        f"T{first_tid + t}," + ",".join(f"I{g + 1}" for g in row) + "\n"
        for t, row in enumerate(rows)
    )


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the program, made before any timing starts."""

    rows: list[list[int]]  # base rows, then delta rows
    base_text: str
    batch_texts: list[str]

    @property
    def delta_text(self) -> str:
        return "".join(self.batch_texts)

    @property
    def digest(self) -> str:
        """sha256 of the base file, a NUL byte, then the delta file."""
        h = hashlib.sha256(self.base_text.encode())
        h.update(b"\0")
        h.update(self.delta_text.encode())
        return h.hexdigest()


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The workload's inputs for ``seed``: the same seed gives the same bytes."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    rows = generate_rows(workload.n_base + workload.n_delta, workload.n_items, workload.mean_length, rng)
    base_text = render_rows(rows[: workload.n_base], 1)
    batch_texts = []
    for b in range(workload.batches):
        start = workload.n_base + b * workload.batch_size
        batch_texts.append(render_rows(rows[start : start + workload.batch_size], start + 1))
    return Inputs(rows, base_text, batch_texts)
