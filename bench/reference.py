"""Host-speed reference: a fixed pure-Python chunk timed between items.

The machine the benchmark was written on is two vCPUs of a shared host.
Its speed drifts by tens of percent, from second to second and from one
minute to the next, and that drift moves a whole 30 s run, so medians
within a run cannot remove it.  A fixed chunk of interpreter work
(sorting, dicts and sets, big-integer elimination, method calls) slows
with the host as the package's pure-Python code does.  So every gated time is rescaled by the chunks
timed around it: it reads as the time the same work would take on a host
where one chunk takes exactly 1 ms.  The chunk is the benchmark's own
code, so a change to the package moves the rescaled times fully.
"""

from __future__ import annotations

import bisect
import statistics
import time

CHUNK_EVERY_S = 0.010  # a chunk before an item when this long has passed since the last
WINDOW = 7  # an item is rescaled by the median of the 2 * WINDOW + 1 nearest chunks
UNIT_S = 1e-3  # a rescaled time is in units of one chunk, counted as 1 ms
SETUP_CHUNKS = 5  # chunks timed just before a worker is spawned, and again once it is set up


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


def chunk() -> int:
    """About 1 ms of mixed interpreter work on the machine described in README.md.

    Three parts, each like some of the package's code: tuples sorted into a
    dict and sets; GF(2) elimination on 200-bit integers; small objects
    with method calls.  A tight integer-and-dict loop alone slowed only
    0.75 times as much as the workloads when the host slowed, so rescaling
    by it overcorrected; this mix follows them (slope 0.95 to 0.99 of log
    pass time on log chunk time over 2.5 min of passes of cup-grid and
    spectral-grid).
    """
    rows = [((i * 7919) % 1009, i, str(i & 15)) for i in range(600)]
    rows.sort()
    table = {row[1]: row for row in rows}
    common = {row[0] for row in rows} & {row[0] ^ 3 for row in rows}

    vectors = [(i * 0x9E3779B97F4A7C15) & ((1 << 200) - 1) for i in range(1, 100)]
    rank = 0
    for i, pivot in enumerate(vectors):
        if pivot:
            rank += 1
            low = pivot & -pivot
            for j in range(i + 1, len(vectors)):
                if vectors[j] & low:
                    vectors[j] ^= pivot

    pairs = [_Pair(i, i + 1) for i in range(300)]
    acc = sum(p.at(x) for p in pairs for x in (1, 2, 3))
    return len(table) + len(common) + rank + acc


def timed_chunks(count: int) -> list[float]:
    """Seconds taken by each of `count` chunks run back to back."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        chunk()
        out.append(time.perf_counter() - t0)
    return out


def rescale(seconds: float, chunk_s: list[float]) -> float:
    """`seconds` on a host where one chunk takes UNIT_S, given nearby chunk times."""
    return seconds * UNIT_S / statistics.median(chunk_s)


class Pacer:
    """Times a chunk before an item whenever CHUNK_EVERY_S has passed."""

    def __init__(self):
        chunk()  # warm the loop before the first timed chunk
        self.chunks: list[tuple[int, float]] = []  # (index of the next item, seconds)
        self.last = float("-inf")

    def before(self, index: int) -> None:
        if time.perf_counter() - self.last >= CHUNK_EVERY_S:
            t0 = time.perf_counter()
            chunk()
            self.last = time.perf_counter()
            self.chunks.append((index, self.last - t0))

    def factors(self, items: int) -> list[float]:
        """Per item, the factor that rescales its seconds by the chunks nearest to it."""
        where = [index for index, _ in self.chunks]
        took = [s for _, s in self.chunks]
        out = []
        for i in range(items):
            j = bisect.bisect_right(where, i) - 1
            out.append(rescale(1.0, took[max(0, j - WINDOW):j + WINDOW + 1]))
        return out
