"""Host speed probe: scales measured times to a fixed reference speed.

On a shared machine the speed of one process drifts.  On a 2-vCPU shared
virtual machine it changes by up to ~1.5x, in phases lasting from seconds
to minutes, and process CPU time slows alike.  So every timed unit of the
benchmark (an import, a set-up, a pass) is bracketed by probes: a fixed
mix of interpreted work (Dijkstra over a fixed graph, as in routing) and
native work (a dense SVD, as in the kernel) that never changes.  A unit's
time is reported as ``measured * REFERENCE_S / probe``, that is in seconds
at the host speed where the probe takes ``REFERENCE_S``.  A change to the
program leaves the probe alone, so it moves scaled times as much as raw ones.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy

# The probe's best time on a 2-vCPU Xeon virtual machine (Python 3.11.7,
# numpy 2.4.6, OpenBLAS on one thread).  Scaled times are seconds at that speed.
REFERENCE_S = 0.010
# A probe is the best of this many runs of the probe work (~10 ms each), so
# that it follows slow phases lasting longer than a probe, not brief ones.
RUNS = 5


def _graph(nodes: int = 400, degree: int = 4) -> list[list[tuple[float, int]]]:
    rng = numpy.random.default_rng(7)
    targets = rng.integers(nodes, size=(nodes, degree)).tolist()
    weights = rng.uniform(1.0, 10.0, size=(nodes, degree)).tolist()
    graph: list[list[tuple[float, int]]] = [[] for _ in range(nodes)]
    for u in range(nodes):
        for v, weight in zip(targets[u], weights[u]):
            graph[u].append((weight, v))
            graph[v].append((weight, u))
    return graph


GRAPH = _graph()
MATRIX = numpy.random.default_rng(8).standard_normal((160, 100))


def _work() -> float:
    start = perf_counter()
    for source in range(3):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for weight, v in GRAPH[u]:
                if d + weight < dist.get(v, float("inf")):
                    dist[v] = d + weight
                    heapq.heappush(heap, (d + weight, v))
    for _ in range(3):
        numpy.linalg.svd(MATRIX, full_matrices=False)
    return perf_counter() - start


def speed() -> float:
    """The probe's time now: the best of ``RUNS`` runs of the probe work."""
    return min(_work() for _ in range(RUNS))


def factor(before: float, after: float) -> float:
    """Scale factor for a unit timed between probes ``before`` and ``after``."""
    return REFERENCE_S / ((before + after) / 2)
