"""The strong and weak probes rewritten from the paper's definitions.

F-sensitivity asks that N(U, delta) = {n : diam f^n(U) > delta} belong to
the family F for every region U of the cover. Weak F-sensitivity asks that
every region hold one pair x, y whose own set N(x, y, delta) belongs to F.
A region stands for its sample here, so diam f^n(U) is the largest distance
between sampled points at time n.

Everything is recomputed in plain Python and nothing reads a scan. Point x
at time n is ``prefix_compose(seq, n, x)``, recomposed from time 0 for
every n, and a finite subset moves element by element. Pairs are measured
with the scalar ``distance`` and ``hausdorff``. Each time's maximum and
witness is the first pair in (i, j) order under a strict ``>``. A family
is decided on a hit set's integer mask (bit n - 1 is time n) by the check
battery's own predicates ``_mask_*``.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

import numpy as np

from nonauto.acceptance import _mask_cofinite, _mask_infinite, _mask_syndetic
from nonauto.families import windowed
from nonauto.sensitivity import FAILS, HOLDS, RegionRecord
from nonauto.spaces import (
    SYMBOLIC,
    FiniteSubset,
    distance,
    hausdorff,
    sample_region,
    symbolic_truncation_bound,
)
from nonauto.systems import prefix_compose

Reference = namedtuple("Reference", "verdict failing_region regions")
# pairs lists (i, j) for i < j in order; table[r][n] is pair r's distance
# at time n; peaks[n] is time n's (maximum, first pair attaining it)
RegionData = namedtuple("RegionData", "pairs table peaks truncation_bound")


def accepts(fam, masks, horizon: int) -> np.ndarray:
    """The family's verdict on each hit-set mask over times 1 .. horizon."""
    masks = np.array(masks, dtype=object)
    if fam.kind == "nonempty":
        return masks != 0
    if fam.kind == "infinite":
        return _mask_infinite(masks, horizon, fam.min_count,
                              fam.tail_fraction)
    if fam.kind == "cofinite":
        return _mask_cofinite(masks, horizon, fam.max_missing)
    if fam.kind == "syndetic":
        return _mask_syndetic(masks, horizon, fam.max_gap)
    # a dual accepts a set whose complement, the mirrored mask, is refused
    return ~accepts(fam.inner, (1 << horizon) - 1 - masks, horizon)


def mask_of(times) -> int:
    return sum(1 << (n - 1) for n in times)


def moved(seq, n: int, p):
    if isinstance(p, FiniteSubset):
        return FiniteSubset(tuple(prefix_compose(seq, n, e)
                                  for e in p.elements), p.space)
    return prefix_compose(seq, n, p)


def measure(space, a, b) -> float:
    if isinstance(a, FiniteSubset):
        return hausdorff(a, b)
    return distance(space, a, b)


@lru_cache(maxsize=64)
def region_data(seq, region, horizon: int, resolution: int) -> RegionData:
    sample = sample_region(region, resolution)
    orbits = [[moved(seq, n, p) for n in range(horizon + 1)] for p in sample]
    pairs = list(combinations(range(len(sample)), 2))
    table = [[measure(seq.space, a, b) for a, b in zip(orbits[i], orbits[j])]
             for i, j in pairs]
    peaks = []
    for n in range(horizon + 1):
        top = pair = None
        for (i, j), row in zip(pairs, table):
            if top is None or row[n] > top:
                top, pair = row[n], [i, j]
        peaks.append((top, pair))
    bound = None
    if seq.space == SYMBOLIC:
        # the narrowest window any sample point reaches at times 0 .. horizon
        narrowest = min((q for orbit in orbits for q in orbit),
                        key=lambda q: q.radius)
        bound = symbolic_truncation_bound(narrowest, narrowest)
    return RegionData(pairs, table, peaks, bound)


def _strong_record(data, delta, fam, horizon, label) -> RegionRecord:
    times = [n for n in range(1, horizon + 1) if data.peaks[n][0] > delta]
    witness = {}
    if times:
        top, pair = data.peaks[times[0]]
        witness = {"time": times[0], "pair": pair, "separation": top}
    passed = bool(accepts(fam, [mask_of(times)], horizon)[0])
    return RegionRecord(label, passed, windowed(times, horizon), witness,
                        data.truncation_bound)


def _weak_record(data, delta, fam, horizon, label) -> RegionRecord:
    hit_sets = [[n for n in range(1, horizon + 1) if row[n] > delta]
                for row in data.table]
    masks = [mask_of(times) for times in hit_sets]
    # a verdict depends only on the mask: decide each distinct mask once
    distinct = list(dict.fromkeys(masks))
    verdict = dict(zip(distinct, accepts(fam, distinct, horizon)))
    for pair, times, mask in zip(data.pairs, hit_sets, masks):
        if verdict[mask]:
            return RegionRecord(label, True, windowed(times, horizon),
                                {"pair": list(pair),
                                 "separation_count": len(times)},
                                data.truncation_bound)
    return RegionRecord(label, False, windowed([], horizon), {},
                        data.truncation_bound)


def _probe(record, seq, delta, fam, cover, horizon, resolution) -> Reference:
    regions = tuple(
        record(region_data(seq, region, horizon, resolution), delta, fam,
               horizon, region.label or f"region-{index:02d}")
        for index, region in enumerate(cover))
    failing = next((r.label for r in regions if not r.passed), None)
    return Reference(HOLDS if failing is None else FAILS, failing, regions)


def strong_probe(seq, delta, fam, cover, horizon, resolution) -> Reference:
    """Every region's set of times whose sampled diameter exceeds delta,
    and whether the family accepts each."""
    return _probe(_strong_record, seq, delta, fam, cover, horizon,
                  resolution)


def weak_probe(seq, delta, fam, cover, horizon, resolution) -> Reference:
    """Every region's first pair in (i, j) order whose own hit set the
    family accepts, if any."""
    return _probe(_weak_record, seq, delta, fam, cover, horizon, resolution)
