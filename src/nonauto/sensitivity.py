"""Region scans and horizon-relative sensitivity verdicts.

A probe asks, for each region of a cover, at which times some sampled pair
of starting points has drifted more than delta apart. The classifier from
``families`` then decides whether that set of times is rich enough. All
verdicts are explicitly horizon-relative: they say what happened in the
computed window under the stated sampling, nothing more.

Scans are organized so that one orbit computation per sample point serves
every delta and every probe mode. Orbit points are produced by each map's
compiled scalar ``step`` (``systems.MapSpec.step``); numpy only ever
touches distances, so equal prefixes yield bitwise equal separations across
probes (the embedding checks rely on this). Numeric orbits are stored
element-major, (width, samples, horizon + 1), so a block of pair rows
gathers contiguous orbits from each element's plane. A scan's summary is
each time's largest pair distance and its first pair in (i, j) order: a
width-1 interval scan takes it in O(samples) per time from running maxima
and minima of its orbits, a block of times at once, and every other scan
walks its pair rows in blocks; each block's operands fit in
``BLOCK_BYTES``. A symbolic scan shifts every sample point once per
distinct shift and fills that shift's table column with one
``dist_symbolic`` per pair; its summary is taken per column and then read
out at each time through the time -> column map. Before the fill it
refuses shifts that drain a sampled window: a distance needs
``MIN_COMMON_RADIUS`` shared coordinates on each side of the origin, and
the message names the first time that leaves fewer.
A scan to horizon h depends only on the first h maps, so ``region_scan``
serves it as a prefix view of a longer scan of the same region and
resolution, and counts only the scans it builds as misses. It refuses a
region of another space than the sequence's. Its cache holds sequences and
regions weakly: a scan lives as long as both do, so the scans of a k-th
iterate built for one check go with it. ``probe_cover`` is the one cover
walk: it looks up each distinct region's scan once (regions equal but for
their label share it), classifies it under every (strong or weak, delta,
family) probe with one hit set per delta, and holds no scan past the
region's turn. ``sensitivity_probe``, ``weak_sensitivity_probe`` and
``nonauto run`` call it, and ``hyperspace_probe`` builds each Hausdorff
ball only when the walk reaches it. ``drop_scans(seq)`` frees one
sequence's scans, as ``nonauto run`` does after each region and
weak-strong-agreement after each registry system, and ``drop_scans()``
frees the rest when ``nonauto verify``'s scan-free checks start.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial, update_wrapper
from weakref import WeakKeyDictionary

import numpy as np

from . import families
from .families import FamilySpec, WindowedIndexSet, member, windowed
from .spaces import (
    INTERVAL,
    MIN_COMMON_RADIUS,
    SYMBOLIC,
    FiniteSubset,
    Region,
    dist_interval,
    dist_symbolic,
    distance,
    hausdorff_array,
    hausdorff_ball,
    sample_region,
    symbolic_truncation_bound,
)
from .systems import MapSequence, net_shift_series, orbit

HOLDS = "holds-at-horizon"
FAILS = "fails-at-horizon"

HYPERSPACE_CARDINALITY_BOUND = 3
# bytes of one float64 operand block of a pair-row walk: the scan summary
# walks every block, the weak probe stops at the first block holding a witness
BLOCK_BYTES = 2 ** 17


def _block_rows(row_floats: int) -> int:
    """Pair rows per block when a row holds ``row_floats`` float64 values:
    as many as keep the block within ``BLOCK_BYTES``, and at least one."""
    return max(1, BLOCK_BYTES // (8 * row_floats))


@lru_cache(maxsize=None)
def _pair_indices(count: int):
    """Pair order for ``count`` sample points, shared read-only by every
    scan of that count."""
    i, j = np.triu_indices(count, k=1)
    i, j = i.astype(np.intp), j.astype(np.intp)
    i.flags.writeable = j.flags.writeable = False
    return i, j


_SAMPLES = WeakKeyDictionary()


def _region_sample(region: Region, resolution: int) -> tuple:
    """The sample standing in for ``region``, shared read-only by every scan
    of that (region, resolution): scans of one region under different
    sequences or horizons hold the same tuple. It is filed weakly under the
    region and goes with it."""
    samples = _SAMPLES.setdefault(region, {})
    if resolution not in samples:
        sample = tuple(sample_region(region, resolution))
        if len(sample) < 2:
            raise ValueError(f"region sample is degenerate "
                             f"(single point): {region.label or region.kind}")
        samples[resolution] = sample
    return samples[resolution]


def _block_summary(stored, pi, pj, rows):
    """Each stored column's maximum and its first pair in (i, j) order,
    ``rows`` pair rows at a time: a later block wins a column only with a
    strictly larger value, as ``np.argmax`` over the table would."""
    top, best = -np.inf, 0
    for a in range(0, len(pi), rows):
        dists = stored(a, a + rows)
        arg = np.argmax(dists, axis=0)
        peak = np.take_along_axis(dists, arg[None], axis=0)[0]
        best = np.where(peak > top, a + arg, best)
        top = np.maximum(peak, top)
    return top, pi[best], pj[best]


def _interval_summary(points):
    """``_block_summary`` of the pair distances of interval ``points``,
    shaped (samples, times), in O(samples) per time.

    Correctly rounded subtraction is monotone, so no later point lies
    farther from row i than the largest or the smallest of the later rows:
    that is row i's best pair distance, bit for bit. The witness is the
    first row whose best is the column's maximum, with its first later
    row at exactly that distance: the first tying pair in (i, j) order.
    Columns are independent, so they are taken a block at a time, as many
    as keep one (samples, block) float64 temporary within ``BLOCK_BYTES``.
    """
    count, width = points.shape
    top = np.empty(width)
    best_i, best_j = np.empty((2, width), np.min_scalar_type(count - 1))
    rows = np.arange(count)[:, None]
    step = _block_rows(count)
    for a in range(0, width, step):
        part = points[:, a:a + step]
        later, head = part[:0:-1], part[:-1]
        best = dist_interval(head, np.maximum.accumulate(later, axis=0)[::-1])
        np.maximum(best, dist_interval(
            head, np.minimum.accumulate(later, axis=0)[::-1]), out=best)
        first = np.argmax(best, axis=0)
        peak = best.max(axis=0)
        del best
        tie = dist_interval(part[first, np.arange(first.size)], part) == peak
        top[a:a + step], best_i[a:a + step] = peak, first
        best_j[a:a + step] = np.argmax(tie & (rows > first), axis=0)
    return top, best_i, best_j


class RegionScan:
    """Per-region orbit data: max pairwise separation at each time, the
    achieving pair, and pair hit rows on demand.

    ``stored(a, b)`` returns the distances of pair rows a .. b-1, row r for
    the pair ``(pi[r], pj[r])``, over the columns the scan stores; ``cols``
    maps each time 0 .. horizon to its column, and ``None`` means one column
    per time. ``max_series[n]`` is the largest sampled pair distance at time
    n; index 0 holds the initial spread. Delta enters only when slicing.

    ``summary`` holds each stored column's maximum and its first pair in
    (i, j) order: ``_interval_summary`` for a width-1 interval scan, and
    for circle-point, Hausdorff and symbolic scans ``_block_summary`` of
    the stored rows. It is indexed by time: a time reads exactly its
    column, so this equals the summary of the expanded table. The pair
    indices ``argmax_i`` and ``argmax_j`` are stored in the smallest type
    that holds the largest index in ``pj``. ``shifts`` holds a symbolic
    scan's shift per column. A prefix view shares its longer scan's
    ``stored``, so ``hits`` cuts every read at ``horizon``, as ``times`` does.

    Pair rows are walked in blocks whose operands, rows x ``width``
    elements x columns float64 values, fit in ``BLOCK_BYTES``: the summary
    counts the stored columns, and ``block_rows``, the rows per block of
    ``hits``, counts one column per time, as ``hits`` expands them.
    """

    def __init__(self, sample, horizon, pi, pj, stored, cols=None,
                 shifts=None, summary=None, width=1):
        self.sample = sample
        self.horizon = horizon
        self.pi, self.pj = pi, pj
        self.stored = stored
        self.cols, self.shifts = cols, shifts
        self.block_rows = _block_rows(width * (horizon + 1))
        if summary is None:
            columns = horizon + 1 if cols is None else int(cols.max()) + 1
            summary = _block_summary(stored, pi, pj,
                                     _block_rows(width * columns))
        top, best_i, best_j = summary
        index = np.min_scalar_type(int(pj.max()))
        self.max_series = self._at_times(top)
        self.argmax_i = self._at_times(best_i.astype(index, copy=False))
        self.argmax_j = self._at_times(best_j.astype(index, copy=False))
        self.truncation_bound = self._truncation_bound()

    def _truncation_bound(self):
        if self.shifts is None:
            return None
        # shifts ascend, so the columns read span the shifts between these
        narrowest = _narrowest(self.sample, (self.shifts[self.cols.min()],
                                             self.shifts[self.cols.max()]))
        return symbolic_truncation_bound(narrowest, narrowest)

    def prefix(self, horizon: int) -> RegionScan:
        """This scan cut to times 0 .. horizon, bit for bit a scan built to
        ``horizon``: it shares the orbits or table, and slices the summary,
        since a column's max and first argmax pair ignore other columns.
        Its ``block_rows`` stay sized for the longer stored rows."""
        stop = horizon + 1
        part = copy.copy(self)
        part.horizon = horizon
        part.max_series = self.max_series[:stop]
        part.argmax_i = self.argmax_i[:stop]
        part.argmax_j = self.argmax_j[:stop]
        if self.cols is not None:
            part.cols = self.cols[:stop]
            part.truncation_bound = part._truncation_bound()
        return part

    def _at_times(self, per_column: np.ndarray) -> np.ndarray:
        return per_column if self.cols is None else per_column[..., self.cols]

    def times(self, delta: float) -> WindowedIndexSet:
        return families.from_mask(self.max_series[1:] > delta)

    def hits(self, delta: float, a: int, b: int) -> np.ndarray:
        """Pair rows a .. b-1 as bool hit rows over times 1 .. horizon."""
        return self._at_times(self.stored(a, b) > delta)[:, 1:self.horizon + 1]

    def witness(self, n: int):
        i = int(self.argmax_i[n])
        j = int(self.argmax_j[n])
        return i, j, float(self.max_series[n])

    # no caller: kept while perfbench's traced pair_times.calls row wraps it
    def pair_times(self, i: int, j: int, delta: float) -> WindowedIndexSet:
        r = int(np.flatnonzero((self.pi == i) & (self.pj == j))[0])
        return families.from_mask(self.hits(delta, r, r + 1)[0])


def _scan_orbits(seq: MapSequence, sample, horizon: int) -> RegionScan:
    # A point is a one-element subset. Pad every subset to one width by
    # repeating its first element: duplicates never change the Hausdorff
    # distance.
    elements = [s.elements if isinstance(s, FiniteSubset) else (s,)
                for s in sample]
    width = max(len(e) for e in elements)
    planes = np.empty((width, len(sample), horizon + 1), dtype=np.float64)
    for c, elems in enumerate(elements):
        elems = elems + (elems[0],) * (width - len(elems))
        for e, x in enumerate(elems):
            planes[e, c] = orbit(seq, x, horizon)
    return _planes_scan(seq.space, sample, planes)


def _planes_scan(space, sample, planes: np.ndarray) -> RegionScan:
    """The scan of numeric orbits stored element-major: plane e, shaped
    (samples, horizon + 1), holds element e of every sample's orbit, and a
    block of pair rows gathers contiguous (pairs, times) arrays from each
    plane."""
    width, pi, pj = len(planes), *_pair_indices(planes.shape[1])
    summary, metric = None, partial(hausdorff_array, space)
    if width == 1:
        # points: the metric itself, on one plane
        planes, metric = planes[0], partial(distance, space)
        if space == INTERVAL:
            summary = _interval_summary(planes)

    def stored(a, b):
        return metric(np.take(planes, pi[a:b], axis=-2),
                      np.take(planes, pj[a:b], axis=-2))

    return RegionScan(sample, planes.shape[-1] - 1, pi, pj, stored,
                      summary=summary, width=width)


def _narrowest(sample, shifts):
    """The sample point with the narrowest window under any of the
    ascending ``shifts``, so shifted. A window's radius min(origin + s,
    size - 1 - origin - s) is concave in the shift s, so one of the two
    extreme shifts attains the narrowest."""
    return min((p.shifted(s) for s in (shifts[0], shifts[-1])
                for p in sample), key=lambda q: q.radius)


def _scan_symbolic(seq: MapSequence, sample, horizon: int) -> RegionScan:
    # a symbolic sequence's maps are all shifts and identities
    shifts = net_shift_series(seq, horizon)
    pi, pj = _pair_indices(len(sample))
    distinct = sorted(set(shifts))
    if _narrowest(sample, distinct).radius < MIN_COMMON_RADIUS:
        n = next(n for n, s in enumerate(shifts)
                 if _narrowest(sample, [s]).radius < MIN_COMMON_RADIUS)
        # the drained side was abs(shift) wider before the shift
        width = _narrowest(sample, [shifts[n]]).radius + abs(shifts[n])
        raise ValueError(f"net shift {shifts[n]} at time {n} drains the "
                         f"sampled window of radius {width}; use a horizon "
                         f"below {n}")
    # distance between two shifted points depends only on the shift amount,
    # so one column per distinct shift covers the whole horizon
    table = np.empty((len(pi), len(distinct)), dtype=np.float64)
    pairs = list(zip(pi.tolist(), pj.tolist()))
    for col, s in enumerate(distinct):
        moved = [p.shifted(s) for p in sample]
        table[:, col] = [dist_symbolic(moved[i], moved[j]) for i, j in pairs]
    cols = np.searchsorted(distinct, shifts).astype(
        np.min_scalar_type(len(distinct) - 1))
    return RegionScan(sample, horizon, pi, pj, lambda a, b: table[a:b],
                      cols=cols, shifts=distinct)


def _scan(seq: MapSequence, sample, horizon: int) -> RegionScan:
    if seq.space == SYMBOLIC:
        return _scan_symbolic(seq, sample, horizon)
    return _scan_orbits(seq, sample, horizon)


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
# ``region_scan``'s store, a module global because a tracer may rebind that
# name to a plain wrapper with no attributes
_SCANS = WeakKeyDictionary()


def drop_scans(seq: MapSequence = None) -> None:
    """Empty ``region_scan``'s cache, or drop only ``seq``'s scans when it
    is given; the hit and miss counts stay."""
    if seq is None:
        _SCANS.clear()
        return
    for by_seq in _SCANS.values():
        by_seq.pop(seq, None)


class _PrefixCache:
    """``region_scan``'s cache: in ``_SCANS``, under each region, then
    under each sequence, the scans by (resolution, horizon). Both levels
    hold their keys weakly and no scan refers to either key, so a scan goes
    when its region or its sequence does."""

    def __init__(self, build):
        update_wrapper(self, build)
        self.cache_clear()

    def cache_clear(self):
        drop_scans()
        self.hits, self.misses = 0, 0

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, None,
                          sum(len(scans) for by_seq in _SCANS.values()
                              for scans in by_seq.values()))

    def __call__(self, seq, region, horizon, resolution):
        scans = _SCANS.setdefault(region, WeakKeyDictionary()).setdefault(
            seq, {})
        key = (resolution, horizon)
        if key in scans:
            self.hits += 1
            return scans[key]
        top = max((s for (r, _), s in scans.items() if r == resolution),
                  key=lambda s: s.horizon, default=None)
        if top is not None and top.horizon > horizon:
            scans[key] = top.prefix(horizon)
            self.hits += 1
        else:
            scans[key] = self.__wrapped__(seq, region, horizon, resolution)
            self.misses += 1
        return scans[key]


@_PrefixCache
def region_scan(seq: MapSequence, region: Region, horizon: int,
                resolution: int) -> RegionScan:
    """Shared scan cache: every probe mode and delta reuses one orbit pass.

    The cache has no size bound and holds its keys weakly: a scan lives as
    long as both its sequence and its region do, and is built again if it
    is asked for after either has gone or after ``drop_scans``. A horizon
    shorter than a scan already built for the same (seq, region,
    resolution) is a prefix hit that builds nothing, so
    ``cache_info().misses`` counts the scans built. Scans keep only compact
    data (orbits or the pair × shift table, the summary, shared pair
    indices and sample) and neither key.
    """
    if region.space != seq.space:
        raise ValueError(f"region {region.label or region.kind} lies in the "
                         f"{region.space} space, not the sequence's "
                         f"{seq.space} space")
    return _scan(seq, _region_sample(region, resolution), horizon)


# ---------------------------------------------------------------------------
# Public operations


@dataclass(frozen=True)
class RegionRecord:
    label: str
    passed: bool
    times: WindowedIndexSet
    witness: dict
    truncation_bound: float = None

    @property
    def hit_count(self) -> int:
        return len(self.times.indices)

    @property
    def max_gap(self) -> int:
        row = families.mask_of(self.times)[None]
        return int(families.max_gap_rows(row)[0])

    def to_dict(self) -> dict:
        out = {
            "region": self.label,
            "passed": self.passed,
            "hit_count": self.hit_count,
            "times": list(self.times.indices),
            "max_gap": self.max_gap,
            "witness": self.witness,
        }
        if self.truncation_bound is not None:
            out["truncation_bound"] = self.truncation_bound
        return out


@dataclass(frozen=True)
class SensitivityReport:
    mode: str
    family: FamilySpec
    delta: float
    horizon: int
    resolution: int
    verdict: str
    regions: tuple
    failing_region: str = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "family": families.family_to_dict(self.family),
            "delta": self.delta,
            "horizon": self.horizon,
            "resolution": self.resolution,
            "verdict": self.verdict,
            "failing_region": self.failing_region,
            "regions": [r.to_dict() for r in self.regions],
        }


_STRONG_MODES = {"nonempty": "sensitive", "cofinite": "cofinite",
                 "syndetic": "syndetic"}


def _classify(scan, weak, delta, fam, times):
    """A region's (passed, times, witness) under one probe, ``times`` its
    hit set at ``delta``. A strong probe holds when ``fam`` accepts it, the
    first hit's largest pair its witness; a weak one when ``fam`` accepts a
    sampled pair's own hit set, the first such pair in (i, j) order."""
    if not weak:
        witness = {}
        if times.indices:
            first = times.indices[0]
            i, j, sep = scan.witness(first)
            witness = {"time": first, "pair": [i, j], "separation": sep}
        return member(fam, times), times, witness
    # every family rule is hereditary upwards, and each pair's hit set lies
    # inside ``times``: the pair rows are walked only where the strong
    # probe's own test accepts, so weak => strong by construction
    if member(fam, times):
        rows = scan.block_rows
        for a in range(0, len(scan.pi), rows):
            hits = scan.hits(delta, a, a + rows)
            accepted = np.flatnonzero(families.member_rows(fam, hits))
            if accepted.size:
                r = int(accepted[0])
                own = families.from_mask(hits[r])
                return True, own, {"pair": [int(scan.pi[a + r]),
                                            int(scan.pj[a + r])],
                                   "separation_count": len(own.indices)}
    return False, windowed([], scan.horizon), {}


def probe_cover(seq: MapSequence, probes, cover, horizon: int,
                resolution: int) -> list:
    """One walk of ``cover`` for every ``(weak, delta, fam)`` probe in the
    sequence ``probes``; one report per probe. Each distinct region's scan
    is looked up once (regions equal but for their label share it and
    their records), every probe at one delta reads one hit set, and no
    scan is held past its region's turn, so a cover may build regions on
    demand. A report holds unless some region fails, and names the first."""
    if not all(delta > 0 for _, delta, _ in probes):
        raise ValueError("delta must be positive")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    records = [[] for _ in probes]
    classified = {}
    for idx, region in enumerate(cover):
        key = region.unlabelled()
        if key not in classified:
            scan = region_scan(seq, region, horizon, resolution)
            hit_sets = {delta: scan.times(delta)
                        for delta in dict.fromkeys(d for _, d, _ in probes)}
            classified[key] = scan.truncation_bound, [
                _classify(scan, weak, delta, fam, hit_sets[delta])
                for weak, delta, fam in probes]
            del scan
        bound, verdicts = classified[key]
        label = region.label or f"region-{idx:02d}"
        for recs, (passed, times, witness) in zip(records, verdicts):
            recs.append(RegionRecord(label=label, passed=passed, times=times,
                                     witness=witness, truncation_bound=bound))
    if not classified:
        raise ValueError("cover must contain at least one region")
    reports = []
    for (weak, delta, fam), recs in zip(probes, records):
        failing = next((r.label for r in recs if not r.passed), None)
        reports.append(SensitivityReport(
            mode="weakly-F-sensitive" if weak
            else _STRONG_MODES.get(fam.kind, "F-sensitive"),
            family=fam, delta=delta, horizon=horizon, resolution=resolution,
            verdict=HOLDS if failing is None else FAILS,
            regions=tuple(recs), failing_region=failing))
    return reports


def sensitivity_probe(seq: MapSequence, delta: float, fam: FamilySpec, cover,
                      horizon: int, resolution: int) -> SensitivityReport:
    """Verdict holds exactly when every region's hit-time set is accepted
    by the family."""
    return probe_cover(seq, [(False, delta, fam)], cover, horizon,
                       resolution)[0]


def weak_sensitivity_probe(seq: MapSequence, delta: float, fam: FamilySpec,
                           cover, horizon: int,
                           resolution: int) -> SensitivityReport:
    """Verdict holds exactly when every region contains one sampled pair
    whose own separation-time set is accepted by the family."""
    return probe_cover(seq, [(True, delta, fam)], cover, horizon,
                       resolution)[0]


def weak_implication_ok(strong: SensitivityReport,
                        weak: SensitivityReport) -> bool:
    """Weak implies strong: at identical parameters the weak verdict may
    never hold while the strong one fails."""
    same = (strong.family == weak.family and strong.delta == weak.delta
            and strong.horizon == weak.horizon
            and strong.resolution == weak.resolution)
    if not same:
        raise ValueError("reports were produced at different parameters")
    return strong.holds or not weak.holds


def hyperspace_probe(seq: MapSequence, delta: float, fam: FamilySpec,
                     centers, radius: float, horizon: int,
                     resolution: int) -> SensitivityReport:
    """Run the strong probe on finite subsets moved elementwise, with
    Hausdorff-ball regions around the given center subsets."""
    centers = list(centers)
    for c in centers:
        if len(c.elements) > HYPERSPACE_CARDINALITY_BOUND:
            raise ValueError(
                f"center of cardinality {len(c.elements)} exceeds bound "
                f"{HYPERSPACE_CARDINALITY_BOUND}")
    # built on demand: each ball, its sample and its scan go once classified
    cover = (hausdorff_ball(c, radius, label=f"hball-{i:02d}")
             for i, c in enumerate(centers))
    return sensitivity_probe(seq, delta, fam, cover, horizon, resolution)

