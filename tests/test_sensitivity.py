"""Hit-time and probe tests, checked against naive recomputation oracles.

The oracles here recompose prefixes step by step for every time index
(quadratic on purpose) and sum symbolic distances over explicit coordinate
dicts, so they share no orbit or windowing code with the scan machinery.
"""

import gc
import sys
import tracemalloc
import weakref
from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_probe
from nonauto import registry, sensitivity, spaces, systems
from nonauto.acceptance import STANDARD_FAMILIES
from nonauto.families import (
    cofinite_family,
    dual,
    infinite_family,
    nonempty,
    syndetic_family,
)
from nonauto.sensitivity import (
    BLOCK_BYTES,
    FAILS,
    HOLDS,
    RegionScan,
    asym_pair_test,
    attaching_estimate,
    hit_times,
    hyperspace_probe,
    pair_separation_times,
    region_scan,
    sensitivity_probe,
    weak_implication_ok,
    weak_sensitivity_probe,
)
from nonauto.spaces import (
    CIRCLE,
    INTERVAL,
    SYMBOLIC,
    cylinder_region,
    dist_symbolic,
    distance,
    finite_subset,
    hausdorff,
    hausdorff_ball,
    make_symbolic,
    metric_ball,
    sample_region,
    symbolic_truncation_bound,
)
from nonauto.systems import (
    apply,
    cyclic_sequence,
    explicit_sequence,
    identity,
    kth_iterate,
    map_at,
    net_shift_series,
    orbit,
    piecewise_linear,
    rotation,
    shift,
)

F1 = piecewise_linear([(0.0, 0.0), (0.25, 1.0), (1.0, 0.25)])
F2 = piecewise_linear([(0.0, 0.25), (0.25, 0.0), (0.5, 1.0), (1.0, 0.0)])


def naive_hit_times(seq, sample, delta, horizon, space):
    """Recompose the prefix from scratch at every n; no shared orbit state."""
    hits = []
    for n in range(1, horizon + 1):
        found = False
        for a in range(len(sample)):
            for b in range(a + 1, len(sample)):
                xa, xb = sample[a], sample[b]
                for i in range(1, n + 1):
                    m = map_at(seq, i)
                    xa = apply(m, xa)
                    xb = apply(m, xb)
                if distance(space, xa, xb) > delta:
                    found = True
                    break
            if found:
                break
        if found:
            hits.append(n)
    return tuple(hits)


class TestHitTimesAgainstOracle:
    def test_interval_two_map_cycle(self):
        seq = cyclic_sequence([F1, F2])
        region = metric_ball(INTERVAL, 0.5, 1 / 32.0)
        sample = sample_region(region, 6)
        expected = naive_hit_times(seq, sample, 0.2, 25, INTERVAL)
        got = hit_times(seq, region, 0.2, 25, resolution=6)
        assert got.times.indices == expected
        assert expected  # the oracle run must actually exercise hits

    def test_circle_rotation_cycle(self):
        seq = cyclic_sequence([rotation(0.3), rotation(0.45)], space=CIRCLE)
        region = metric_ball(CIRCLE, 0.1, 0.05)
        sample = sample_region(region, 5)
        expected = naive_hit_times(seq, sample, 0.04, 20, CIRCLE)
        got = hit_times(seq, region, 0.04, 20, resolution=5)
        assert got.times.indices == expected


PAIR_SYSTEMS = {
    "interval": (cyclic_sequence([F1, F2]), INTERVAL),
    "circle": (cyclic_sequence([rotation(0.3), rotation(0.45)],
                               space=CIRCLE), CIRCLE),
    "identity": (registry.build("identity").sequence, INTERVAL),
    # untagged: the space comes from the first generator block
    "untagged-block": (systems.block_sequence("rot-harmonic"), CIRCLE),
}


class TestPairTimesAgainstOracle:
    @given(st.sampled_from(sorted(PAIR_SYSTEMS)),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.01, max_value=0.6),
           st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_hit_times(self, system, x, y, delta, horizon):
        seq, space = PAIR_SYSTEMS[system]
        got = pair_separation_times(seq, x, y, delta, horizon)
        assert got.horizon == horizon
        assert got.indices == naive_hit_times(seq, (x, y), delta, horizon,
                                              space)

    @pytest.mark.parametrize("system, x, y, message", [
        ("identity", -0.5, 2.0, r"^point -0.5 lies outside \[0, 1\]$"),
        ("example41_f1", 0.5, float("nan"), "^point nan lies outside"),
        ("rotations_harmonic", 0.5, float("inf"),
         "^point inf is not a finite number$"),
    ], ids=["interval-outside", "interval-nan", "circle-infinite"])
    def test_points_off_the_space_refused(self, system, x, y, message):
        seq = registry.build(system).sequence
        with pytest.raises(ValueError, match=message):
            pair_separation_times(seq, x, y, 0.1, 3)

    def test_drained_sequence_point_refused(self):
        # the point's own window is spent, whatever the horizon: the message
        # names the point, not the horizon
        seq = cyclic_sequence([shift(1)])
        drained = make_symbolic({}, radius=3).shifted(5)
        with pytest.raises(ValueError, match=(
                r"^point SymbolicPoint\(fwd=0, origin=8, size=7\) has "
                r"drained its window: radius -2 is below 1$")):
            pair_separation_times(seq, drained, make_symbolic({}, radius=3),
                                  0.1, 4)

    def test_untagged_block_sequence_uses_its_own_metric(self):
        # 0.05 and 0.95 lie 0.1 apart on the circle but 0.9 on the interval
        seq = systems.block_sequence("rot-harmonic")
        assert pair_separation_times(seq, 0.05, 0.95, 0.2, 5).indices == ()


def naive_symbolic_distance(dx, dy, window):
    total = 0.0
    for j in range(-window, window + 1):
        total += abs(dx.get(j, 0) - dy.get(j, 0)) * 2.0 ** -abs(j)
    return total


def shift_dict(d, s):
    # left shift by s: coordinate j of the result reads coordinate j+s
    return {j - s: v for j, v in d.items()}


class TestSymbolicScanAgainstOracle:
    def test_block_walk_pair_times(self):
        # independent reconstruction of the doubling-blocks step list
        steps = []
        r = 1
        while len(steps) < 50:
            steps.extend([0] * (2 ** r) + [r, -r])
            r += 1
        ax = {0: 1, 1: 1, 4: 1}
        ay = {0: 1, -3: 1}
        x = make_symbolic(ax)
        y = make_symbolic(ay)
        seq = registry.build("example31").sequence
        delta = 0.3
        expected = []
        net = 0
        dx, dy = dict(ax), dict(ay)
        for n in range(1, 51):
            net += steps[n - 1]
            dx = shift_dict(dict(ax), net)
            dy = shift_dict(dict(ay), net)
            # shared window after a net shift of s is 64 - |s|
            if naive_symbolic_distance(dx, dy, 64 - abs(net)) > delta:
                expected.append(n)
        got = pair_separation_times(seq, x, y, delta, 50)
        assert got.indices == tuple(expected)
        assert expected


def bits_of(table):
    return np.asarray(table, dtype=np.float64).view(np.int64).tolist()


def scan_rows(scan, a, b):
    """Pair rows a .. b-1 of a scan with one column per time 0 .. horizon:
    its stored rows, gathered through ``cols``."""
    rows = scan.stored(a, b)
    return rows if scan.cols is None else rows[:, scan.cols]


def pair_series(scan, i, j):
    """Pair (i, j)'s distances at times 0 .. horizon."""
    r = int(np.flatnonzero((scan.pi == i) & (scan.pj == j))[0])
    return scan_rows(scan, r, r + 1)[0]


@lru_cache(maxsize=None)
def dot_weights(w):
    return 0.5 ** np.abs(np.arange(-w, w + 1)).astype(np.float64)


def numpy_dot_distance(x, y, shift, windows):
    """The sequence metric between ``x`` and ``y`` shifted by ``shift``, as
    a numpy dot product of the unequal-coordinate mask with the weights
    2**-|j|; ``windows`` maps each point to the bool array of its whole
    window, read coordinate by coordinate."""
    (ox, bx), (oy, by) = ((p.origin + shift, windows[p]) for p in (x, y))
    w = min(ox, len(bx) - 1 - ox, oy, len(by) - 1 - oy)
    differ = bx[ox - w:ox + w + 1] != by[oy - w:oy + w + 1]
    return float(differ @ dot_weights(w))


class TestSymbolicTableAgainstPerCellDistance:
    """The hoisted fill (each point shifted once per distinct shift) equals
    one ``dist_symbolic`` per cell on freshly shifted points, bitwise."""

    @staticmethod
    def assert_rows_match_per_cell(seq, sample, horizon):
        scan = sensitivity._scan(seq, sample, horizon)
        shifts = net_shift_series(seq, horizon)
        expect = [[dist_symbolic(sample[i].shifted(s), sample[j].shifted(s))
                   for s in shifts]
                  for i, j in zip(scan.pi.tolist(), scan.pj.tolist())]
        assert bits_of(scan_rows(scan, 0, len(scan.pi))) == bits_of(expect)

    def test_negative_and_repeated_shifts_unequal_radii(self):
        seq = explicit_sequence([shift(3), shift(-5), shift(2), shift(2),
                                 shift(-1), shift(0)], tail="identity",
                                space=SYMBOLIC)
        assert net_shift_series(seq, 9) == [0, 3, -2, 0, 2, 1, 1, 1, 1, 1]
        sample = (make_symbolic({0: 1, 2: 1}, radius=7),
                  make_symbolic({-1: 1}, radius=12),
                  make_symbolic({0: 1, 5: 1}, radius=9, fill=1),
                  make_symbolic({}, radius=20),
                  make_symbolic({-6: 1, 6: 1}, radius=6))
        self.assert_rows_match_per_cell(seq, sample, 9)

    def test_example31_cylinder_cells_equal_numpy_dot_formula(self):
        # every cell of every cylinder scan of the shipped example31 run, at
        # its recommended horizon and resolution, against the dot product
        # the integer-coded metric replaced
        named = registry.build("example31")
        horizon, resolution = named.horizon, registry.RESOLUTION
        cells = 0
        for region in registry.default_cover("cylinders"):
            sample = sample_region(region, resolution)
            scan = sensitivity._scan(named.sequence, sample, horizon)
            windows = {p: np.array([p.coord(j) for j in range(
                -p.origin, p.size - p.origin)], dtype=bool) for p in sample}
            expect = [[numpy_dot_distance(sample[i], sample[j], s, windows)
                       for s in scan.shifts]
                      for i, j in zip(scan.pi.tolist(), scan.pj.tolist())]
            assert bits_of(scan.stored(0, len(scan.pi))) == bits_of(expect)
            cells += len(scan.pi) * len(scan.shifts)
        assert cells > 100_000

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(25, 40),
                              st.dictionaries(st.integers(-10, 10),
                                              st.integers(0, 1)),
                              st.integers(0, 1)),
                    min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_shift_lists(self, powers, points):
        seq = explicit_sequence([shift(p) for p in powers], tail="identity",
                                space=SYMBOLIC)
        sample = tuple(make_symbolic(bits, radius=r, fill=fill)
                       for r, bits, fill in points)
        self.assert_rows_match_per_cell(seq, sample, len(powers) + 2)


class TestTracedCallPattern:
    """The call counts perfbench's traced run cross-checks: one ``orbit`` per
    sample element, one ``map_at`` per step made directly by ``orbit``, and
    one in-scan ``dist_symbolic`` per (pair, distinct shift)."""

    @staticmethod
    def install(monkeypatch, *functions):
        # rebind every module attribute of the package bound to a traced
        # function, as perfbench/traced_cli.py does
        stack, calls = [], Counter()

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if stack:
                    calls[f"{name} under {stack[-1]}"] += 1
                if "_scan" in stack:
                    calls[f"{name} in scan"] += 1
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapper

        mods = [m for name, m in sys.modules.items()
                if name == "nonauto" or name.startswith("nonauto.")]
        for fn in functions:
            wrapper = wrap(fn.__name__, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
        return calls

    @pytest.mark.parametrize("seq, region, horizon, width", [
        (registry.build("example41_composition").sequence,
         metric_ball(INTERVAL, 0.3, 0.05), 40, 1),
        (kth_iterate(registry.build("example41_generated").sequence, 2),
         metric_ball(INTERVAL, 0.6, 0.05), 30, 1),
        (registry.build("rotations_harmonic").sequence,
         metric_ball(CIRCLE, 0.97, 0.05), 35, 1),
        (registry.build("example41_composition").sequence,
         hausdorff_ball(finite_subset([0.2, 0.5, 0.7], INTERVAL), 0.04),
         25, 3),
    ], ids=["interval", "kth-iterate", "circle", "hausdorff"])
    def test_numeric_scan(self, monkeypatch, seq, region, horizon, width):
        calls = self.install(monkeypatch, systems.orbit, systems.map_at,
                             sensitivity._scan)
        scan = region_scan.__wrapped__(seq, region, horizon, 9)
        samples = len(scan.sample)
        assert max(len(getattr(s, "elements", (s,)))
                   for s in scan.sample) == width
        assert calls["orbit"] == samples * width
        assert calls["map_at under orbit"] == samples * width * horizon

    def test_cylinder_scan(self, monkeypatch):
        seq = registry.build("example31").sequence
        distinct = len(set(net_shift_series(seq, 70)))
        calls = self.install(monkeypatch, spaces.dist_symbolic,
                             sensitivity._scan)
        scan = region_scan.__wrapped__(seq, cylinder_region({0: 1}), 70, 12)
        pairs = len(scan.pi)
        assert distinct > 1 and pairs > 1
        assert calls["dist_symbolic in scan"] == pairs * distinct


class TestTrivialCases:
    def test_small_region_under_identity_never_hits(self):
        seq = cyclic_sequence([identity()], space=INTERVAL)
        region = metric_ball(INTERVAL, 0.5, 0.02)
        got = hit_times(seq, region, 0.1, 50, resolution=8)
        assert got.times.indices == ()

    def test_far_pair_under_identity_always_separated(self):
        seq = cyclic_sequence([identity()], space=INTERVAL)
        times = pair_separation_times(seq, 0.1, 0.9, 0.3, 40)
        assert times.indices == tuple(range(1, 41))

    def test_identical_points_never_separate(self):
        seq = cyclic_sequence([F1, F2])
        times = pair_separation_times(seq, 0.625, 0.625, 0.01, 40)
        assert times.indices == ()

    def test_separation_is_strict(self):
        seq = cyclic_sequence([identity()], space=INTERVAL)
        # |0.25 - 0.5| == 0.25 exactly: not a hit at delta 0.25
        assert pair_separation_times(seq, 0.25, 0.5, 0.25, 10).indices == ()
        assert pair_separation_times(
            seq, 0.25, 0.5, 0.249, 10).indices == tuple(range(1, 11))


class TestFrozenHitSets:
    def test_two_step_composition_ball(self):
        named = registry.build("example41_composition")
        region = metric_ball(INTERVAL, 17 / 32.0, 1 / 32.0)
        got = hit_times(named.sequence, region, 0.2, 200, resolution=64)
        assert got.times.indices[:6] == (2, 3, 4, 5, 6, 7)
        assert len(got.times.indices) == 199

    def test_doubling_blocks_cylinder(self):
        # spike times from the block structure: sum of (2^s + 2) for s < r,
        # plus 2^r + 1
        def spike(r):
            return sum(2 ** s + 2 for s in range(1, r)) + 2 ** r + 1

        named = registry.build("example31")
        region = cylinder_region({j: 0 for j in range(-2, 3)})
        got = hit_times(named.sequence, region, 0.5, 2000, resolution=64)
        assert got.times.indices == tuple(spike(r) for r in range(2, 10))

    def test_doubling_blocks_witness_separation(self):
        named = registry.build("example31")
        region = cylinder_region({j: 0 for j in range(-2, 3)})
        got = hit_times(named.sequence, region, 0.5, 2000, resolution=64)
        first = got.times.indices[0]
        x, y, sep = got.witnesses[first]
        assert sep > 0.5
        assert sep <= 3.0  # metric diameter


class TestDeltaAndResolutionMonotonicity:
    def test_larger_delta_hits_subset(self):
        seq = cyclic_sequence([F1, F2])
        region = metric_ball(INTERVAL, 0.5, 1 / 32.0)
        small = hit_times(seq, region, 0.1, 100, resolution=16)
        large = hit_times(seq, region, 0.3, 100, resolution=16)
        assert set(large.times.indices) <= set(small.times.indices)

    def test_supersampled_hits_superset(self):
        # grids nest bitwise at resolutions R and 2R-1, so every coarse hit
        # survives refinement
        seq = cyclic_sequence([F1, F2])
        region = metric_ball(INTERVAL, 0.5, 1 / 32.0)
        coarse = hit_times(seq, region, 0.2, 100, resolution=8)
        fine = hit_times(seq, region, 0.2, 100, resolution=15)
        assert set(coarse.times.indices) <= set(fine.times.indices)

    @given(delta=st.floats(min_value=0.01, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_hit_series_matches_threshold_slice(self, delta):
        seq = cyclic_sequence([F1, F2])
        region = metric_ball(INTERVAL, 0.5, 1 / 32.0)
        scan = region_scan(seq, region, 60, 8)
        got = scan.times(delta)
        expected = tuple(n for n in range(1, 61)
                         if scan.max_series[n] > delta)
        assert got.indices == expected


class TestProbeVerdicts:
    def test_composition_holds_on_ball_cover(self):
        named = registry.build("example41_composition")
        cover = registry.default_cover("interval-balls")
        rep = sensitivity_probe(named.sequence, 0.2, infinite_family(),
                                cover, 200, 64)
        assert rep.verdict == HOLDS
        assert rep.holds
        assert rep.failing_region is None
        assert len(rep.regions) == 16

    def test_single_maps_fail_on_ball_cover(self):
        cover = registry.default_cover("interval-balls")
        rep1 = sensitivity_probe(registry.build("example41_f1").sequence,
                                 0.2, infinite_family(), cover, 200, 64)
        rep2 = sensitivity_probe(registry.build("example41_f2").sequence,
                                 0.2, infinite_family(), cover, 200, 64)
        assert rep1.verdict == FAILS
        assert rep2.verdict == FAILS
        # each map has an interval it never stretches past delta: the first
        # failing ball sits inside it
        assert rep1.failing_region == "ball-04"
        assert rep2.failing_region == "ball-00"

    def test_identity_fails_everywhere(self):
        named = registry.build("identity")
        cover = registry.default_cover("interval-balls")
        rep = sensitivity_probe(named.sequence, 0.1, nonempty(), cover,
                                50, 16)
        assert rep.verdict == FAILS
        assert all(not r.passed for r in rep.regions)

    def test_doubling_blocks_family_split(self):
        named = registry.build("example31")
        cover = registry.default_cover("cylinders")
        syn = sensitivity_probe(named.sequence, 0.5, syndetic_family(),
                                cover, 2000, 64)
        cof = sensitivity_probe(named.sequence, 0.5, cofinite_family(),
                                cover, 2000, 64)
        non = sensitivity_probe(named.sequence, 0.5, nonempty(), cover,
                                2000, 64)
        assert non.verdict == HOLDS
        assert syn.verdict == FAILS
        assert cof.verdict == FAILS
        # widening identity blocks leave a gap that outgrows any bound
        assert syn.regions[0].max_gap == 961

    def test_report_serialization_shape(self):
        named = registry.build("example41_composition")
        cover = registry.default_cover("interval-balls")[:2]
        rep = sensitivity_probe(named.sequence, 0.2, infinite_family(),
                                cover, 50, 8)
        d = rep.to_dict()
        assert d["verdict"] in (HOLDS, FAILS)
        assert len(d["regions"]) == 2
        assert {"region", "passed", "hit_count", "times", "max_gap",
                "witness"} <= set(d["regions"][0])

    def test_empty_cover_rejected(self):
        named = registry.build("identity")
        with pytest.raises(ValueError):
            sensitivity_probe(named.sequence, 0.1, nonempty(), [], 10, 8)


class TestWeakProbe:
    def test_strong_never_outruns_weak(self):
        cover = registry.default_cover("interval-balls")
        for name in ("example41_f1", "example41_f2", "example41_composition"):
            seq = registry.build(name).sequence
            strong = sensitivity_probe(seq, 0.2, infinite_family(), cover,
                                       200, 64)
            weak = weak_sensitivity_probe(seq, 0.2, infinite_family(), cover,
                                          200, 64)
            assert weak_implication_ok(strong, weak)

    def test_weak_holds_for_composition(self):
        named = registry.build("example41_composition")
        cover = registry.default_cover("interval-balls")
        rep = weak_sensitivity_probe(named.sequence, 0.2, infinite_family(),
                                     cover, 200, 64)
        assert rep.verdict == HOLDS
        assert rep.mode == "weakly-F-sensitive"

    def test_weak_fails_under_identity(self):
        named = registry.build("identity")
        cover = registry.default_cover("interval-balls")
        rep = weak_sensitivity_probe(named.sequence, 0.1, nonempty(), cover,
                                     50, 16)
        assert rep.verdict == FAILS

    def test_parameter_mismatch_rejected(self):
        named = registry.build("identity")
        cover = registry.default_cover("interval-balls")[:2]
        a = sensitivity_probe(named.sequence, 0.1, nonempty(), cover, 20, 8)
        b = weak_sensitivity_probe(named.sequence, 0.2, nonempty(), cover,
                                   20, 8)
        with pytest.raises(ValueError):
            weak_implication_ok(a, b)


def late_witness_case():
    """Ball A's five leftmost samples all land on 1/2 and the rest
    alternate between 0 and 1, so no pair with a first index below 5
    separates past 0.6 and the first one that does is row 310. Ball B sits
    where the map is constant, so none of its pairs ever separates."""
    ball_a = metric_ball(INTERVAL, 0.5, 0.25, label="late")
    ball_b = metric_ball(INTERVAL, 0.1, 0.05, label="never")
    xs = sample_region(ball_a, 64)
    knots = ([(0.0, 0.5)]
             + [(x, 0.5 if k < 5 else float(k % 2 == 0))
                for k, x in enumerate(xs)]
             + [(1.0, 0.5)])
    seq = explicit_sequence([piecewise_linear(knots)], tail="identity")
    # a horizon past the syndetic bound of 64, so empty rows are rejected
    return seq, 0.6, [ball_a, ball_b], 100, 64


def family_id(fam):
    return fam.kind if fam.kind != "dual" else f"dual-{fam.inner.kind}"


class TestWeakWitness:
    @pytest.mark.parametrize("case", [
        "late-and-never", "circle-balls", "cylinders"])
    @pytest.mark.parametrize("fam", STANDARD_FAMILIES + (
        nonempty(), dual(STANDARD_FAMILIES[0]), dual(STANDARD_FAMILIES[1]),
        dual(STANDARD_FAMILIES[2])), ids=family_id)
    def test_matches_pair_by_pair_walk(self, case, fam):
        if case == "late-and-never":
            seq, delta, cover, horizon, resolution = late_witness_case()
        elif case == "circle-balls":
            seq = registry.build("rotations_harmonic").sequence
            cover = registry.default_cover("circle-balls")
            delta, horizon, resolution = 0.01, 100, 16
        else:
            seq = registry.build("example31").sequence
            cover = registry.default_cover("cylinders")
            delta, horizon, resolution = 0.2, 40, 16
        args = (seq, delta, fam, cover, horizon, resolution)
        rep = weak_sensitivity_probe(*args)
        expect = reference_probe.weak_probe(*args)
        assert (rep.verdict, rep.failing_region, rep.regions) == expect
        if case == "late-and-never":
            late, never = expect.regions
            pairs = list(combinations(range(65), 2))
            assert pairs.index(tuple(late.witness["pair"])) == 310
            assert not never.passed

    @pytest.mark.parametrize("fam", STANDARD_FAMILIES + (
        dual(STANDARD_FAMILIES[0]),), ids=family_id)
    def test_rejected_union_walks_no_pair_rows(self, monkeypatch, fam):
        seq, delta, cover, horizon, resolution = late_witness_case()
        never = cover[1:]
        walked = []
        hits = RegionScan.hits
        monkeypatch.setattr(RegionScan, "hits", lambda scan, *a: (
            walked.append(a), hits(scan, *a))[1])
        rep = weak_sensitivity_probe(seq, delta, fam, never, horizon,
                                     resolution)
        assert not rep.holds and walked == []
        assert rep.regions[0].times.indices == ()
        assert rep.regions[0].witness == {}
        rep = weak_sensitivity_probe(seq, delta, fam, cover, horizon,
                                     resolution)
        assert walked

class TestHyperspaceProbe:
    def test_singletons_reproduce_base_hit_sets(self):
        named = registry.build("example41_composition")
        cover = registry.default_cover("interval-balls")
        base = sensitivity_probe(named.sequence, 0.2, infinite_family(),
                                 cover, 200, 64)
        centers = [finite_subset([(2 * i + 1) / 32.0], INTERVAL)
                   for i in range(16)]
        hyper = hyperspace_probe(named.sequence, 0.2, infinite_family(),
                                 centers, 1 / 32.0, 200, 64)
        for hrec, brec in zip(hyper.regions, base.regions):
            assert hrec.times.indices == brec.times.indices

    def test_two_point_subsets_run(self):
        named = registry.build("example41_composition")
        centers = [finite_subset([c, 1.0 - c], INTERVAL)
                   for c in (0.125, 0.375)]
        rep = hyperspace_probe(named.sequence, 0.2, infinite_family(),
                               centers, 1 / 32.0, 200, 32)
        assert rep.verdict in (HOLDS, FAILS)
        assert len(rep.regions) == 2

    def test_cardinality_bound_enforced(self):
        named = registry.build("identity")
        big = finite_subset([0.1, 0.3, 0.5, 0.7], INTERVAL)
        with pytest.raises(ValueError):
            hyperspace_probe(named.sequence, 0.1, nonempty(), [big],
                             0.05, 10, 8)


class TestAsymptoticPairs:
    def test_rotations_preserve_close_pairs(self):
        seq = registry.build("rotations_summable").sequence
        v = asym_pair_test(seq, 0.1, 0.3, 0.25, infinite_family(),
                           horizon=200)
        assert v.is_asymptotic
        assert v.separation.indices == ()

    def test_rotations_preserve_far_pairs(self):
        seq = registry.build("rotations_summable").sequence
        v = asym_pair_test(seq, 0.1, 0.55, 0.25, infinite_family(),
                           horizon=200)
        assert not v.is_asymptotic
        assert v.stay_close.indices == ()

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           y=st.floats(min_value=0.0, max_value=1.0),
           delta=st.floats(min_value=0.05, max_value=0.8))
    @settings(max_examples=30, deadline=None)
    def test_partition_of_window(self, x, y, delta):
        seq = cyclic_sequence([F1, F2])
        v = asym_pair_test(seq, x, y, delta, cofinite_family(), horizon=60)
        stay = set(v.stay_close.indices)
        sep = set(v.separation.indices)
        assert stay | sep == set(range(1, 61))
        assert not (stay & sep)


class TestAttaching:
    def test_identity_attaches_points_inside_region(self):
        seq = registry.build("identity").sequence
        ball = metric_ball(INTERVAL, 0.5, 0.1)
        probe = finite_subset([0.5, 0.55, 0.9], INTERVAL)
        got = attaching_estimate(seq, ball, cofinite_family(), probe, 100)
        assert got.elements == (0.5, 0.55)

    def test_attached_set_may_be_empty(self):
        seq = registry.build("identity").sequence
        ball = metric_ball(INTERVAL, 0.5, 0.1)
        probe = finite_subset([0.9], INTERVAL)
        got = attaching_estimate(seq, ball, cofinite_family(), probe, 100)
        assert got.elements == ()
        assert got.space == INTERVAL

    def test_period_two_returns_are_syndetic_not_cofinite(self):
        seq = cyclic_sequence([rotation(0.5)], space=CIRCLE)
        ball = metric_ball(CIRCLE, 0.25, 0.1)
        probe = finite_subset([0.25], CIRCLE)
        syn = attaching_estimate(seq, ball, syndetic_family(2), probe, 100)
        cof = attaching_estimate(seq, ball, cofinite_family(), probe, 100)
        assert syn.elements == (0.25,)
        assert cof.elements == ()

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_refused(self, horizon):
        # numpy's reshape failed on both before the check, with messages
        # that named no argument
        seq = registry.build("identity").sequence
        probe = finite_subset([0.5], INTERVAL)
        with pytest.raises(ValueError, match="^horizon must be positive$"):
            attaching_estimate(seq, metric_ball(INTERVAL, 0.5, 0.1),
                               cofinite_family(), probe, horizon)


@pytest.fixture
def empty_scan_cache():
    region_scan.cache_clear()
    yield
    region_scan.cache_clear()


# net shifts 0, 1, -1, -1, 2, 2, 6: the horizon-3 prefix ties -1 and +1
TIED_SHIFTS = explicit_sequence([shift(k) for k in (1, -2, 0, 3, 0, 4)],
                                tail="identity", space=SYMBOLIC)


class TestPrefixScans:
    """A shorter horizon served from a longer scan equals, bit for bit, the
    scan built to that horizon."""

    @pytest.mark.parametrize("seq, region, short, long, resolution", [
        (registry.build("example41_composition").sequence,
         metric_ball(INTERVAL, 0.3, 0.05), 25, 60, 9),
        (registry.build("rotations_harmonic").sequence,
         metric_ball(CIRCLE, 0.97, 0.05), 30, 70, 9),
        (registry.build("example41_composition").sequence,
         hausdorff_ball(finite_subset([0.2, 0.5, 0.7], INTERVAL), 0.04),
         20, 45, 9),
        (kth_iterate(registry.build("example41_generated").sequence, 2),
         metric_ball(INTERVAL, 0.6, 0.05), 15, 40, 9),
        (registry.build("example31").sequence, cylinder_region({0: 1}),
         30, 80, 12),
        (TIED_SHIFTS, cylinder_region({1: 0}), 3, 6, 12),
    ], ids=["interval", "circle", "hausdorff-3", "kth-iterate",
            "cylinder-smaller-shift", "cylinder-tied-shifts"])
    def test_prefix_equals_fresh_build(self, empty_scan_cache, seq, region,
                                       short, long, resolution):
        full = region_scan(seq, region, long, resolution)
        scan = region_scan(seq, region, short, resolution)
        assert region_scan.cache_info()[:2] == (1, 1)
        fresh = region_scan.__wrapped__(seq, region, short, resolution)
        rows = len(fresh.pi)
        assert scan.horizon == fresh.horizon == short
        assert bits_of(scan.max_series) == bits_of(fresh.max_series)
        assert scan.argmax_i.tolist() == fresh.argmax_i.tolist()
        assert scan.argmax_j.tolist() == fresh.argmax_j.tolist()
        got = scan_rows(scan, 0, rows)
        assert bits_of(got) == bits_of(scan_rows(fresh, 0, rows))
        assert got.shape == (rows, short + 1)
        if fresh.truncation_bound is None:
            assert scan.truncation_bound is None
        else:
            assert bits_of(scan.truncation_bound) == \
                bits_of(fresh.truncation_bound)
        if region.kind != "cylinder":
            return
        # the bound from its definition: the narrowest window that any
        # sample point reaches at times 0 .. short
        shifts = net_shift_series(seq, short)
        moved = [p.shifted(s) for p in scan.sample for s in set(shifts)]
        assert scan.truncation_bound == max(
            symbolic_truncation_bound(q, q) for q in moved)
        # the cases hold what their ids say: a ± tie for the prefix's
        # largest shift, or a largest shift below the full scan's
        if max(shifts) == 1:
            assert min(shifts) == -1
        else:
            assert scan.truncation_bound < full.truncation_bound

    @pytest.mark.parametrize("name, region", [
        ("example41_composition", metric_ball(INTERVAL, 0.3, 0.05)),
        ("example31", cylinder_region({0: 1})),
    ])
    def test_shorter_horizon_builds_nothing(self, monkeypatch,
                                            empty_scan_cache, name, region):
        seq = registry.build(name).sequence
        region_scan(seq, region, 60, 8)
        calls = TestTracedCallPattern.install(
            monkeypatch, systems.orbit, systems.map_at, spaces.dist_symbolic,
            spaces.sample_region)
        short = region_scan(seq, region, 25, 8)
        assert calls == {}
        assert region_scan.cache_info() == (1, 1, None, 2)
        assert region_scan(seq, region, 25, 8) is short
        assert region_scan.cache_info() == (2, 1, None, 2)

    def test_longer_horizon_is_built(self, empty_scan_cache):
        seq = registry.build("example41_composition").sequence
        region = metric_ball(INTERVAL, 0.3, 0.05)
        region_scan(seq, region, 25, 8)
        longer = region_scan(seq, region, 60, 8)
        assert region_scan.cache_info()[:2] == (0, 2)
        # a horizon between the two is cut from the longest scan
        between = region_scan(seq, region, 40, 8)
        assert region_scan.cache_info()[:2] == (1, 2)
        assert bits_of(between.max_series) == bits_of(longer.max_series[:41])


class TestScanLifetime:
    """A cached scan lives as long as both its sequence and its region."""

    @pytest.mark.parametrize("name, cover_kind", [
        ("example41_generated", "interval-balls"),
        ("example31", "cylinders"),
    ])
    def test_scan_goes_with_its_sequence(self, empty_scan_cache, name,
                                         cover_kind):
        region = registry.default_cover(cover_kind)[3]
        iterate = kth_iterate(registry.build(name).sequence, 2)
        scan = weakref.ref(region_scan(iterate, region, 20, 8))
        assert region_scan.cache_info().currsize == 1
        del iterate
        gc.collect()
        assert scan() is None
        assert region_scan.cache_info().currsize == 0

    def test_scan_goes_with_its_region(self, empty_scan_cache):
        seq = registry.build("example41_generated").sequence
        ball = hausdorff_ball(finite_subset([0.2, 0.6], INTERVAL), 0.03)
        scan = weakref.ref(region_scan(seq, ball, 20, 8))
        # a prefix hit is filed under the same keys
        short = weakref.ref(region_scan(seq, ball, 10, 8))
        assert region_scan.cache_info() == (1, 1, None, 2)
        del ball
        gc.collect()
        assert scan() is None and short() is None
        assert region_scan.cache_info().currsize == 0

    def test_hyperspace_probe_leaves_no_scans(self):
        seq = registry.build("example41_generated").sequence
        centers = [finite_subset([0.2, 0.7], INTERVAL),
                   finite_subset([0.4], INTERVAL)]
        gc.collect()
        before = region_scan.cache_info()
        hyperspace_probe(seq, 0.2, nonempty(), centers, 1 / 32.0, 20, 8)
        gc.collect()
        after = region_scan.cache_info()
        assert after.misses == before.misses + 2
        assert after.currsize == before.currsize

    def test_registry_scans_on_default_covers_stay(self, empty_scan_cache):
        # the registry owns both keys, so the scan outlives every caller
        seq = registry.build("example41_generated").sequence
        first = weakref.ref(
            region_scan(seq, registry.default_cover("interval-balls")[5],
                        20, 8))
        gc.collect()
        again = region_scan(seq, registry.default_cover("interval-balls")[5],
                            20, 8)
        assert again is first()
        assert region_scan.cache_info() == (1, 1, None, 1)


@st.composite
def interval_orbits(draw):
    """A (samples, times) array of interval points from a few drawn floats,
    their float neighbours and the eighths, so that distinct exact gaps
    round to tied distances."""
    samples, times = draw(st.integers(2, 70)), draw(st.integers(1, 9))
    drawn = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    pool = [k / 8 for k in range(9)] + drawn + [
        float(np.nextafter(x, side)) for x in drawn for side in (0.0, 1.0)]
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(
        0, len(pool), (samples, times))
    return np.array(pool)[picks]


class TestScanMachinery:
    def test_scan_cache_returns_same_object(self):
        named = registry.build("example41_composition")
        region = metric_ball(INTERVAL, 0.5, 1 / 32.0)
        a = region_scan(named.sequence, region, 50, 8)
        b = region_scan(named.sequence, region, 50, 8)
        assert a is b

    def test_no_scan_is_built_twice(self, monkeypatch, empty_scan_cache):
        # more distinct scans than the old 128-entry bound held, then the
        # first again: it must come from the cache without one orbit step
        seq = registry.build("example41_composition").sequence
        regions = [metric_ball(INTERVAL, 0.1 + k / 200, 0.01)
                   for k in range(150)]
        first = region_scan(seq, regions[0], 5, 4)
        for region in regions[1:]:
            region_scan(seq, region, 5, 4)
        assert region_scan.cache_info().misses == len(regions) > 128
        calls = TestTracedCallPattern.install(monkeypatch, systems.orbit)
        assert region_scan(seq, regions[0], 5, 4) is first
        assert calls["orbit"] == 0
        assert region_scan.cache_info().misses == len(regions)

    @pytest.mark.parametrize("name, region", [
        ("example41_composition", metric_ball(INTERVAL, 0.3, 0.05)),
        ("example31", cylinder_region({0: 1})),
    ])
    def test_scans_of_one_region_share_its_sample(self, empty_scan_cache,
                                                  name, region):
        # the sequence and its 2nd iterate: two orbit passes, one sample
        seq = registry.build(name).sequence
        a = region_scan(seq, region, 20, 8)
        b = region_scan(kth_iterate(seq, 2), region, 20, 8)
        assert a.sample is b.sample
        assert type(a.sample) is tuple
        assert region_scan.cache_info().misses == 2
        # that iterate is gone, so a new one's scan is built again, still
        # from the sample the live region holds
        gc.collect()
        c = region_scan(kth_iterate(seq, 2), region, 20, 8)
        assert c is not b and c.sample is a.sample
        assert region_scan.cache_info()[:2] == (0, 3)

    def test_pair_indices_shared_and_read_only(self):
        pi, pj = sensitivity._pair_indices(7)
        again = sensitivity._pair_indices(7)
        assert again[0] is pi and again[1] is pj
        want_i, want_j = np.triu_indices(7, 1)
        assert pi.dtype == pj.dtype == np.intp
        assert np.array_equal(pi, want_i.astype(np.intp))
        assert np.array_equal(pj, want_j.astype(np.intp))
        for a in (pi, pj):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_scans_share_pair_indices_by_sample_count(self):
        seq = registry.build("example41_composition").sequence
        a = region_scan(seq, metric_ball(INTERVAL, 0.3, 0.05), 5, 4)
        b = region_scan(seq, metric_ball(INTERVAL, 0.6, 0.05), 7, 4)
        c = region_scan(seq, metric_ball(INTERVAL, 0.3, 0.05), 5, 8)
        assert len(a.sample) == len(b.sample) != len(c.sample)
        assert a.pi is b.pi and a.pj is b.pj
        assert c.pi is not a.pi and c.pj is not a.pj

    @pytest.mark.parametrize("name, region", [
        ("example41_composition", metric_ball(INTERVAL, 0.3, 0.05)),
        ("rotations_harmonic", metric_ball(CIRCLE, 0.97, 0.05)),
        ("example31", cylinder_region({0: 1})),
    ])
    def test_scan_equals_scalar_distance_on_orbits_bitwise(self, name,
                                                           region):
        seq = registry.build(name).sequence
        scan = region_scan(seq, region, 60, 7)
        orbits = [orbit(seq, x, 60) for x in scan.sample]
        per_pair = []
        for i, j in zip(scan.pi.tolist(), scan.pj.tolist()):
            expect = [distance(seq.space, a, b)
                      for a, b in zip(orbits[i], orbits[j])]
            assert all(type(d) is float for d in expect)
            assert pair_series(scan, i, j).view(np.int64).tolist() == \
                np.array(expect).view(np.int64).tolist()
            per_pair.append(expect)
        maxima = [max(col) for col in zip(*per_pair)]
        assert scan.max_series.view(np.int64).tolist() == \
            np.array(maxima).view(np.int64).tolist()

    @staticmethod
    def assert_summary_is_full_argmax(scan, table=None):
        # the reference: one argmax over the whole pairs x times table
        if table is None:
            table = scan_rows(scan, 0, len(scan.pi))
        assert bits_of(scan_rows(scan, 0, len(scan.pi))) == bits_of(table)
        best = np.argmax(table, axis=0)
        top = table[best, np.arange(scan.horizon + 1)]
        assert scan.max_series.view(np.int64).tolist() == \
            top.view(np.int64).tolist()
        assert scan.argmax_i.tolist() == scan.pi[best].tolist()
        assert scan.argmax_j.tolist() == scan.pj[best].tolist()

    @staticmethod
    def table_scan(table, cols=None):
        pi = np.arange(len(table), dtype=np.intp)
        horizon = (table.shape[1] if cols is None else len(cols)) - 1
        return RegionScan(None, horizon, pi, pi + len(table),
                          lambda a, b: table[a:b], cols=cols)

    @staticmethod
    def summary_rows(scan):
        # the rows per block of a scan's summary walk: it counts the stored
        # columns, one per time unless ``cols`` maps times to them
        columns = (scan.horizon + 1 if scan.cols is None
                   else int(scan.cols.max()) + 1)
        return sensitivity._block_rows(columns)

    def test_summary_every_row_constant(self):
        block = self.table_scan(np.zeros((1, 9))).block_rows
        rows = 6 * block + 5
        for table in (np.full((rows, 9), 0.25),
                      np.repeat((np.arange(rows) % 7.0)[:, None], 9, 1)):
            scan = self.table_scan(table)
            assert self.summary_rows(scan) == scan.block_rows == block
            self.assert_summary_is_full_argmax(scan)

    def test_summary_tie_across_blocks_keeps_first(self):
        block = self.table_scan(np.zeros((1, 12))).block_rows
        rng = np.random.default_rng(7)
        table = rng.random((6 * block, 12))
        # the maximum first appears in block 2 and again in block 5
        table[2 * block + 9, 3:8] = 2.0
        table[5 * block + 1, 3:8] = 2.0
        scan = self.table_scan(table)
        self.assert_summary_is_full_argmax(scan)
        assert scan.argmax_i[3:8].tolist() == [2 * block + 9] * 5

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_summary_on_tie_heavy_tables(self, horizon, data):
        block = self.table_scan(np.zeros((1, horizon + 1))).block_rows
        rows = data.draw(st.integers(1, 3 * block + 3))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        table = np.random.default_rng(seed).integers(
            0, 3, (rows, horizon + 1)).astype(np.float64)
        self.assert_summary_is_full_argmax(self.table_scan(table))

    @pytest.mark.parametrize("name, region", [
        ("example41_composition", metric_ball(INTERVAL, 0.3, 0.05)),
        ("example31", cylinder_region({0: 1})),
    ])
    def test_summary_of_multi_block_scans(self, monkeypatch, name, region):
        # a 4 kB budget, so the symbolic scan's few shift columns still
        # span several blocks
        monkeypatch.setattr(sensitivity, "BLOCK_BYTES", 2 ** 12)
        scan = sensitivity._scan(registry.build(name).sequence,
                                 sample_region(region, 64), 80)
        assert len(scan.pi) > 2 * self.summary_rows(scan)
        assert len(scan.pi) > 2 * scan.block_rows
        self.assert_summary_is_full_argmax(scan)

    @given(st.integers(1, 4), st.integers(0, 8), st.integers(0, 2 ** 32 - 1),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_per_shift_summary_on_tie_heavy_tables(self, shifts, horizon,
                                                   seed, data):
        # few values, so pairs tie; times revisit columns in any order
        rng = np.random.default_rng(seed)
        cols = rng.integers(0, shifts, horizon + 1)
        block = sensitivity._block_rows(int(cols.max()) + 1)
        rows = data.draw(st.integers(1, 3 * block + 3))
        table = rng.integers(0, 3, (rows, shifts)).astype(np.float64)
        scan = self.table_scan(table, cols)
        assert self.summary_rows(scan) == block
        self.assert_summary_is_full_argmax(scan, table[:, cols])

    @pytest.mark.parametrize("cols", [[0] * 9, [0, 1, 2, 1, 0, 2, 2, 1, 0]],
                             ids=["single-shift", "returning-shifts"])
    def test_per_shift_summary_ties_across_blocks(self, cols):
        cols = np.array(cols)
        block = sensitivity._block_rows(int(cols.max()) + 1)
        table = np.zeros((3 * block, 3))
        # column 1 peaks in pair 5 and again, tied, in a later block;
        # column 2 is a tie of every pair
        table[5, 0] = table[5, 1] = table[2 * block + 3, 1] = 1.0
        table[:, 2] = 0.5
        scan = self.table_scan(table, cols)
        assert self.summary_rows(scan) == block
        self.assert_summary_is_full_argmax(scan, table[:, cols])
        assert {int(scan.argmax_i[n]) for n in range(9)} <= {0, 5}

    @pytest.mark.parametrize("steps", [
        [2, -2, 2, -2, 3, -3, 0, 1, -1, 2],
        [0, 0, 0],
    ], ids=["returning-shifts", "single-shift"])
    def test_per_shift_summary_of_symbolic_scans(self, monkeypatch, steps):
        # a 4 kB budget, so the few shift columns span several blocks
        monkeypatch.setattr(sensitivity, "BLOCK_BYTES", 2 ** 12)
        seq = explicit_sequence([shift(k) for k in steps], tail="identity",
                                space=SYMBOLIC)
        shifts = net_shift_series(seq, 30)
        distinct = sorted(set(shifts))
        cols = [distinct.index(k) for k in shifts]
        for region in (cylinder_region({0: 1}), cylinder_region({2: 0})):
            scan = sensitivity._scan(seq, sample_region(region, 64), 30)
            assert len(scan.pi) > self.summary_rows(scan)
            stored = scan.stored(0, len(scan.pi))
            assert stored.shape[1] == len(distinct)
            self.assert_summary_is_full_argmax(scan, stored[:, cols])

    @given(st.integers(1, 300), st.integers(1, 4), st.integers(1, 80),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 1.5]),
           st.sampled_from(STANDARD_FAMILIES + (nonempty(),
                                                dual(STANDARD_FAMILIES[1]))))
    @settings(max_examples=40, deadline=None)
    def test_block_size_changes_no_summary_or_witness(self, rows, shifts,
                                                      horizon, seed, delta,
                                                      fam):
        # one-row blocks, today's blocks and one block for the whole table
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 3, (rows, shifts)).astype(np.float64)
        cols = rng.integers(0, shifts, horizon + 1)
        region = metric_ball(INTERVAL, 0.5, 0.25)
        seen = []
        for budget in (1, BLOCK_BYTES, 2 ** 62):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sensitivity, "BLOCK_BYTES", budget)
                scan = self.table_scan(table, cols)
                patch.setattr(sensitivity, "region_scan",
                              lambda *args: scan)
                report = weak_sensitivity_probe(None, delta, fam, [region],
                                                horizon, 1)
            if budget == 1:
                assert scan.block_rows == 1
            if budget == 2 ** 62:
                assert scan.block_rows >= rows
            seen.append((bits_of(scan.max_series), scan.argmax_i.tolist(),
                         scan.argmax_j.tolist(), report.to_dict()))
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("name, region, resolution, horizon", [
        ("example41_generated",
         hausdorff_ball(finite_subset([0.25, 0.75], INTERVAL), 1 / 32),
         64, 200),
        ("rotations_harmonic", metric_ball(CIRCLE, 0.5, 1 / 32), 8, 2000),
    ], ids=["hausdorff-2", "circle"])
    def test_scan_build_peak_above_what_it_keeps(self, name, region,
                                                 resolution, horizon):
        # a build's transients are a few blocks of pair rows, whatever the
        # pair count or horizon; numpy reports its buffers to tracemalloc
        seq = registry.build(name).sequence
        sample = sample_region(region, resolution)
        tracemalloc.start()
        try:
            scan = sensitivity._scan(seq, sample, horizon)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan.horizon == horizon and len(sample) == resolution + 1
        assert peak - kept < 8 * BLOCK_BYTES

    @pytest.mark.parametrize("name, region", [
        ("example41_composition", metric_ball(INTERVAL, 0.3, 0.05)),
        ("rotations_harmonic", metric_ball(CIRCLE, 0.97, 0.05)),
        ("example41_composition",
         hausdorff_ball(finite_subset([0.2, 0.7], INTERVAL), 0.05)),
        ("example31", cylinder_region({0: 1})),
    ])
    def test_scan_indices_are_narrow(self, name, region):
        scan = region_scan(registry.build(name).sequence, region, 60, 64)
        index = np.min_scalar_type(int(scan.pj.max()))
        assert index == np.uint8
        assert scan.argmax_i.dtype == scan.argmax_j.dtype == index
        if scan.cols is not None:
            assert scan.cols.dtype == np.min_scalar_type(
                len(scan.shifts) - 1)
        i, j, sep = scan.witness(60)
        assert type(i) is type(j) is int and type(sep) is float
        assert (i, j) == (scan.argmax_i[60], scan.argmax_j[60])

    def test_tie_at_a_wide_pair_row_keeps_its_index(self):
        # pair rows past 255 need uint16; the tie at row 521 comes first
        table = np.zeros((600, 300))
        table[521, 7:40] = table[590, 7:40] = 1.0
        scan = self.table_scan(table)
        assert 521 // scan.block_rows < 590 // scan.block_rows
        assert scan.argmax_i.dtype == scan.argmax_j.dtype == np.uint16
        self.assert_summary_is_full_argmax(scan)
        assert scan.witness(7) == (521, 1121, 1.0)
        assert all(type(k) is int for k in scan.witness(39)[:2])

    @given(interval_orbits())
    @settings(max_examples=200, deadline=None)
    def test_interval_summary_equals_full_argmax(self, points):
        # a width-1 interval scan takes its summary in O(samples) per time
        scan = sensitivity._planes_scan(INTERVAL, None, points[None])
        assert scan.horizon == points.shape[1] - 1
        self.assert_summary_is_full_argmax(scan)

    def test_interval_summary_keeps_the_first_tying_pair(self):
        # each column's maximum 1.0 is tied by pairs (1, 2), (1, 5),
        # (2, 4) and (4, 5); a later column ties (0, 3) with (2, 3)
        points = np.array([[0.5, 0.0], [0.0, 0.5], [1.0, 0.0],
                           [0.5, 1.0], [0.0, 0.5], [1.0, 0.5]])
        scan = sensitivity._planes_scan(INTERVAL, None, points[None])
        self.assert_summary_is_full_argmax(scan)
        assert scan.max_series.tolist() == [1.0, 1.0]
        assert scan.argmax_i.tolist() == [1, 0]
        assert scan.argmax_j.tolist() == [2, 3]

    @pytest.mark.parametrize("space, elements", [
        (INTERVAL, [0.2, 0.7]),
        (INTERVAL, [0.1, 0.45, 0.8]),
        (CIRCLE, [0.05, 0.6]),
        (CIRCLE, [0.05, 0.4, 0.9]),
    ], ids=["interval-2", "interval-3", "circle-2", "circle-3"])
    def test_hausdorff_rows_equal_scalar_hausdorff(self, space, elements):
        name = ("example41_composition" if space == INTERVAL
                else "rotations_harmonic")
        seq = registry.build(name).sequence
        center = finite_subset(elements, space)
        scan = region_scan(seq, hausdorff_ball(center, 0.05), 30, 9)
        assert max(len(s) for s in scan.sample) == len(elements)
        moved = [list(zip(*(orbit(seq, x, 30) for x in s.elements)))
                 for s in scan.sample]
        pairs = [(moved[i][n], moved[j][n])
                 for i, j in zip(scan.pi.tolist(), scan.pj.tolist())
                 for n in range(31)]
        got = bits_of(scan_rows(scan, 0, len(scan.pi)).ravel())
        assert got == bits_of([hausdorff(spaces.FiniteSubset(a, space),
                                         spaces.FiniteSubset(b, space))
                               for a, b in pairs])
        # and the definition, which shares no code with either
        assert got == bits_of([
            max(max(min(distance(space, x, y) for y in b) for x in a),
                max(min(distance(space, x, y) for x in a) for y in b))
            for a, b in pairs])

    @pytest.mark.parametrize("space, elements", [
        (INTERVAL, [0.3]),
        (CIRCLE, [0.97]),
        (INTERVAL, [0.2, 0.7]),
        (CIRCLE, [0.05, 0.4, 0.9]),
    ], ids=["interval", "circle", "hausdorff-2", "hausdorff-3"])
    def test_sample_major_rows_equal_time_major_build(self, space, elements):
        name = ("example41_composition" if space == INTERVAL
                else "rotations_harmonic")
        seq = registry.build(name).sequence
        center = finite_subset(elements, space)
        region = (metric_ball(space, elements[0], 0.05) if len(center) == 1
                  else hausdorff_ball(center, 0.05))
        scan = region_scan(seq, region, 40, 9)
        # the time-major layout: orbits[element, time, sample], and each
        # pair row is a column of the transposed table
        elements = [s.elements if len(center) > 1 else (s,)
                    for s in scan.sample]
        width = max(len(e) for e in elements)
        assert width == len(center)
        orbits = np.empty((width, 41, len(elements)))
        for c, elems in enumerate(elements):
            elems = elems + (elems[0],) * (width - len(elems))
            for e, x in enumerate(elems):
                orbits[e, :, c] = orbit(seq, x, 40)
        expect = spaces.hausdorff_array(space, orbits[:, :, scan.pi],
                                        orbits[:, :, scan.pj]).T
        got = scan_rows(scan, 0, len(scan.pi))
        assert got.flags.c_contiguous
        assert bits_of(got) == bits_of(expect)

    def test_degenerate_sample_rejected(self):
        # raised on every call: a failed sample is not memoised
        named = registry.build("identity")
        point = metric_ball(INTERVAL, 0.5, 1e-15, label="dot")
        for horizon in (10, 10, 20):
            with pytest.raises(ValueError, match=r"^region sample is "
                               r"degenerate \(single point\): dot$"):
                region_scan(named.sequence, point, horizon, 4)

    def test_symbolic_records_carry_truncation_bound(self):
        named = registry.build("example31")
        cover = registry.default_cover("cylinders")[:1]
        rep = sensitivity_probe(named.sequence, 0.5, nonempty(), cover,
                                100, 64)
        bound = rep.regions[0].truncation_bound
        assert bound is not None
        assert 0.0 < bound < 1e-12

    @pytest.mark.parametrize("region", [
        metric_ball(CIRCLE, 0.97, 0.05, label="arc"),
        hausdorff_ball(finite_subset([0.2, 0.97], CIRCLE), 0.05,
                       label="arcs"),
        cylinder_region({0: 1}, label="cyl"),
    ], ids=["circle-ball", "circle-hausdorff-ball", "cylinder"])
    def test_region_of_another_space_refused(self, region):
        # under the interval metric a circle ball once held, and a cylinder
        # ended in a TypeError inside the map step
        seq = registry.build("example41_composition").sequence
        message = (f"^region {region.label} lies in the {region.space} "
                   f"space, not the sequence's interval space$")
        misses = region_scan.cache_info().misses
        with pytest.raises(ValueError, match=message):
            sensitivity_probe(seq, 0.2, nonempty(), [region], 50, 9)
        with pytest.raises(ValueError, match=message):
            region_scan(seq, region, 50, 9)
        assert region_scan.cache_info().misses == misses

    @pytest.mark.parametrize("power", [1, -1])
    def test_drained_window_refused(self, power):
        # cylinder samples have radius 64; one shared coordinate on each
        # side is left at time 63
        seq = cyclic_sequence([shift(power)])
        cover = [cylinder_region({0: 1})]
        with pytest.raises(ValueError, match=(
                f"^net shift {64 * power} at time 64 drains the sampled "
                f"window of radius 64; use a horizon below 64$")):
            sensitivity_probe(seq, 0.5, nonempty(), cover, 100, 4)
        rep = sensitivity_probe(seq, 0.5, nonempty(), cover, 63, 4)
        assert rep.regions[0].truncation_bound == 1.0

    def test_off_centre_window_drains_only_where_it_does(self):
        # x is centred at radius 6 and y sits 16 coordinates left of its
        # centre, leaving it 4 on the left and 36 on the right; a shift s
        # leaves the narrower of min(6 + s, 6 - s) and min(4 + s, 36 - s)
        x = make_symbolic({0: 1}, radius=6)
        y = make_symbolic({}, radius=20).shifted(-16)
        seq = cyclic_sequence([shift(1)])
        assert [dist_symbolic(x.shifted(s), y.shifted(s))
                for s in range(5)] == [1.0, 0.5, 0.25, 0.125, 0.0]
        got = pair_separation_times(seq, x, y, 0.1, 5)
        assert got.indices == (1, 2, 3)
        # 2 ** (1 - w) for the narrowest window w of either point
        scan = sensitivity._scan(seq, (x, y), 5)
        assert scan.truncation_bound == 2.0 ** (1 - 1)
        assert scan.prefix(4).truncation_bound == 2.0 ** (1 - 2)
        assert scan.prefix(2).truncation_bound == 2.0 ** (1 - 4)
        with pytest.raises(ValueError, match=(
                "^net shift 6 at time 6 drains the sampled window of "
                "radius 6; use a horizon below 6$")):
            pair_separation_times(seq, x, y, 0.1, 6)
        # backwards y's left side drains first; at shift -3 one
        # coordinate is left there, and x's flip lies outside it
        back = cyclic_sequence([shift(-1)])
        assert pair_separation_times(back, x, y, 0.1, 3).indices == (1, 2)
        with pytest.raises(ValueError, match=(
                "^net shift -4 at time 4 drains the sampled window of "
                "radius 4; use a horizon below 4$")):
            pair_separation_times(back, x, y, 0.1, 4)

    def test_invalid_probe_parameters(self):
        named = registry.build("identity")
        region = metric_ball(INTERVAL, 0.5, 0.1)
        with pytest.raises(ValueError):
            hit_times(named.sequence, region, 0.0, 10, resolution=8)
        with pytest.raises(ValueError):
            hit_times(named.sequence, region, 0.1, 0, resolution=8)
        for probe in (sensitivity_probe, weak_sensitivity_probe):
            for fam in (nonempty(), syndetic_family()):
                for delta, horizon, message in [
                        (0.0, 8, "delta"), (-1.0, 8, "delta"),
                        (float("nan"), 8, "delta"), (0.1, 0, "horizon")]:
                    with pytest.raises(ValueError, match=f"^{message} must "
                                                         f"be positive$"):
                        probe(named.sequence, delta, fam, [region], horizon,
                              8)
        for delta, horizon in [(0.0, 8), (-1.0, 8), (0.1, 0)]:
            with pytest.raises(ValueError, match="must be positive$"):
                pair_separation_times(named.sequence, 0.2, 0.7, delta,
                                      horizon)
