"""Whole probe reports against the reference written from the definitions.

``reference_probe`` recomposes every prefix, measures every pair with the
scalar metrics and decides families on integer masks. The probes here run
the whole fast path (scan cache, interval summary, blocked summaries, the
weak probe's union shortcut and block walk) and must agree with it on every
record field, the verdict and the failing region. The reference then
serves as the oracle for structural facts of the definitions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_probe
from nonauto import registry, sensitivity
from nonauto.families import (
    cofinite_family,
    dual,
    infinite_family,
    nonempty,
    syndetic_family,
)
from nonauto.sensitivity import (
    region_scan,
    sensitivity_probe,
    weak_sensitivity_probe,
)
from nonauto.spaces import (
    CIRCLE,
    INTERVAL,
    cylinder_region,
    finite_subset,
    hausdorff_ball,
    metric_ball,
)
from nonauto.systems import (
    cyclic_sequence,
    explicit_sequence,
    kth_iterate,
    piecewise_linear,
    rotation,
)

# exact dyadics make tied distances, drawn floats make generic ones
unit_values = st.one_of(st.sampled_from([k / 8 for k in range(9)]),
                        st.floats(0.0, 1.0))


@st.composite
def interval_maps(draw):
    inner = draw(st.lists(st.integers(1, 63), max_size=4, unique=True))
    xs = [0.0, *(k / 64 for k in sorted(inner)), 1.0]
    return piecewise_linear(list(zip(xs, draw(st.lists(
        unit_values, min_size=len(xs), max_size=len(xs))))))


circle_maps = st.one_of(st.sampled_from([k / 16 for k in range(16)]),
                        st.floats(0.0, 1.0, exclude_max=True)).map(rotation)


@st.composite
def sequences(draw, space):
    maps = draw(st.lists(interval_maps() if space == INTERVAL
                         else circle_maps, min_size=1, max_size=3))
    rule = draw(st.sampled_from(["cyclic", "hold", "identity"]))
    seq = (cyclic_sequence(maps, space=space) if rule == "cyclic"
           else explicit_sequence(maps, tail=rule, space=space))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    return seq if k == 1 else kth_iterate(seq, k)


@st.composite
def covers(draw, space):
    balls = draw(st.lists(st.tuples(
        st.floats(0.0, 1.0, exclude_max=space == CIRCLE),
        st.sampled_from([1 / 64, 1 / 32, 0.1, 0.25]),
        st.sampled_from(["", "u", "v"])), min_size=1, max_size=2))
    return [metric_ball(space, c, r, label=label) for c, r, label in balls]


@st.composite
def family_lists(draw, horizon):
    """One family of each kind, with drawn parameters, and each dual."""
    fams = [nonempty(),
            infinite_family(draw(st.integers(1, horizon)),
                            draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))),
            cofinite_family(draw(st.integers(1, horizon))),
            syndetic_family(draw(st.integers(1, horizon)))]
    return fams + [dual(f) for f in fams]


deltas = st.one_of(st.sampled_from([1 / 16, 1 / 8, 1 / 4, 1 / 2]),
                   st.floats(0.001, 0.8))


@st.composite
def systems(draw):
    space = draw(st.sampled_from([INTERVAL, CIRCLE]))
    horizon = draw(st.integers(1, 40))
    return (draw(sequences(space)), draw(covers(space)), horizon,
            draw(st.integers(2, 9)), draw(deltas),
            draw(family_lists(horizon)))


def assert_matches(rep, ref):
    # distances are never nan or -0.0, so == on the records is bitwise
    assert (rep.verdict, rep.failing_region, rep.regions) == ref


def assert_probes_match(seq, delta, fams, cover, horizon, resolution):
    for fam in fams:
        args = (seq, delta, fam, cover, horizon, resolution)
        assert_matches(sensitivity_probe(*args),
                       reference_probe.strong_probe(*args))
        assert_matches(weak_sensitivity_probe(*args),
                       reference_probe.weak_probe(*args))


ALL_FAMILIES = [nonempty(), infinite_family(4, 0.25), cofinite_family(3),
                syndetic_family(4)]
ALL_FAMILIES += [dual(f) for f in ALL_FAMILIES]


class TestProbesMatchReference:
    @given(systems())
    @settings(max_examples=60, deadline=None)
    def test_random_systems(self, system):
        seq, cover, horizon, resolution, delta, fams = system
        assert_probes_match(seq, delta, fams, cover, horizon, resolution)

    def test_cylinders(self):
        # every pattern on coordinates -1 .. 1, through the net-shift spikes
        # at times 3, 9, 19 and 37, with truncation bounds
        seq = registry.build("example31").sequence
        cover = [cylinder_region({-1: a, 0: b, 1: c})
                 for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        for delta in (0.1, 0.25):
            assert_probes_match(seq, delta, ALL_FAMILIES, cover, 40, 9)

    def test_hausdorff_balls(self):
        # under the identity every time ties the two extreme pairs of each
        # element, and at this size they lie in different pair-row blocks
        seq = registry.build("identity").sequence
        cover = [hausdorff_ball(finite_subset([0.25, 0.75], INTERVAL), 0.125),
                 hausdorff_ball(finite_subset([0.5, 0.625], INTERVAL), 1 / 32)]
        data = reference_probe.region_data(seq, cover[0], 40, 32)
        rows = sensitivity._block_rows(2 * 41)
        assert len({r // rows for r, row in enumerate(data.table)
                    if row[1] == data.peaks[1][0]}) > 1
        assert_probes_match(seq, 0.2, ALL_FAMILIES, cover, 40, 32)

    def test_prefix_of_a_longer_scan(self):
        seq = registry.build("rotations_harmonic").sequence
        cover = registry.default_cover("circle-balls")[:3]
        for region in cover:
            region_scan(seq, region, 60, 9)
        misses = region_scan.cache_info().misses
        assert_probes_match(seq, 0.05, ALL_FAMILIES, cover, 25, 9)
        assert region_scan.cache_info().misses == misses


class TestStructuralFacts:
    """Facts of the definitions, with the reference as the oracle."""

    @given(systems())
    @settings(max_examples=25, deadline=None)
    def test_weak_implies_strong(self, system):
        # each pair's hit set lies in its region's, and every family is
        # hereditary upwards; for nonempty the converse holds as well
        seq, cover, horizon, resolution, delta, fams = system
        for fam in fams:
            args = (seq, delta, fam, cover, horizon, resolution)
            strong = reference_probe.strong_probe(*args)
            weak = reference_probe.weak_probe(*args)
            for s, w in zip(strong.regions, weak.regions):
                assert set(w.times.indices) <= set(s.times.indices)
                assert s.passed or not w.passed
                if fam.kind == "nonempty":
                    assert s.passed == w.passed

    @given(systems(), st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_iterate_hits_reappear_at_multiples(self, system, k):
        # time n of the k-th iterate is time kn of the sequence: the same
        # maxima bit for bit, the same witnesses, so the same hits
        seq, cover, horizon, resolution, _, _ = system
        steps = max(1, horizon // k)
        for region in cover:
            base = reference_probe.region_data(seq, region, k * steps,
                                               resolution)
            it = reference_probe.region_data(kth_iterate(seq, k), region,
                                             steps, resolution)
            assert it.peaks == base.peaks[::k]

    @given(systems(), deltas)
    @settings(max_examples=25, deadline=None)
    def test_verdicts_monotone_in_delta(self, system, other):
        seq, cover, horizon, resolution, delta, fams = system
        low, high = sorted((delta, other))
        for probe in (reference_probe.strong_probe,
                      reference_probe.weak_probe):
            for fam in fams:
                loose, strict = (probe(seq, d, fam, cover, horizon,
                                       resolution) for d in (low, high))
                for a, b in zip(loose.regions, strict.regions):
                    assert a.passed or not b.passed

