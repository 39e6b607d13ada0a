import math
import sys
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonauto.spaces import (
    CIRCLE,
    DEDUP_TOL,
    FiniteSubset,
    INTERVAL,
    SYMBOLIC,
    circle_distance,
    cylinder_region,
    dist_interval,
    dist_symbolic,
    distance,
    element_sort_key,
    finite_subset,
    grid_points,
    hausdorff,
    hausdorff_array,
    hausdorff_ball,
    int_value,
    make_symbolic,
    metric_ball,
    number_value,
    region_contains,
    sample_region,
    symbolic_from_code,
    symbolic_truncation_bound,
)

# Oracle for the Hausdorff value: the mutual-covering characterization,
# quantified directly instead of via the max-min formula.


def mutual_cover_holds(a, b, eps):
    one = all(any(distance(a.space, p, q) < eps for q in b.elements)
              for p in a.elements)
    two = all(any(distance(a.space, p, q) < eps for q in a.elements)
              for p in b.elements)
    return one and two


# Oracle for the vectorized Hausdorff value: the max-min formula, one
# scalar distance at a time.


def brute_force_hausdorff(a, b):
    d_ab = max(min(distance(a.space, p, q) for q in b.elements)
               for p in a.elements)
    d_ba = max(min(distance(a.space, p, q) for q in a.elements)
               for p in b.elements)
    return max(d_ab, d_ba)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# points where the circle metric wraps: either side of 0 and of 1
near_ends = st.sampled_from([0.0, 5e-324, 1e-12, 0.5, 1.0 - 1e-12,
                             np.nextafter(1.0, 0.0), 1.0])
edge_unit = st.one_of(near_ends, unit)


class TestArrayMetric:
    @given(st.sampled_from([INTERVAL, CIRCLE]),
           st.lists(st.tuples(edge_unit, edge_unit), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_array_form_equals_scalar_form_bitwise(self, space, pairs):
        xs = [float(x) for x, _ in pairs]
        ys = [float(y) for _, y in pairs]
        scalar = [distance(space, x, y) for x, y in zip(xs, ys)]
        assert all(type(d) is float for d in scalar)
        got = distance(space, np.array(xs), np.array(ys))
        assert got.dtype == np.float64
        assert got.view(np.int64).tolist() == \
            np.array(scalar).view(np.int64).tolist()


class TestIntervalMetric:
    def test_pinned_values(self):
        assert dist_interval(0.0, 0.0) == 0.0
        assert dist_interval(0.0, 1.0) == 1.0
        assert dist_interval(0.25, 0.5) == 0.25

    @given(unit, unit, unit)
    def test_axioms(self, x, y, z):
        assert dist_interval(x, y) == dist_interval(y, x)
        assert (dist_interval(x, y) == 0.0) == (x == y)
        assert dist_interval(x, z) <= dist_interval(x, y) + dist_interval(y, z) + 1e-12


class TestCircleMetric:
    def test_wraparound(self):
        assert circle_distance(0.0, 0.9) == pytest.approx(0.1)
        assert circle_distance(0.25, 0.75) == 0.5

    @given(unit, unit, unit)
    def test_axioms(self, x, y, z):
        assert circle_distance(x, y) == circle_distance(y, x)
        assert circle_distance(x, y) <= 0.5
        assert circle_distance(x, z) <= (circle_distance(x, y)
                                         + circle_distance(y, z) + 1e-12)

    def test_arrays_match_floats_bitwise(self):
        # random points, then the edge gaps 0, 0.5, 1 - ulp and gaps >= 1,
        # with either point ahead
        below_one = float(np.nextafter(1.0, 0.0))
        edges = [(0.3, 0.3), (0.75, 0.25), (below_one, 0.0),
                 (0.0, below_one), (1.0, 0.0), (0.25, 1.25), (2.75, 0.5),
                 (0.5, 3.0)]
        rng = np.random.default_rng(1806)
        a = np.concatenate([rng.random(1000), [x for x, _ in edges]])
        b = np.concatenate([rng.random(1000), [y for _, y in edges]])
        got = circle_distance(a, b)
        want = np.array([circle_distance(x, y)
                         for x, y in zip(a.tolist(), b.tolist())])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert got[-8:].tolist() == [0.0, 0.5, 2.0 ** -53, 2.0 ** -53, 0.0,
                                     0.0, 0.25, 0.5]


sparse_bits = st.dictionaries(st.integers(min_value=-8, max_value=8),
                              st.sampled_from([0, 1]), max_size=12)


def assigned(bits, radius, fill=0, shift=0):
    """Coordinate j of ``make_symbolic(bits, radius, fill).shifted(shift)``,
    read from the assignments themselves."""
    def read(j):
        k = j + shift
        return bits.get(k, fill) if abs(k) <= radius else 0
    return read


def window_array(read, w):
    """Coordinates -w .. w of ``read`` as a float64 array."""
    return np.array([read(j) for j in range(-w, w + 1)], dtype=np.float64)


@st.composite
def window_point(draw):
    """A sequence point of radius 1-64, sparse over a fill or dense, shifted
    anywhere up to the drain limit (one shared coordinate each side)."""
    r = draw(st.integers(1, 64))
    if draw(st.booleans()):
        bits = draw(st.dictionaries(st.integers(-r, r), st.integers(0, 1),
                                    max_size=8))
    else:
        code = draw(st.integers(0, 2 ** (2 * r + 1) - 1))
        bits = {j: (code >> (r + j)) & 1 for j in range(-r, r + 1)}
    fill = draw(st.integers(0, 1))
    return make_symbolic(bits, radius=r, fill=fill).shifted(
        draw(st.integers(1 - r, r - 1)))


class TestSymbolicMetric:
    def test_equal_points(self):
        x = make_symbolic({0: 1, 3: 1})
        assert dist_symbolic(x, x) == 0.0

    def test_single_origin_flip(self):
        x = make_symbolic({})
        y = make_symbolic({0: 1})
        assert dist_symbolic(x, y) == 1.0

    def test_all_ones_window_sum(self):
        # sum over |j| <= W of 2^-|j| = 3 - 2^(1-W), rounded once: exact
        # while 2^(1-W) is at least an ulp of 3 (2^-51), a tie at W = 53
        # that rounds to even, and 3.0 beyond
        for w, want in ((4, 2.875), (8, 3 - 2.0 ** -7), (52, 3 - 2.0 ** -51),
                        (53, 3.0), (64, 3.0)):
            x = make_symbolic({}, radius=w)
            y = make_symbolic({}, radius=w, fill=1)
            assert dist_symbolic(x, y).hex() == want.hex(), w

    def test_drained_window_rejected(self):
        p = make_symbolic({}, radius=4)
        q = make_symbolic({}, radius=8)
        with pytest.raises(ValueError):
            dist_symbolic(p.shifted(4), q)

    @given(sparse_bits, sparse_bits)
    def test_window_enlargement_stability(self, ax, ay):
        small, big = 10, 40
        d_small = dist_symbolic(make_symbolic(ax, radius=small),
                                make_symbolic(ay, radius=small))
        d_big = dist_symbolic(make_symbolic(ax, radius=big),
                              make_symbolic(ay, radius=big))
        bound = symbolic_truncation_bound(make_symbolic(ax, radius=small),
                                          make_symbolic(ay, radius=small))
        assert abs(d_big - d_small) <= bound
        assert bound == 2.0 ** (1 - small)

    @given(sparse_bits, sparse_bits, sparse_bits)
    def test_axioms(self, ax, ay, az):
        x, y, z = (make_symbolic(a) for a in (ax, ay, az))
        assert dist_symbolic(x, y) == dist_symbolic(y, x)
        # equal windows: the same coordinates assigned 1
        ones_x, ones_y = ({j for j, v in a.items() if v} for a in (ax, ay))
        assert (dist_symbolic(x, y) == 0.0) == (ones_x == ones_y)
        assert dist_symbolic(x, z) <= dist_symbolic(x, y) + dist_symbolic(y, z) + 1e-12

    @given(st.lists(st.tuples(st.integers(8, 30), sparse_bits,
                              st.integers(-6, 6)), min_size=2, max_size=2),
           st.integers(0, 1))
    def test_equals_reference_formula_bitwise(self, points, fill):
        # the formula before the shared window was read from the origins
        # and ``abs`` was taken in place
        x, y = (make_symbolic(bits, radius=r, fill=fill).shifted(s)
                for r, bits, s in points)
        w = min(r - abs(s) for r, _, s in points)
        bx, by = (window_array(assigned(bits, r, fill, s), w)
                  for r, bits, s in points)
        expect = float(np.abs(bx - by) @ (0.5 ** np.abs(np.arange(-w, w + 1))))
        assert dist_symbolic(x, y).hex() == expect.hex()

    @given(window_point(), window_point())
    @example(*[make_symbolic({}, radius=64, fill=fill).shifted(63)
               for fill in (0, 1)])
    @example(*[make_symbolic({}, radius=1, fill=fill) for fill in (1, 0)])
    @example(make_symbolic({-40: 1, 40: 0}, radius=40).shifted(-39),
             make_symbolic({0: 1}, radius=3, fill=1).shifted(2))
    @settings(max_examples=400)
    def test_equals_exact_sum(self, x, y):
        # the weighted sum over the shared window taken exactly, from
        # coordinate reads, then rounded once
        w = min(x.radius, y.radius)
        exact = sum(Fraction(1, 2 ** abs(j)) for j in range(-w, w + 1)
                    if x.coord(j) != y.coord(j))
        assert dist_symbolic(x, y).hex() == float(exact).hex()

    def test_exact_sum_past_float_range(self):
        # 2**w is no float past w = 1023; the sum is still rounded once
        x = make_symbolic({-1000: 1, 1100: 1}, radius=1100)
        y = make_symbolic({}, radius=1100)
        assert dist_symbolic(x, y) == 2.0 ** -1000
        assert dist_symbolic(x.shifted(60), y.shifted(60)) == 2.0 ** -1040
        assert dist_symbolic(y, make_symbolic({}, radius=1100, fill=1)) == 3.0

    def test_numpy_integer_coordinates(self):
        # a numpy integer would wrap in the shifts that build the codes
        p = make_symbolic({np.int64(40): 1, np.int64(-3): 1},
                          radius=np.int64(60))
        q = make_symbolic({40: 1, -3: 1}, radius=60)
        assert (p.fwd, p.rev) == (q.fwd, q.rev)
        zero = make_symbolic({}, radius=60)
        assert dist_symbolic(p, zero) == 2.0 ** -40 + 0.125

    def test_window_arrays_follow_the_points(self):
        # every point has its own codes and is dropped on the next pass, so
        # freed ids come back; each distance must read the window codes of
        # the points it is given
        y = make_symbolic({0: 1, -3: 1}, radius=20)
        for i in range(6000):
            ones = {i % 41 - 20: 1, (7 * i) % 41 - 20: 1}
            x = make_symbolic(ones, radius=20).shifted(i % 5 - 2)
            w = 20 - abs(i % 5 - 2)
            bx = window_array(assigned(ones, 20, shift=i % 5 - 2), w)
            by = window_array(assigned({0: 1, -3: 1}, 20), w)
            expect = float(np.abs(bx - by) @ (0.5 ** np.abs(np.arange(-w, w + 1))))
            assert dist_symbolic(x, y) == expect, i

    def test_window_is_shared_and_read_only(self):
        ones = {0: 1, 3: 1, -12: 1}
        p = make_symbolic(ones, radius=12, fill=1)
        q = p.shifted(2).shifted(-5)
        assert q.fwd is p.fwd and q.rev is p.rev
        assert (p.origin, p.size, q.origin, q.size) == (12, 25, 9, 25)
        # bit k of fwd is coordinate k - 12; rev holds the same bits
        # reversed; nothing lies past the window
        read = assigned(ones, 12, fill=1)
        for k in range(25):
            assert (p.fwd >> k) & 1 == read(k - 12) == (p.rev >> (24 - k)) & 1
        assert p.fwd >> 25 == p.rev >> 25 == 0
        # and that bit is what coord() reads, from any shift
        for j in range(-q.radius, q.radius + 1):
            assert (q.fwd >> (q.origin + j)) & 1 == q.coord(j)
        with pytest.raises(FrozenInstanceError):
            q.fwd = 0
        assert not hasattr(p, "__dict__")
        # rev takes no part in equality, hashing or repr; fwd, the origin
        # and the length do
        twin = make_symbolic(ones, radius=12, fill=1)
        assert twin.fwd is not p.fwd
        assert twin == p and hash(twin) == hash(p)
        other = replace(p, rev=0)
        assert other == p and hash(other) == hash(p)
        assert repr(other) == repr(p)
        assert "rev" not in repr(p)
        assert replace(p, fwd=p.fwd ^ 1) != p
        assert replace(p, size=27) != p and q != p

    def test_sort_key_equals_coordinate_reads(self):
        # shifted points of unequal radius: the key is coordinates
        # -radius .. radius read one at a time
        base = [make_symbolic({0: 1, 3: 1, -2: 1}, radius=12),
                make_symbolic({-1: 1}, radius=7, fill=1),
                make_symbolic({5: 1}, radius=64)]
        points = [p.shifted(k) for p in base for k in (-6, -1, 0, 2, 5)]
        for p in points:
            want = "".join(str(p.coord(j))
                           for j in range(-p.radius, p.radius + 1))
            assert element_sort_key(SYMBOLIC, p) == want
        assert len({p.radius for p in points}) > 5

    def test_shift_moves_coordinates(self):
        x = make_symbolic({2: 1})
        assert x.shifted(2).coord(0) == 1
        assert x.shifted(2).coord(2) == 0
        assert x.shifted(-1).coord(3) == 1


@st.composite
def coded_point(draw, max_radius=12, max_shift=14):
    """(radius, assignments, fill, shift) of a sequence point: assignments
    inside the window, and a shift that may carry the origin past either
    edge, or that keeps one shared coordinate each side if ``max_shift``
    is None."""
    r = draw(st.integers(1, max_radius))
    bits = draw(st.dictionaries(st.integers(-r, r), st.integers(0, 1),
                                max_size=2 * r + 1))
    limit = r - 1 if max_shift is None else max_shift
    return (r, bits, draw(st.integers(0, 1)),
            draw(st.integers(-limit, limit)))


def built(r, bits, fill, s):
    return make_symbolic(bits, radius=r, fill=fill).shifted(s)


class TestSymbolicCodes:
    """A sequence point is its two window codes, origin and length; every
    oracle here reads the test's own assignments."""

    @given(coded_point())
    @settings(max_examples=300)
    def test_coordinates_are_the_assignments(self, drawn):
        r, bits, fill, s = drawn
        p, read = built(*drawn), assigned(bits, r, fill, s)
        for j in range(-r - abs(s) - 3, r + abs(s) + 4):
            assert p.coord(j) == read(j), j

    @given(coded_point())
    def test_rev_mirrors_fwd(self, drawn):
        r, bits, fill, s = drawn
        p, read = built(*drawn), assigned(bits, r, fill)
        size = 2 * r + 1
        for k in range(size):
            assert (p.fwd >> k) & 1 == read(k - r)
            assert (p.rev >> (size - 1 - k)) & 1 == read(k - r)
        assert p.fwd >> size == p.rev >> size == 0

    @given(coded_point())
    def test_code_point_equals_make_symbolic(self, drawn):
        r, bits, fill, s = drawn
        read = assigned(bits, r, fill)
        code = sum(read(j) << (r + j) for j in range(-r, r + 1))
        got = symbolic_from_code(code, r).shifted(s)
        want = built(*drawn)
        assert got == want and hash(got) == hash(want)
        assert (got.fwd, got.rev) == (want.fwd, want.rev)
        for j in range(-r - abs(s) - 1, r + abs(s) + 2):
            assert got.coord(j) == want.coord(j)

    @given(coded_point(max_radius=3, max_shift=2),
           coded_point(max_radius=3, max_shift=2))
    # an explicit fill value is the same window as no assignment; equal
    # contents at another origin or length are another point
    @example((2, {0: 0, 2: 1}, 0, 0), (2, {2: 1}, 0, 0))
    @example((2, {1: 1}, 1, 0), (2, {}, 1, 0))
    @example((2, {}, 0, 0), (3, {}, 0, -1))
    @example((3, {}, 0, 1), (3, {}, 0, 0))
    @settings(max_examples=300)
    def test_equal_iff_origin_length_and_window_agree(self, a, b):
        def facts(r, bits, fill, s):
            read = assigned(bits, r, fill)
            return r + s, 2 * r + 1, [read(j) for j in range(-r, r + 1)]
        x, y = built(*a), built(*b)
        assert (x == y) == (facts(*a) == facts(*b))
        if x == y:
            assert hash(x) == hash(y)

    @given(st.lists(coded_point(max_radius=5, max_shift=None), min_size=2,
                    max_size=12))
    @settings(max_examples=200)
    def test_sort_key_orders_as_coordinate_tuples(self, drawn):
        points = [built(*d) for d in drawn]

        def reads(p):
            return tuple(p.coord(j) for j in range(-p.radius, p.radius + 1))
        by_key = sorted(range(len(points)),
                        key=lambda i: element_sort_key(SYMBOLIC, points[i]))
        by_reads = sorted(range(len(points)), key=lambda i: reads(points[i]))
        assert by_key == by_reads

    def test_numpy_integers_become_ints(self):
        p = symbolic_from_code(np.int64(5), np.int64(2))
        assert type(p.fwd) is type(p.rev) is type(p.origin) is int
        assert (p.fwd, p.rev, p.origin, p.size) == (5, 20, 2, 5)

    @pytest.mark.parametrize("code, radius, message", [
        (32, 2, "^code 32 does not fit radius 2$"),
        (-1, 2, "^code -1 does not fit radius 2$"),
        (0, 0, "^radius must be at least 1$"),
    ])
    def test_code_outside_the_window_refused(self, code, radius, message):
        with pytest.raises(ValueError, match=message):
            symbolic_from_code(code, radius)


class TestFiniteSubsets:
    def test_dedup_and_order(self):
        s = finite_subset([0.5, 0.1, 0.5 + 1e-16, 0.9], INTERVAL)
        assert s.elements == (0.1, 0.5, 0.9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            finite_subset([], INTERVAL)

    @pytest.mark.parametrize("space, elements, message", [
        (INTERVAL, [1.7, -3.0], r"^point -3.0 lies outside \[0, 1\]$"),
        (INTERVAL, [0.5, float("nan")], "^point nan lies outside"),
        (CIRCLE, [0.5, float("inf")], "^point inf is not a finite number$"),
    ], ids=["interval-outside", "interval-nan", "circle-infinite"])
    def test_points_off_the_space_rejected(self, space, elements, message):
        with pytest.raises(ValueError, match=message):
            finite_subset(elements, space)

    def test_pinned_hausdorff(self):
        a = finite_subset([0.0], INTERVAL)
        b = finite_subset([1.0], INTERVAL)
        assert hausdorff(a, a) == 0.0
        assert hausdorff(a, b) == 1.0
        ab = finite_subset([0.0, 1.0], INTERVAL)
        mid = finite_subset([0.5], INTERVAL)
        assert hausdorff(ab, mid) == 0.5

    def test_duplicate_invariance(self):
        a = finite_subset([0.1, 0.4], INTERVAL)
        b = finite_subset([0.1, 0.4, 0.4 + 1e-15], INTERVAL)
        assert hausdorff(a, b) == 0.0

    @given(st.sampled_from([INTERVAL, CIRCLE]),
           st.lists(edge_unit, min_size=1, max_size=6),
           st.lists(edge_unit, min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_equals_brute_force_max_min(self, space, xs, ys):
        a = finite_subset(xs, space)
        b = finite_subset(ys, space)
        got = hausdorff(a, b)
        assert type(got) is float
        assert got == brute_force_hausdorff(a, b)

    @given(st.lists(unit, min_size=1, max_size=6),
           st.lists(unit, min_size=1, max_size=6),
           st.floats(min_value=1e-6, max_value=1.5))
    @settings(max_examples=200)
    def test_mutual_cover_equivalence(self, xs, ys, eps):
        a = finite_subset(xs, INTERVAL)
        b = finite_subset(ys, INTERVAL)
        assert (hausdorff(a, b) < eps) == mutual_cover_holds(a, b, eps)

    @given(st.lists(unit, min_size=1, max_size=5),
           st.lists(unit, min_size=1, max_size=5),
           st.lists(unit, min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_axioms(self, xs, ys, zs):
        a, b, c = (finite_subset(v, INTERVAL) for v in (xs, ys, zs))
        assert hausdorff(a, b) == hausdorff(b, a)
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12


# Oracle for the folded ``hausdorff_array``: the trailing-axis reductions it
# replaced, transcribed here.


def reference_hausdorff_array(space, a, b):
    if a.shape[-1] == b.shape[-1] == 1:
        return distance(space, a[..., 0], b[..., 0])
    cross = distance(space, a[..., :, None], b[..., None, :])
    return np.maximum(cross.min(axis=-1).max(axis=-1),
                      cross.min(axis=-2).max(axis=-1))


@st.composite
def padded_subsets(draw, times, width):
    """A (times, subsets, width) array of ragged subsets, each padded to
    ``width`` by repeating its first element, as scans pad them."""
    count = draw(st.integers(1, 4))
    out = np.empty((times, count, width))
    for c in range(count):
        size = draw(st.integers(1, width))
        for t in range(times):
            elems = draw(st.lists(edge_unit, min_size=size, max_size=size))
            out[t, c] = elems + elems[:1] * (width - size)
    return out


class TestHausdorffArrayFold:
    @given(st.sampled_from([INTERVAL, CIRCLE]), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=300)
    def test_equals_trailing_axis_reductions_bitwise(self, space, times, m, k,
                                                     data):
        a = data.draw(padded_subsets(times, m))
        b = data.draw(padded_subsets(times, k))
        # one pair of subsets, then every subset of a against every subset
        # of b through broadcasting; hausdorff_array takes the element axis
        # first
        for x, y in ((a[0, 0], b[0, 0]), (a[:, :, None, :], b[:, None, :, :])):
            got = np.asarray(hausdorff_array(space, np.moveaxis(x, -1, 0),
                                             np.moveaxis(y, -1, 0)))
            expect = np.asarray(reference_hausdorff_array(space, x, y))
            assert got.shape == expect.shape
            assert got.view(np.int64).tolist() == \
                expect.view(np.int64).tolist()


class TestRegionSampling:
    def test_centered_ball(self):
        got = sample_region(metric_ball(INTERVAL, 0.5, 0.1), 3)
        assert got == pytest.approx((0.4, 0.5, 0.6))
        assert 0.5 in got

    def test_clipped_ball(self):
        got = sample_region(metric_ball(INTERVAL, 0.0, 0.2), 3)
        assert got == pytest.approx((0.0, 0.1, 0.2))
        assert got[0] == 0.0

    def test_center_always_present(self):
        for c in (0.03, 0.31, 0.97):
            got = sample_region(metric_ball(INTERVAL, c, 0.05), 7)
            assert c in got

    def test_supersample_nesting(self):
        # Doubling the grid density keeps every coarse point, bitwise.
        r = metric_ball(INTERVAL, 0.31, 0.07)
        coarse = sample_region(r, 9)
        fine = sample_region(r, 17)
        assert set(coarse) <= set(fine)

    def test_determinism(self):
        r = metric_ball(INTERVAL, 0.77, 0.04)
        assert sample_region(r, 33) == sample_region(r, 33)

    def test_circle_ball_wraps(self):
        got = sample_region(metric_ball(CIRCLE, 0.0, 0.1), 5)
        assert all(0.0 <= v < 1.0 for v in got)
        assert 0.0 in got
        assert any(v > 0.85 for v in got)

    def test_cylinder_margin_one(self):
        region = cylinder_region({0: 0}, margin=1)
        got = sample_region(region, 8)
        assert len(got) == 2
        assert sorted(p.coord(1) for p in got) == [0, 1]
        assert all(p.coord(0) == 0 for p in got)

    def test_cylinder_contains_flips(self):
        region = cylinder_region({-1: 1, 0: 0})
        got = sample_region(region, 16)
        assert all(p.coord(-1) == 1 and p.coord(0) == 0 for p in got)
        assert make_symbolic({-1: 1}) in got
        # single flip at each free coordinate up to the margin
        for j in range(1, region.margin + 1):
            assert any(p.coord(j) == 1 for p in got)

    def test_hausdorff_ball_sampling(self):
        center = finite_subset([0.2, 0.8], INTERVAL)
        got = sample_region(hausdorff_ball(center, 0.05), 8)
        assert center in got
        assert all(len(s) <= 2 for s in got)
        assert all(hausdorff(center, s) <= 0.05 + 1e-12 for s in got)

    def test_strict_ball_membership(self):
        # dyadic radius so the boundary point is exact
        r = metric_ball(INTERVAL, 0.5, 0.125)
        assert region_contains(r, 0.55)
        assert not region_contains(r, 0.625)
        assert not region_contains(r, 0.75)

    def test_cylinder_membership(self):
        r = cylinder_region({0: 1, 2: 0})
        assert region_contains(r, make_symbolic({0: 1}))
        assert not region_contains(r, make_symbolic({0: 1, 2: 1}))

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            sample_region(metric_ball(INTERVAL, 0.5, 0.1), 1)
        with pytest.raises(ValueError):
            metric_ball(INTERVAL, 0.5, 0.0)

    @pytest.mark.parametrize("space, center, radius, message", [
        (INTERVAL, 0.5, float("nan"), "ball radius must be positive"),
        (CIRCLE, 0.5, -0.1, "ball radius must be positive"),
        (CIRCLE, 0.5, float("inf"), "ball radius must be positive"),
        (INTERVAL, -0.05, 0.1, r"ball center -0.05 lies outside \[0, 1\]"),
        (INTERVAL, 1.05, 0.1, r"ball center 1.05 lies outside \[0, 1\]"),
        (INTERVAL, float("nan"), 0.1, r"ball center nan lies outside"),
        (CIRCLE, float("nan"), 0.1, "ball center nan is not a finite"),
        (SYMBOLIC, 0.5, 0.1, "metric balls need an interval or circle "
                             "space, not 'symbolic'"),
    ], ids=["radius-nan", "radius-negative", "radius-infinite",
            "below-interval", "above-interval", "interval-center-nan",
            "circle-center-nan", "symbolic"])
    def test_bad_balls_refused(self, space, center, radius, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            metric_ball(space, center, radius)

    def test_hausdorff_ball_checks_each_elements_ball(self):
        # finite_subset refuses 1.5 itself, so build the subset directly
        with pytest.raises(ValueError, match=r"^ball center 1.5 lies "
                                             r"outside \[0, 1\]$"):
            hausdorff_ball(FiniteSubset((0.2, 1.5), INTERVAL), 0.1)
        with pytest.raises(ValueError, match="^ball radius must be positive"):
            hausdorff_ball(finite_subset([0.2, 0.8], CIRCLE), 0.0)
        with pytest.raises(ValueError, match="^a Hausdorff ball needs a "
                                             "nonempty center$"):
            hausdorff_ball(FiniteSubset((), INTERVAL), 0.1)
        region = hausdorff_ball(finite_subset([0.2, 0.8], CIRCLE), 0.1)
        assert region.space == CIRCLE


# Oracles for ball sampling: the separate interval and circle samplers that
# sample_region's single ball sampler replaced, kept verbatim.


def separate_interval_ball(center, radius, count):
    lo = max(0.0, center - radius)
    hi = min(1.0, center + radius)
    if hi < lo:
        raise ValueError("ball does not meet the interval")
    pts = grid_points(lo, hi, count)
    pts = [center if abs(v - center) <= DEDUP_TOL else v for v in pts]
    pts.append(center)
    kept = []
    for v in sorted(pts):
        if not kept or v - kept[-1] > DEDUP_TOL:
            kept.append(v)
    return tuple(kept)


def separate_circle_ball(center, radius, count):
    raw = grid_points(center - radius, center + radius, count)
    c = center % 1.0
    pts = [v % 1.0 for v in raw]
    pts = [c if circle_distance(v, c) <= DEDUP_TOL else v for v in pts]
    pts.append(c)
    pts.sort()
    kept = []
    for v in pts:
        if not kept or circle_distance(v, kept[-1]) > DEDUP_TOL:
            kept.append(v)
    if len(kept) > 1 and circle_distance(kept[0], kept[-1]) <= DEDUP_TOL:
        kept.pop()
    return tuple(kept)


def outcome(fn, *args):
    """Values with their exact types and bits, or the error raised."""
    try:
        values = fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))
    return tuple((type(v), v.hex() if isinstance(v, float) else v)
                 for v in values)


class TestBallSamplerOracle:
    @given(st.sampled_from([INTERVAL, CIRCLE]),
           st.one_of(st.floats(-1.5, 2.5, allow_nan=False), near_ends,
                     st.integers(-2, 3)),
           st.one_of(st.floats(1e-15, 2.0), st.floats(0.5, 2.0),
                     st.sampled_from([1e-13, 0.5, 0.75, 1.0, 1.5])),
           st.integers(2, 70))
    @settings(max_examples=2000)
    # the circle grid wraps its last node onto its first (the pop fires)
    @example(CIRCLE, 0.6, 1.0, 11)
    @example(CIRCLE, 0.35, 0.75, 16)
    # clipped interval balls, and centers outside the interval, which
    # metric_ball refuses whether or not the ball meets it
    @example(INTERVAL, 0.0, 0.2, 3)
    @example(INTERVAL, 1, 0.3, 4)
    @example(INTERVAL, 2.0, 0.5, 5)
    @example(INTERVAL, -0.05, 0.1, 5)
    def test_sample_region_matches_separate_samplers(self, space, center,
                                                     radius, count):
        oracle = (separate_interval_ball if space == INTERVAL
                  else separate_circle_ball)
        if space == INTERVAL and not 0.0 <= center <= 1.0:
            with pytest.raises(ValueError, match="^ball center .* lies "
                                                 "outside"):
                metric_ball(space, center, radius)
            return
        region = metric_ball(space, center, radius)
        assert (outcome(sample_region, region, count)
                == outcome(oracle, center, radius, count))


class TestGrids:
    def test_grid_endpoints(self):
        g = grid_points(0.25, 0.75, 5)
        assert g[0] == 0.25 and g[-1] == 0.75
        assert len(g) == 5

    def test_grid_nesting_bitwise(self):
        coarse = grid_points(0.1, 0.9, 8)
        fine = grid_points(0.1, 0.9, 15)
        assert set(coarse) <= set(fine)


# Values json.loads can return, with the edges of exact types: bools (a
# subclass of int), ints past the float range, non-finite floats, -0.0 and
# strings that read as numbers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([10 ** 400, -10 ** 400, int(sys.float_info.max),
                       int(sys.float_info.max) + 1, 2 ** 1024])
    | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.builds(str, st.integers() | st.floats()) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=4)


class TestConfigReaders:
    @given(JSON_VALUES)
    @settings(derandomize=True, max_examples=200, database=None)
    def test_readers_take_exact_finite_types_only(self, v):
        try:
            got = int_value(v, "count")
        except ValueError as exc:
            assert type(v) is not int
            assert str(exc).startswith("count must be an integer, not ")
        else:
            assert type(v) is int and got is v
        finite = (type(v) is int and abs(v) <= int(sys.float_info.max)
                  or type(v) is float and math.isfinite(v))
        try:
            got = number_value(v, "delta")
        except ValueError as exc:
            assert not finite
            assert str(exc).startswith("delta must be a finite number, not ")
        else:
            assert finite and type(got) is float
            assert repr(got) == repr(float(v))
