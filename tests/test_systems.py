from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonauto import systems
from nonauto.spaces import (
    CIRCLE,
    INTERVAL,
    SYMBOLIC,
    distance,
    grid_points,
    make_symbolic,
    metric_ball,
)
from nonauto.systems import (
    CLAMP_TOL,
    CommutationError,
    MapSequence,
    MapSpec,
    apply,
    breakpoints,
    composition,
    cyclic_sequence,
    explicit_sequence,
    feeble_open_probe,
    generated_system,
    identity,
    kth_iterate,
    map_at,
    map_from_dict,
    map_net_shift,
    map_space,
    map_to_dict,
    net_shift_series,
    orbit,
    piecewise_linear,
    prefix_compose,
    rotation,
    sequence_from_dict,
    sequence_to_dict,
    shadow_bound_check,
    shift,
    sup_metric,
    tail_sum,
)

# Local transcriptions, kept independent of the package registry on purpose:
# registry tests later compare against these.

F1 = piecewise_linear([(0.0, 0.0), (0.25, 1.0), (1.0, 0.25)])
F2 = piecewise_linear([(0.0, 0.25), (0.25, 0.0), (0.5, 1.0), (1.0, 0.0)])
# five-piece closed form of applying F1 then F2
PRINTED_TWO_STEP = piecewise_linear([
    (0.0, 0.25), (0.0625, 0.0), (0.125, 1.0), (0.25, 0.0), (0.75, 1.0),
    (1.0, 0.0),
])


class TestApply:
    def test_identity(self):
        assert apply(identity(), 0.37) == 0.37

    def test_pinned_piecewise_values(self):
        assert apply(F1, 0.125) == 0.5
        assert apply(F1, 0.25) == 1.0
        assert apply(F1, 1.0) == 0.25
        assert apply(F2, 1.0) == 0.0
        assert apply(F2, 0.25) == 0.0
        assert apply(F2, 0.5) == 1.0

    def test_two_step_value(self):
        assert apply(composition([F1, F2]), 0.5) == 0.5

    def test_rotation_wraps(self):
        assert apply(rotation(0.75), 0.5) == 0.25

    def test_shift_moves_origin(self):
        x = make_symbolic({1: 1})
        y = apply(shift(1), x)
        assert y.coord(0) == 1
        assert y.fwd is x.fwd and y.rev is x.rev

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            apply(F1, 1.5)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_piecewise_stays_inside(self, x):
        for m in (F1, F2, PRINTED_TWO_STEP, composition([F1, F2])):
            assert 0.0 <= apply(m, x) <= 1.0


# Oracle for the compiled maps: the string-dispatched evaluator that
# ``MapSpec.step`` replaced, transcribed here so it shares no code with it.


def reference_apply(m, x):
    if m.kind == "identity":
        return x
    if m.kind == "shift":
        return x.shifted(m.power)
    if m.kind == "rotation":
        return (x + m.offset) % 1.0
    if m.kind == "piecewise-linear":
        return reference_apply_pwl(m.knots, x)
    if m.kind == "composition":
        for g in m.maps:
            x = reference_apply(g, x)
        return x
    raise ValueError(f"unknown map kind: {m.kind!r}")


def reference_apply_pwl(knots, x):
    if not (-CLAMP_TOL <= x <= 1.0 + CLAMP_TOL):
        raise ValueError(f"point {x!r} outside [0,1]")
    x = min(1.0, max(0.0, x))
    xs = tuple(k[0] for k in knots)
    ys = tuple(k[1] for k in knots)
    slopes = tuple((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                   for i in range(len(knots) - 1))
    i = bisect_right(xs, x) - 1
    if i >= len(slopes):
        i = len(slopes) - 1
    y = ys[i] + (x - xs[i]) * slopes[i]
    if y < 0.0:
        if y < -CLAMP_TOL:
            raise ValueError(f"map left [0,1]: {y!r}")
        y = 0.0
    elif y > 1.0:
        if y > 1.0 + CLAMP_TOL:
            raise ValueError(f"map left [0,1]: {y!r}")
        y = 1.0
    return y


def outcome(fn, m, x):
    """The value's bit pattern, or the error's type and text."""
    try:
        y = fn(m, x)
    except ValueError as exc:
        return ("raises", str(exc))
    return ("value", y.hex() if isinstance(y, float) else y)


# knot values straddle [0, 1] so that some tables (built directly, past the
# constructor's check) leave the interval and raise "map left [0,1]"
knot_value = st.one_of(
    st.sampled_from([0.0, 1.0, CLAMP_TOL, 1.0 - CLAMP_TOL, -CLAMP_TOL / 2,
                     1.0 + CLAMP_TOL / 2, -0.25, 1.25]),
    st.floats(min_value=-0.25, max_value=1.25, allow_nan=False))


@st.composite
def knot_tables(draw):
    inner = draw(st.lists(st.floats(min_value=0.0, max_value=1.0,
                                    exclude_min=True, exclude_max=True),
                          max_size=5, unique=True))
    xs = [0.0, *sorted(inner), 1.0]
    ys = draw(st.lists(knot_value, min_size=len(xs), max_size=len(xs)))
    return tuple(zip(xs, ys))


@st.composite
def unit_knot_tables(draw):
    # knots on a 1/1024 lattice with values in [0, 1], as piecewise_linear
    # requires: every point of [0, 1] has an image and no slope overflows
    inner = draw(st.lists(st.integers(min_value=1, max_value=1023),
                          max_size=5, unique=True))
    xs = [0.0, *(k / 1024 for k in sorted(inner)), 1.0]
    ys = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=len(xs), max_size=len(xs)))
    return tuple(zip(xs, ys))


def pwl_maps(tables):
    return tables.map(lambda k: MapSpec(kind="piecewise-linear", knots=k))


def compositions_of(leaves):
    # nested compositions are built directly: ``composition`` flattens them
    return st.recursive(
        st.one_of(st.just(identity()), leaves),
        lambda inner: st.lists(inner, min_size=1, max_size=3).map(
            lambda ms: MapSpec(kind="composition", maps=tuple(ms))),
        max_leaves=6)


rotations = st.floats(min_value=-2.0, max_value=2.0,
                      allow_nan=False).map(rotation)
interval_maps = compositions_of(pwl_maps(knot_tables()))
circle_maps = compositions_of(rotations)
unit_interval_maps = compositions_of(pwl_maps(unit_knot_tables()))
# points on and just past the [0, 1] guard of the piecewise-linear maps
guard_point = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, CLAMP_TOL, -CLAMP_TOL, 1.0 + CLAMP_TOL,
                     -2 * CLAMP_TOL, 1.0 + 2 * CLAMP_TOL, 5e-324, 1.5,
                     -0.5]),
    st.floats(min_value=-0.1, max_value=1.1, allow_nan=False))


class TestCompiledStep:
    @given(interval_maps, guard_point)
    @settings(max_examples=600)
    @example(MapSpec(kind="piecewise-linear",
                     knots=((0.0, -0.5), (1.0, 1.5))), 0.1)
    @example(MapSpec(kind="piecewise-linear",
                     knots=((0.0, 0.0), (0.5, 1.0 + CLAMP_TOL / 2),
                            (1.0, 0.0))), 0.5)
    @example(F1, float("nan"))
    def test_interval_maps_match_reference(self, m, x):
        expect = outcome(reference_apply, m, x)
        assert outcome(apply, m, x) == expect
        assert outcome(lambda m, x: m.step(x), m, x) == expect

    @given(circle_maps, st.floats(min_value=0.0, max_value=1.0,
                                  exclude_max=True))
    @settings(max_examples=300)
    def test_circle_maps_match_reference(self, m, x):
        assert outcome(apply, m, x) == outcome(reference_apply, m, x)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
           st.dictionaries(st.integers(-8, 8), st.integers(0, 1)))
    def test_shift_maps_match_reference(self, powers, bits):
        x = make_symbolic(bits, radius=24)
        m = MapSpec(kind="composition", maps=tuple(shift(p) for p in powers))
        assert apply(m, x) == reference_apply(m, x)
        y = apply(m, x)
        assert y.fwd is x.fwd and y.rev is x.rev

    def test_out_of_range_texts(self):
        with pytest.raises(ValueError, match=r"^point 1\.5 outside \[0,1\]$"):
            apply(F1, 1.5)
        wild = MapSpec(kind="piecewise-linear", knots=((0.0, -0.5), (1.0, 1.5)))
        with pytest.raises(ValueError, match=r"^map left \[0,1\]: -0\.5$"):
            apply(wild, 0.0)
        with pytest.raises(ValueError, match="^unknown map kind: 'bogus'$"):
            apply(MapSpec(kind="bogus"), 0.5)

    def test_compiled_once(self):
        m = composition([F1, F2])
        assert m.step is m.step
        assert identity() is identity()
        seq = explicit_sequence([F1], tail="identity")
        assert map_at(seq, 5) is map_at(seq, 9) is identity()


class TestMapSpace:
    def test_tags(self):
        assert map_space(identity()) is None
        assert map_space(shift(2)) == SYMBOLIC
        assert map_space(F1) == INTERVAL
        assert map_space(rotation(0.1)) == CIRCLE
        assert map_space(composition([identity(), F1])) == INTERVAL

    def test_mixed_composition_rejected(self):
        with pytest.raises(ValueError):
            map_space(composition([F1, rotation(0.1)]))

    def test_shift_bound(self):
        with pytest.raises(ValueError):
            shift(33)


class TestBreakpoints:
    def test_two_step_pullback(self):
        assert breakpoints(composition([F1, F2])) == (
            0.0, 0.0625, 0.125, 0.25, 0.75, 1.0)

    def test_plain_knots(self):
        assert breakpoints(F1) == (0.0, 0.25, 1.0)
        assert breakpoints(rotation(0.3)) == ()


class TestSequences:
    def test_prefix_empty(self):
        s = cyclic_sequence([F1])
        assert prefix_compose(s, 0, 0.3) == 0.3

    def test_two_step_prefix(self):
        s = cyclic_sequence([F1, F2])
        assert prefix_compose(s, 2, 0.5) == 0.5

    def test_generated_order(self):
        s = generated_system([F1, F2])
        for n in (1, 3, 5):
            assert map_at(s, n) is F1
        for n in (2, 4, 6):
            assert map_at(s, n) is F2

    def test_generated_identity(self):
        with pytest.raises(ValueError, match="^a sequence of identity maps "
                                             "needs a space tag$"):
            generated_system([identity()])
        s = cyclic_sequence([identity()], space=INTERVAL)
        assert prefix_compose(s, 17, 0.42) == 0.42

    def test_explicit_tail_rules(self):
        hold = explicit_sequence([F1, F2], tail="hold")
        pad = explicit_sequence([F1, F2], tail="identity")
        assert map_at(hold, 9) is F2
        assert map_at(pad, 9).kind == "identity"

    def test_orbit_matches_prefixes(self):
        s = cyclic_sequence([F1, F2])
        pts = orbit(s, 0.3, 7)
        for n in range(8):
            assert pts[n] == prefix_compose(s, n, 0.3)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=0, max_value=20))
    def test_prefix_recursion(self, x, n):
        s = cyclic_sequence([F1, F2])
        assert prefix_compose(s, n + 1, x) == apply(
            map_at(s, n + 1), prefix_compose(s, n, x))


class TestBlocks:
    def test_block_walk_arithmetic(self):
        systems.register_block_generator(
            "unit-test-ramp", lambda r: (shift(1),) * r)
        s = systems.block_sequence("unit-test-ramp", space=SYMBOLIC)
        # blocks: [s], [s,s], [s,s,s] ... index m sits in block r with
        # r(r-1)/2 < m <= r(r+1)/2; every map is shift(1)
        series = net_shift_series(s, 30)
        assert series == list(range(31))

    def test_block_walk_matches_flattened_blocks(self):
        systems.register_block_generator("unit-test-distinct", distinct_block)
        s = systems.block_sequence("unit-test-distinct", space=CIRCLE)
        flat = [m for r in range(1, 12) for m in distinct_block(r)]
        # walk forward while the cache grows, then back through cached blocks
        order = list(range(1, len(flat) + 1)) + list(range(len(flat), 0, -1))
        for n in order:
            assert map_at(s, n) == flat[n - 1], n

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            systems.block_sequence("no-such-generator")

    def test_empty_block_raises_every_time(self):
        systems.register_block_generator("unit-test-empty", empty_third_block)
        s = systems.block_sequence("unit-test-empty", space=CIRCLE)
        assert map_at(s, 4) == rotation(2 / 64)
        for _ in range(3):
            with pytest.raises(ValueError, match=r"^generator "
                               r"'unit-test-empty' produced an empty block$"):
                map_at(s, 5)
        assert map_at(s, 1) == rotation(1 / 64)

    def test_separate_sequences_and_iterates_agree(self):
        systems.register_block_generator("unit-test-distinct", distinct_block)
        first, second = (systems.block_sequence("unit-test-distinct",
                                                space=CIRCLE)
                         for _ in range(2))
        flat = [m for r in range(1, 12) for m in distinct_block(r)]
        forward = list(range(1, len(flat) + 1))
        for seq in (first, second):
            for n in forward + forward[::-1]:
                assert map_at(seq, n) == flat[n - 1], n
        third = kth_iterate(first, 3)
        forward = list(range(1, len(flat) // 3 + 1))
        for n in forward + forward[::-1]:
            assert map_at(third, n) == composition(flat[3 * n - 3:3 * n]), n
        # asked for its last map first, a fresh sequence builds every
        # earlier block in one call
        fresh = systems.block_sequence("unit-test-distinct", space=CIRCLE)
        assert map_at(fresh, len(flat)) == flat[-1]
        assert [map_at(fresh, n) for n in range(1, len(flat) + 1)] == flat


class TestSpaceTags:
    @pytest.mark.parametrize("build", [cyclic_sequence, explicit_sequence])
    @pytest.mark.parametrize("m, tag, acts_on", [
        (shift(1), INTERVAL, SYMBOLIC),
        (F1, CIRCLE, INTERVAL),
        (rotation(0.3), INTERVAL, CIRCLE),
        (composition([identity(), shift(2)]), CIRCLE, SYMBOLIC),
    ], ids=["shift-as-interval", "knots-as-circle", "rotation-as-interval",
            "composed-shift-as-circle"])
    def test_mismatched_tag_names_both_spaces(self, build, m, tag, acts_on):
        with pytest.raises(ValueError, match=f"^space tag {tag} disagrees "
                                             f"with maps on the {acts_on} "
                                             f"space$"):
            build([identity(), m], space=tag)

    @pytest.mark.parametrize("tag", [INTERVAL, CIRCLE, SYMBOLIC])
    def test_identity_takes_any_tag(self, tag):
        assert cyclic_sequence([identity()], space=tag).space == tag
        assert explicit_sequence([identity()] * 2, space=tag).space == tag

    def test_mixed_maps_refused_even_when_tagged(self):
        with pytest.raises(ValueError, match="^maps act on different spaces: "
                                             "circle, interval$"):
            explicit_sequence([rotation(0.3), F1], space=CIRCLE)

    @pytest.mark.parametrize("build", [
        lambda tag: cyclic_sequence([identity()], space=tag),
        lambda tag: systems.block_sequence("shift-blocks", space=tag),
    ], ids=["cyclic", "block"])
    def test_unknown_tag_refused(self, build):
        with pytest.raises(ValueError, match="^unknown space tag 'torus'$"):
            build("torus")

    def test_bad_generated_block_raises_when_reached(self):
        systems.register_block_generator("unit-test-turns-symbolic",
                                         turns_symbolic_in_third_block)
        s = systems.block_sequence("unit-test-turns-symbolic", space=CIRCLE)
        assert [map_at(s, n) for n in range(1, 5)] == [
            rotation(r / 8) for r in (1, 1, 2, 2)]
        for n in (6, 5):
            with pytest.raises(ValueError, match=THIRD_BLOCK_OFF_CIRCLE):
                map_at(s, n)
        assert map_at(s, 4) == rotation(2 / 8)
        assert len(s._built) == 4

    def test_untagged_block_of_mixed_maps_raises(self):
        systems.register_block_generator(
            "unit-test-mixed", lambda r: (rotation(0.5), F1))
        with pytest.raises(ValueError, match="^maps act on different spaces"):
            systems.block_sequence("unit-test-mixed")

    @pytest.mark.parametrize("build", [
        cyclic_sequence, explicit_sequence, generated_system,
    ], ids=["cyclic", "explicit", "generated"])
    def test_identities_alone_need_a_tag(self, build):
        with pytest.raises(ValueError, match="^a sequence of identity maps "
                                             "needs a space tag$"):
            build([identity(), composition([identity(), identity()])])

    def test_untagged_identity_block_needs_a_tag(self):
        systems.register_block_generator("unit-test-identity-first",
                                         shifts_after_first_block)
        with pytest.raises(ValueError, match="^a sequence of identity maps "
                                             "needs a space tag$"):
            systems.block_sequence("unit-test-identity-first")
        s = systems.block_sequence("unit-test-identity-first", space=SYMBOLIC)
        assert map_at(s, 3) == shift(2)

    @pytest.mark.parametrize("name, space", [
        ("rot-harmonic", CIRCLE), ("rot-summable", CIRCLE),
        ("shift-blocks", SYMBOLIC),
    ])
    def test_untagged_block_takes_its_first_blocks_space(self, name, space):
        assert systems.block_sequence(name).space == space

    def test_untagged_block_keeps_its_first_blocks_space(self):
        # the third block is shifts: it may not turn a circle sequence
        # symbolic, and raises where it is reached, naming no tag
        systems.register_block_generator("unit-test-turns-symbolic",
                                         turns_symbolic_in_third_block)
        s = systems.block_sequence("unit-test-turns-symbolic")
        assert s.space == CIRCLE
        assert map_at(s, 4) == rotation(2 / 8)
        with pytest.raises(ValueError, match=THIRD_BLOCK_OFF_CIRCLE):
            map_at(s, 5)


def shifts_after_first_block(r):
    return (identity(),) * 2 if r == 1 else (shift(r),)


THIRD_BLOCK_OFF_CIRCLE = ("^generator 'unit-test-turns-symbolic' block 3 "
                          "acts on the symbolic space, not the sequence's "
                          "circle space$")


def turns_symbolic_in_third_block(r):
    return (shift(1),) * 2 if r == 3 else (rotation(r / 8),) * 2


def distinct_block(r):
    # block r has r + (r % 3) maps and no map repeats anywhere in the sequence
    return tuple(rotation(r / 64 + i / 4096) for i in range(r + r % 3))


def empty_third_block(r):
    return (rotation(r / 64),) * (0 if r == 3 else 2)


class TestKthIterate:
    def test_k1_is_same_maps(self):
        s = cyclic_sequence([F1, F2])
        t = kth_iterate(s, 1)
        for n in range(1, 11):
            assert map_at(t, n) == map_at(s, n)

    def test_first_map_matches_printed_two_step(self):
        t = kth_iterate(cyclic_sequence([F1, F2]), 2)
        m = map_at(t, 1)
        for x in grid_points(0.0, 1.0, 1000):
            assert apply(m, x) == pytest.approx(apply(PRINTED_TWO_STEP, x),
                                                abs=1e-12)

    def test_prefix_identity_exact(self):
        s = cyclic_sequence([F1, F2])
        for k in (2, 3):
            t = kth_iterate(s, k)
            for x in (0.0, 0.11, 0.5, 0.73, 1.0):
                for n in range(0, 8):
                    assert prefix_compose(t, n, x) == prefix_compose(s, k * n, x)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_map_at_is_memoised_composition(self, k):
        systems.register_block_generator("unit-test-distinct", distinct_block)
        base = systems.block_sequence("unit-test-distinct", space=CIRCLE)
        t = kth_iterate(base, k)
        for n in range(1, 12):
            fresh = composition([map_at(base, k * (n - 1) + i)
                                 for i in range(1, k + 1)])
            m = map_at(t, n)
            assert m == fresh
            assert map_at(t, n) is m

    def test_generated_kth_equals_autonomous_composition(self):
        s = generated_system([F1, F2])
        t = kth_iterate(s, 2)
        auto = cyclic_sequence([composition([F1, F2])])
        for x in (0.0, 0.2, 0.5, 0.9):
            for n in range(0, 6):
                assert prefix_compose(t, n, x) == prefix_compose(auto, n, x)


class TestNetShift:
    def test_series(self):
        s = explicit_sequence([shift(2), identity(), shift(-1)], tail="identity",
                              space=SYMBOLIC)
        assert net_shift_series(s, 4) == [0, 2, 2, 1, 1]

    def test_non_shift_disqualifies(self):
        s = cyclic_sequence([F1])
        with pytest.raises(ValueError, match="^a piecewise-linear map has no "
                                             "net shift$"):
            net_shift_series(s, 3)

    def test_composed_shift(self):
        assert map_net_shift(composition([shift(2), shift(-5)])) == -3


class TestSupMetric:
    def test_self_distance(self):
        assert sup_metric(F1, F1) == 0.0

    def test_pinned_identity_gap(self):
        assert sup_metric(F1, identity()) == 0.75

    def test_rotation_gap_exact(self):
        assert sup_metric(rotation(0.3), rotation(0.8)) == 0.5
        assert sup_metric(rotation(0.25), identity()) == 0.25
        assert sup_metric(rotation(2.0 ** -7), identity()) == 2.0 ** -7

    def test_one_map_written_two_ways(self):
        # every breakpoint evaluates equal; between them the two forms may
        # round apart by an ulp, which is not a distance between the maps
        assert sup_metric(composition([F1, F2]), PRINTED_TWO_STEP) == 0.0

    @given(unit_interval_maps, unit_interval_maps)
    @settings(deadline=None)
    @example(F1, identity())
    @example(F1, F2)
    def test_breakpoints_match_dense_grid(self, f, g):
        # the oracle reads a 256-point grid of [0, 1] as well as both maps'
        # breakpoints, so it can only read more; where |f - g| is flat on a
        # piece it may read an ulp of rounding more, and 2**-40 leaves room
        # for that rounding through compositions of slopes up to 2**10
        grid = (set(grid_points(0.0, 1.0, 256)) | set(breakpoints(f))
                | set(breakpoints(g)))
        dense = max(distance(INTERVAL, apply(f, x), apply(g, x))
                    for x in grid)
        got = sup_metric(f, g)
        assert got <= dense <= got + 2 ** -40

    @given(st.sampled_from([F1, F2, PRINTED_TWO_STEP]),
           st.sampled_from([F1, F2, PRINTED_TWO_STEP]),
           st.sampled_from([F1, F2, PRINTED_TWO_STEP]))
    @settings(max_examples=30)
    def test_axioms(self, f, g, h):
        assert sup_metric(f, g) == sup_metric(g, f)
        assert sup_metric(f, h) <= sup_metric(f, g) + sup_metric(g, h) + 1e-12


def summable_rotations(n: int) -> MapSequence:
    return explicit_sequence([rotation(2.0 ** -i) for i in range(1, n + 1)],
                             tail="hold", space=CIRCLE)


class TestTailSum:
    def test_constant_sequence(self):
        rep = tail_sum(cyclic_sequence([F1]), F1, 8)
        assert rep.partial_sums == (0.0,) * 8

    def test_geometric_partial_sums(self):
        rep = tail_sum(summable_rotations(64), identity(), 40)
        for n, s in enumerate(rep.partial_sums, start=1):
            assert s == 1.0 - 2.0 ** -n
        assert rep.converged

    def test_harmonic_diverges(self):
        s = explicit_sequence([rotation(1.0 / i) for i in range(1, 65)],
                              tail="hold", space=CIRCLE)
        rep = tail_sum(s, identity(), 64)
        assert not rep.converged
        assert all(b >= a for a, b in zip(rep.partial_sums,
                                          rep.partial_sums[1:]))


class TestShadowBound:
    def test_constant_sequence(self):
        rec = shadow_bound_check(cyclic_sequence([rotation(0.3)]),
                                 rotation(0.3), 0.1, 3, 2)
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.ok

    def test_pinned_geometric_case(self):
        # steps 3 and 4 rotate by 2^-3 and 2^-4
        rec = shadow_bound_check(summable_rotations(16), identity(), 0.0, 2, 2)
        assert rec.lhs == 0.1875
        assert rec.rhs == 0.1875
        assert rec.ok

    @pytest.mark.parametrize("k, lhs, rhs", [(1, 0.5, 0.5), (2, 0.25, 0.75),
                                             (3, 0.125, 0.875)])
    def test_from_time_zero_sums_the_first_k_maps(self, k, lhs, rhs):
        rec = shadow_bound_check(summable_rotations(16), identity(), 0.0, 0, k)
        assert (rec.lhs, rec.rhs) == (lhs, rhs)
        assert rec.ok

    def test_common_rotation_core(self):
        c = 0.3
        s = explicit_sequence([rotation(c + 2.0 ** -i) for i in range(1, 9)],
                              tail="hold", space=CIRCLE)
        rec = shadow_bound_check(s, rotation(c), 0.42, 0, 3)
        assert rec.ok

    def test_noncommuting_rejected(self):
        with pytest.raises(CommutationError):
            shadow_bound_check(cyclic_sequence([F1]), rotation(0.25), 0.1, 1, 1)


def loop_shadow_bound_check(seq, f, x, n, k):
    # Transcription of shadow_bound_check before the commutation check was
    # memoised per map: every map 1..n+k is re-checked on its grid each call.
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    space = seq.space or map_space(f) or CIRCLE
    grid = grid_points(0.0, 1.0, 17)
    grid += [b for b in breakpoints(f)]
    for i in range(1, n + k + 1):
        g = map_at(seq, i)
        grid_i = sorted(set(grid) | set(breakpoints(g)))
        for p in grid_i:
            gap = distance(space, apply(f, apply(g, p)), apply(g, apply(f, p)))
            if gap > systems.COMMUTE_TOL:
                raise CommutationError(i, p, gap)
    mid = prefix_compose(seq, n, x)
    true_pt = prefix_compose(seq, n + k, x)
    shadow = mid
    for _ in range(k):
        shadow = apply(f, shadow)
    lhs = distance(space, true_pt, shadow)
    rhs = 0.0
    for i in range(n + 1, n + k + 1):
        rhs += sup_metric(map_at(seq, i), f)
    return systems.ShadowBoundRecord(x=x, n=n, k=k, lhs=lhs, rhs=rhs,
                                     ok=lhs <= rhs + systems.COMMUTE_TOL)


class TestMemoisedCommutation:
    # maps 1 and 2 commute with the reference map; map 3 is the first that
    # does not
    SEQ = explicit_sequence([F1, identity(), F2], tail="hold")

    def raised(self, check, n, k):
        with pytest.raises(CommutationError) as info:
            check(self.SEQ, F1, 0.1, n, k)
        err = info.value
        return err.index, err.x, err.gap, str(err)

    @pytest.mark.parametrize("n, k", [(2, 1), (1, 3), (4, 2)])
    def test_error_matches_loop_fresh_and_cached(self, n, k):
        systems._commutation_failure.cache_clear()
        want = self.raised(loop_shadow_bound_check, n, k)
        assert want[0] == 3
        assert self.raised(shadow_bound_check, n, k) == want
        assert systems._commutation_failure.cache_info().currsize > 0
        hits = systems._commutation_failure.cache_info().hits
        assert self.raised(shadow_bound_check, n, k) == want
        assert systems._commutation_failure.cache_info().hits > hits

    def test_commuting_prefix_passes(self):
        rec = shadow_bound_check(self.SEQ, F1, 0.1, 1, 1)
        assert rec == loop_shadow_bound_check(self.SEQ, F1, 0.1, 1, 1)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                     allow_nan=False),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=1, max_value=20),
           st.sampled_from([0.0, 0.25, 2.0 ** -5]))
    @settings(max_examples=60, deadline=None)
    def test_records_equal_loop(self, x, n, k, c):
        seq, f = summable_rotations(40), rotation(c)
        assert (shadow_bound_check(seq, f, x, n, k)
                == loop_shadow_bound_check(seq, f, x, n, k))


class TestFeebleOpenProbe:
    def test_identity_ball(self):
        assert feeble_open_probe(identity(), metric_ball(INTERVAL, 0.5, 0.1), 64)

    def test_constant_map(self):
        flat = piecewise_linear([(0.0, 0.4), (1.0, 0.4)])
        assert not feeble_open_probe(flat, metric_ball(INTERVAL, 0.5, 0.1), 64)

    def test_pinned_image_interval(self):
        # image of (0.4, 0.6) under the descending piece is (0.65, 0.85)
        assert feeble_open_probe(F1, metric_ball(INTERVAL, 0.5, 0.1), 64)

    def test_non_interval_rejected(self):
        with pytest.raises(ValueError):
            feeble_open_probe(rotation(0.1), metric_ball(INTERVAL, 0.5, 0.1), 64)

    @pytest.mark.parametrize("resolution", [0, -4])
    def test_resolution_below_one_refused(self, resolution):
        # 0 divided by zero and -4 accepted any map before the check
        flat = piecewise_linear([(0.0, 0.4), (1.0, 0.4)])
        with pytest.raises(ValueError, match="^resolution must be positive$"):
            feeble_open_probe(flat, metric_ball(INTERVAL, 0.5, 0.1),
                              resolution)


class TestSerialization:
    def test_map_round_trip(self):
        for m in (identity(), shift(-3), rotation(0.125), F1,
                  composition([F1, F2])):
            assert map_from_dict(map_to_dict(m)) == m

    def test_sequence_round_trip(self):
        seqs = [
            cyclic_sequence([F1, F2]),
            explicit_sequence([F1, identity()], tail="hold"),
            kth_iterate(cyclic_sequence([F1, F2]), 3),
            systems.block_sequence("rot-harmonic"),
        ]
        for s in seqs:
            assert sequence_from_dict(sequence_to_dict(s)) == s

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            map_from_dict({"kind": "teleport"})
