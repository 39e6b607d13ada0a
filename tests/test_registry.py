"""Transcription guards for the built-in systems.

The interval maps live in the registry as slope-intercept piece tables, so
these tests pin knot values, continuity at shared breakpoints, invariant
intervals, and agreement between the composed pair and its closed form.
"""

import pytest

from nonauto import registry
from nonauto.registry import (
    COVER_KINDS,
    RESOLUTION,
    ContinuityReport,
    NamedSystem,
    build,
    default_cover,
    map_from_pieces,
    registry_names,
    verify_continuity,
)
from nonauto.spaces import CIRCLE, INTERVAL, SYMBOLIC, make_symbolic
from nonauto.systems import (
    apply,
    composition,
    map_at,
    prefix_compose,
)

GRID = [i / 10000.0 for i in range(10001)]
# every arithmetic step of a reflecting piece is exact on this grid
DYADIC = [i / 8192.0 for i in range(8193)]


def spike(r):
    # time of the forward shift inside block r
    return sum(2 ** s + 2 for s in range(1, r)) + 2 ** r + 1


class TestRegistryShape:
    def test_names_are_pinned(self):
        assert registry_names() == (
            "example31",
            "example41_f1",
            "example41_f2",
            "example41_composition",
            "example41_generated",
            "rotations_summable",
            "rotations_harmonic",
            "identity",
        )

    def test_spaces_pinned(self):
        assert {name: build(name).sequence.space
                for name in registry_names()} == {
            "example31": SYMBOLIC,
            "example41_f1": INTERVAL,
            "example41_f2": INTERVAL,
            "example41_composition": INTERVAL,
            "example41_generated": INTERVAL,
            "rotations_summable": CIRCLE,
            "rotations_harmonic": CIRCLE,
            "identity": INTERVAL,
        }
        assert COVER_KINDS == {INTERVAL: "interval-balls",
                               CIRCLE: "circle-balls", SYMBOLIC: "cylinders"}

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build("no-such-system")

    def test_entries_carry_descriptions_and_params(self):
        for name in registry_names():
            named = build(name)
            assert named.name == name
            assert named.description
            assert isinstance(named.deltas, tuple)
            assert type(named.horizon) is int and named.horizon >= 100
            assert all(d > 0 for d in named.deltas)

    def test_recommended_parameters_frozen(self):
        e31 = build("example31")
        assert e31.deltas == (0.5,)
        assert e31.horizon == 2000
        assert COVER_KINDS[e31.sequence.space] == "cylinders"
        comp = build("example41_composition")
        assert comp.deltas == (0.2,)
        assert comp.horizon == 200
        assert RESOLUTION == 64


class TestPieceTables:
    def test_knot_values(self):
        f1 = build("example41_f1").sequence.maps[0]
        f2 = build("example41_f2").sequence.maps[0]
        assert apply(f1, 0.0) == 0.0
        assert apply(f1, 0.25) == 1.0
        assert apply(f1, 1.0) == 0.25
        assert apply(f2, 0.0) == 0.25
        assert apply(f2, 0.25) == 0.0
        assert apply(f2, 0.5) == 1.0
        assert apply(f2, 1.0) == 0.0

    def test_two_step_knot_values(self):
        comp = build("example41_composition").sequence.maps[0]
        assert apply(comp, 0.0) == 0.25
        assert apply(comp, 0.0625) == 0.0
        assert apply(comp, 0.125) == 1.0
        assert apply(comp, 0.25) == 0.0
        assert apply(comp, 0.75) == 1.0
        assert apply(comp, 1.0) == 0.0

    def test_continuity_of_all_tables(self):
        for name in registry_names():
            named = build(name)
            rep = verify_continuity(named)
            assert isinstance(rep, ContinuityReport)
            assert rep.continuous
            assert rep.violations == ()

    def test_breakpoint_values_reported(self):
        rep = verify_continuity(build("example41_f2"))
        assert rep.breakpoint_values["f2"] == (
            (0.0, 0.25), (0.25, 0.0), (0.5, 1.0), (1.0, 0.0))
        rep2 = verify_continuity(build("example41_composition"))
        assert (0.75, 1.0) in rep2.breakpoint_values["two-step"]

    def test_discontinuous_table_detected(self):
        bad = NamedSystem(
            name="bad",
            description="deliberately torn at 0.5",
            sequence=build("identity").sequence,
            deltas=(0.1,),
            horizon=200,
            piece_tables=(("torn", ((0.0, 0.5, 1.0, 0.0),
                                    (0.5, 1.0, 1.0, 0.25))),),
        )
        rep = verify_continuity(bad)
        assert not rep.continuous
        assert rep.violations[0][0] == "torn"
        assert rep.violations[0][1] == 0.5

    def test_map_from_pieces_matches_formulas(self):
        f2 = map_from_pieces(registry.F2_PIECES)
        for x in GRID:
            for lo, hi, slope, intercept in registry.F2_PIECES:
                if lo <= x <= hi:
                    assert abs(apply(f2, x) - (slope * x + intercept)) <= 1e-12
                    break


class TestInvariantIntervals:
    def test_f1_fixes_upper_interval_isometrically(self):
        f1 = build("example41_f1").sequence.maps[0]
        for x in [x for x in GRID if x >= 0.25]:
            assert 0.25 <= apply(f1, x) <= 1.0
        # reflection through the midpoint: exact involution on dyadics
        for x in [x for x in DYADIC if x >= 0.25]:
            assert apply(f1, apply(f1, x)) == x
        assert (abs(apply(f1, 0.3125) - apply(f1, 0.6875))
                == abs(0.3125 - 0.6875))

    def test_f2_fixes_lower_interval_isometrically(self):
        f2 = build("example41_f2").sequence.maps[0]
        for x in [x for x in GRID if x <= 0.25]:
            assert 0.0 <= apply(f2, x) <= 0.25
        for x in [x for x in DYADIC if x <= 0.25]:
            assert apply(f2, apply(f2, x)) == x

    def test_f1_expands_lower_interval(self):
        f1 = build("example41_f1").sequence.maps[0]
        for x in [x for x in GRID if x < 0.25]:
            assert apply(f1, x) == 4.0 * x


class TestComposedPair:
    def test_composition_matches_closed_form_on_grid(self):
        f1 = build("example41_f1").sequence.maps[0]
        f2 = build("example41_f2").sequence.maps[0]
        two_step = map_from_pieces(registry.TWO_STEP_PIECES)
        comp = composition([f1, f2])
        for x in GRID:
            assert abs(apply(comp, x) - apply(two_step, x)) <= 1e-12

    def test_generated_even_prefixes_match_composition(self):
        gen = build("example41_generated").sequence
        comp = build("example41_composition").sequence
        for x in (0.0, 0.1, 1 / 16.0, 0.33, 0.75, 1.0):
            for m in range(1, 8):
                assert (prefix_compose(gen, 2 * m, x)
                        == prefix_compose(comp, m, x))


class TestBlockSystems:
    def test_doubling_blocks_map_kinds(self):
        seq = build("example31").sequence
        # independent step list: block r is 2^r identities then the two
        # matched shifts
        steps = []
        r = 1
        while len(steps) < 60:
            steps.extend([0] * (2 ** r) + [r, -r])
            r += 1
        for n in range(1, 61):
            m = map_at(seq, n)
            if steps[n - 1] == 0:
                assert m.kind == "identity"
            else:
                assert m.kind == "shift"
                assert m.power == steps[n - 1]

    def test_shift_spike_at_index_nine(self):
        seq = build("example31").sequence
        m = map_at(seq, 9)
        assert m.kind == "shift" and m.power == 2

    def test_prefixes_at_spike_times_are_pure_shifts(self):
        seq = build("example31").sequence
        x = make_symbolic({0: 1, 3: 1})
        for r in range(1, 9):
            assert prefix_compose(seq, spike(r), x) == x.shifted(r)
            # one step later the matched backward shift cancels it
            assert prefix_compose(seq, spike(r) + 1, x) == x

    def test_rotation_sequences(self):
        summable = build("rotations_summable").sequence
        harmonic = build("rotations_harmonic").sequence
        for n in range(1, 12):
            ms = map_at(summable, n)
            mh = map_at(harmonic, n)
            assert ms.kind == "rotation" and ms.offset == 2.0 ** -n
            # a full turn normalizes to offset zero
            assert mh.kind == "rotation" and mh.offset == (1.0 / n) % 1.0
        assert summable.space == CIRCLE
        assert build("example31").sequence.space == SYMBOLIC


class TestCovers:
    def test_ball_covers(self):
        for kind in ("interval-balls", "circle-balls"):
            cover = default_cover(kind)
            assert len(cover) == 16
            assert cover[0].center == 1 / 32.0
            assert cover[15].center == 31 / 32.0
            assert all(r.radius == 1 / 32.0 for r in cover)
            assert [r.label for r in cover][:2] == ["ball-00", "ball-01"]

    def test_cylinder_cover(self):
        cover = default_cover("cylinders")
        assert len(cover) == 32
        assert cover[0].label == "cyl-00000"
        assert cover[-1].label == "cyl-11111"
        pinned = dict(cover[5].constraints)
        assert sorted(pinned) == [-2, -1, 0, 1, 2]

    @pytest.mark.parametrize("kind", ["interval-balls", "circle-balls",
                                      "cylinders"])
    def test_each_kind_is_one_shared_tuple(self, kind):
        # scans are cached weakly under their regions: a registry system
        # scanned on a default cover keeps its scans only if the cover does
        assert default_cover(kind) is default_cover(kind)
        assert type(default_cover(kind)) is tuple

    def test_unknown_cover_kind_rejected(self):
        with pytest.raises(ValueError):
            default_cover("triangles")
