"""Built-in systems, their piece tables, and recommended probe parameters.

Interval maps are transcribed as (lo, hi, slope, intercept) piece tables
first and converted to knot form second, so a transcription slip shows up
as a continuity violation at a shared breakpoint instead of silently
bending the map. All breakpoints and slopes are exact dyadics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from .spaces import (
    CIRCLE,
    INTERVAL,
    SYMBOLIC,
    cylinder_region,
    metric_ball,
)
from .systems import (
    MapSequence,
    MapSpec,
    block_sequence,
    composition,
    cyclic_sequence,
    generated_system,
    identity,
    piecewise_linear,
    register_block_generator,
    rotation,
    shift,
)

CONTINUITY_TOL = 1e-12

# (lo, hi, slope, intercept) per piece; value on [lo, hi] is slope*x + intercept
F1_PIECES = (
    (0.0, 0.25, 4.0, 0.0),
    (0.25, 1.0, -1.0, 1.25),
)
F2_PIECES = (
    (0.0, 0.25, -1.0, 0.25),
    (0.25, 0.5, 4.0, -1.0),
    (0.5, 1.0, -2.0, 2.0),
)
# closed form of the two-step composition (apply f1, then f2)
TWO_STEP_PIECES = (
    (0.0, 0.0625, -4.0, 0.25),
    (0.0625, 0.125, 16.0, -1.0),
    (0.125, 0.25, -8.0, 2.0),
    (0.25, 0.75, 2.0, -0.5),
    (0.75, 1.0, -4.0, 4.0),
)


def _knots(pieces) -> tuple:
    """Knot form of a piece table; values come from the right piece."""
    ends = tuple((lo, slope * lo + c) for lo, _, slope, c in pieces)
    _, hi, slope, c = pieces[-1]
    return ends + ((hi, slope * hi + c),)


def map_from_pieces(pieces) -> MapSpec:
    """The map of a piece table."""
    return piecewise_linear(_knots(pieces))


@dataclass(frozen=True)
class ContinuityReport:
    continuous: bool
    breakpoint_values: dict
    violations: tuple


# probe defaults shared by every system: resolution, and cover per space
RESOLUTION = 64
COVER_KINDS = {INTERVAL: "interval-balls", CIRCLE: "circle-balls",
               SYMBOLIC: "cylinders"}


@dataclass(frozen=True)
class NamedSystem:
    name: str
    description: str
    sequence: MapSequence
    deltas: tuple
    horizon: int
    piece_tables: tuple = ()


def _shift_blocks(r: int):
    return (identity(),) * (2 ** r) + (shift(r), shift(-r))


def _rot_summable(r: int):
    return (rotation(2.0 ** -r),)


def _rot_harmonic(r: int):
    return (rotation(1.0 / r),)


register_block_generator("shift-blocks", _shift_blocks)
register_block_generator("rot-summable", _rot_summable)
register_block_generator("rot-harmonic", _rot_harmonic)

_F1 = map_from_pieces(F1_PIECES)
_F2 = map_from_pieces(F2_PIECES)


def _build_registry() -> dict:
    entries = [
        NamedSystem(
            name="example31",
            description=("binary sequence space: identity blocks of doubling "
                         "length punctuated by matched forward and backward "
                         "shifts, so displacement spikes recur with widening "
                         "gaps"),
            sequence=block_sequence("shift-blocks", space=SYMBOLIC),
            deltas=(0.5,), horizon=2000,
        ),
        NamedSystem(
            name="example41_f1",
            description=("tent-like interval map, expanding left of 1/4 and "
                         "an isometric involution on [1/4, 1], run "
                         "autonomously"),
            sequence=cyclic_sequence([_F1]),
            deltas=(0.2,), horizon=200,
            piece_tables=(("f1", F1_PIECES),),
        ),
        NamedSystem(
            name="example41_f2",
            description=("interval map that reflects [0, 1/4] onto itself "
                         "isometrically and folds the rest, run "
                         "autonomously"),
            sequence=cyclic_sequence([_F2]),
            deltas=(0.2,), horizon=200,
            piece_tables=(("f2", F2_PIECES),),
        ),
        NamedSystem(
            name="example41_composition",
            description=("autonomous system driven by the two-step "
                         "composition, whose five linear pieces all have "
                         "slope magnitude at least 2"),
            sequence=cyclic_sequence([composition([_F1, _F2])]),
            deltas=(0.2,), horizon=200,
            piece_tables=(("f1", F1_PIECES), ("f2", F2_PIECES),
                          ("two-step", TWO_STEP_PIECES)),
        ),
        NamedSystem(
            name="example41_generated",
            description=("alternating application of the two interval maps; "
                         "even-time prefixes agree bitwise with the "
                         "two-step composition system"),
            sequence=generated_system([_F1, _F2]),
            deltas=(0.2,), horizon=400,
            piece_tables=(("f1", F1_PIECES), ("f2", F2_PIECES)),
        ),
        NamedSystem(
            name="rotations_summable",
            description=("circle rotations by 2^-n: displacements sum to 1, "
                         "so the sequence converges to the identity in the "
                         "supremum metric"),
            sequence=block_sequence("rot-summable", space=CIRCLE),
            deltas=(0.25,), horizon=100,
        ),
        NamedSystem(
            name="rotations_harmonic",
            description=("circle rotations by 1/n: individual maps converge "
                         "to the identity but displacements sum like the "
                         "harmonic series"),
            sequence=block_sequence("rot-harmonic", space=CIRCLE),
            deltas=(0.25,), horizon=100,
        ),
        NamedSystem(
            name="identity",
            description="constant identity sequence on the interval",
            sequence=cyclic_sequence([identity()], space=INTERVAL),
            deltas=(0.1,), horizon=200,
        ),
    ]
    return {e.name: e for e in entries}


_REGISTRY = _build_registry()


def registry_names() -> tuple:
    return tuple(_REGISTRY)


def build(name: str) -> NamedSystem:
    if name not in _REGISTRY:
        raise KeyError(f"unknown system: {name!r}; "
                       f"known: {', '.join(_REGISTRY)}")
    return _REGISTRY[name]


@cache
def default_cover(cover_kind: str) -> tuple:
    """The standard region cover for each space kind.

    Interval and circle covers are 16 balls of radius 1/32 at odd
    multiples of 1/32; the cylinder cover pins every pattern on
    coordinates -2 .. 2. Each kind is one tuple, built once and owned by
    the registry like its systems, so the scans cached under its regions
    (``sensitivity.region_scan``) live as long as the registry systems
    scanned on them.
    """
    if cover_kind in ("interval-balls", "circle-balls"):
        space = INTERVAL if cover_kind == "interval-balls" else CIRCLE
        return tuple(metric_ball(space, (2 * i + 1) / 32.0, 1 / 32.0,
                                 label=f"ball-{i:02d}") for i in range(16))
    if cover_kind == "cylinders":
        return tuple(
            cylinder_region(dict(zip(range(-2, 3), bits)),
                            label="cyl-" + "".join(map(str, bits)))
            for bits in product((0, 1), repeat=5))
    raise ValueError(f"unknown cover kind: {cover_kind!r}")


def verify_continuity(named: NamedSystem) -> ContinuityReport:
    """Adjacent pieces of every transcribed table must meet at their shared
    breakpoints; the report lists the value at every breakpoint."""
    values = {}
    violations = []
    for label, pieces in named.piece_tables:
        for (_, hi, slope, intercept), (nlo, _, nslope, nintercept) in zip(
                pieces, pieces[1:]):
            left = slope * hi + intercept
            right = nslope * nlo + nintercept
            if hi != nlo or abs(left - right) > CONTINUITY_TOL:
                violations.append((label, hi, left, right))
        values[label] = _knots(pieces)
    return ContinuityReport(continuous=not violations,
                            breakpoint_values=values,
                            violations=tuple(violations))
