"""Maps, time-varying map sequences, and their prefix compositions.

A MapSpec is a small closed vocabulary of concrete maps: the identity,
coordinate shifts on binary sequences, piecewise-linear interval maps,
circle rotations, and compositions of those. A MapSequence produces the
map acting at each time step n >= 1; orbits always use the prefix
composition (apply map 1, then map 2, and so on). Each map is compiled
once into ``MapSpec.step``, a plain one-argument function with its tables
and offsets bound in; ``apply`` and ``orbit`` call it directly. Block-
structured and k-th iterate sequences keep the maps they have built in a
list on the sequence itself, grown in order, so ``map_at`` is an index.

Everything here is exact in the sense that matters downstream: piecewise
slopes are small integers evaluated once per step, shifts move an origin
index, and grids reuse the shared breakpoint set, so equal prefixes give
bitwise equal points.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .spaces import (
    CIRCLE,
    INTERVAL,
    SYMBOLIC,
    circle_distance,
    distance,
    grid_points,
    int_value,
    number_value,
)

MAX_SHIFT = 32

# Slack for the output of a piecewise-linear evaluation drifting past [0,1].
CLAMP_TOL = 1e-12

COMMUTE_TOL = 1e-9
TAIL_TOL = 1e-6


@dataclass(frozen=True)
class MapSpec:
    kind: str
    power: int = 0
    offset: float = 0.0
    knots: tuple = ()
    maps: tuple = ()

    @cached_property
    def step(self):
        """The map as a one-argument function, compiled once per map."""
        return _compile(self)


_IDENTITY = MapSpec(kind="identity")


def identity() -> MapSpec:
    return _IDENTITY


def shift(power: int) -> MapSpec:
    if abs(power) > MAX_SHIFT:
        raise ValueError(f"shift power {power} exceeds bound {MAX_SHIFT}")
    return MapSpec(kind="shift", power=power)


def piecewise_linear(knots) -> MapSpec:
    pts = tuple((float(x), float(y)) for x, y in knots)
    if len(pts) < 2:
        raise ValueError("need at least two knots")
    # NaN passes the ascending check below
    if not all(math.isfinite(v) for knot in pts for v in knot):
        raise ValueError("knots must be finite numbers")
    xs = [x for x, _ in pts]
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise ValueError("knots must start at x=0 and end at x=1")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("knot x values must strictly ascend")
    if any(not (0.0 <= y <= 1.0) for _, y in pts):
        raise ValueError("knot values must lie in [0,1]")
    # a run too short for its rise makes an infinite slope, which steps to nan
    for a, b in zip(pts, pts[1:]):
        if not math.isfinite((b[1] - a[1]) / (b[0] - a[0])):
            raise ValueError(f"knots {a} and {b} make a slope that overflows")
    return MapSpec(kind="piecewise-linear", knots=pts)


def rotation(offset: float) -> MapSpec:
    if not math.isfinite(offset):
        raise ValueError(f"rotation offset {offset!r} is not a finite number")
    return MapSpec(kind="rotation", offset=float(offset) % 1.0)


def composition(maps) -> MapSpec:
    flat = []
    for m in maps:
        if m.kind == "composition":
            flat.extend(m.maps)
        else:
            flat.append(m)
    if not flat:
        raise ValueError("composition needs at least one map")
    if len(flat) == 1:
        return flat[0]
    return MapSpec(kind="composition", maps=tuple(flat))


@lru_cache(maxsize=None)
def _pwl_tables(knots: tuple):
    xs = tuple(x for x, _ in knots)
    ys = tuple(y for _, y in knots)
    slopes = tuple((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                   for i in range(len(knots) - 1))
    return xs, ys, slopes


def _pwl_step(knots: tuple):
    xs, ys, slopes = _pwl_tables(knots)
    last = len(slopes) - 1

    def step(x):
        # clamp x into [0, 1] and find its piece: the same bits as
        # min(1.0, max(0.0, x)) then bisecting, with the end pieces known
        if 0.0 < x < 1.0:
            i = bisect_right(xs, x) - 1
        elif -CLAMP_TOL <= x <= 0.0:
            x, i = 0.0, 0
        elif 1.0 <= x <= 1.0 + CLAMP_TOL:
            x, i = 1.0, last
        else:
            raise ValueError(f"point {x!r} outside [0,1]")
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

    return step


def _compile(m: MapSpec):
    if m.kind == "identity":
        return lambda x: x
    if m.kind == "shift":
        power = m.power
        return lambda x: x.shifted(power)
    if m.kind == "rotation":
        offset = m.offset
        return lambda x: (x + offset) % 1.0
    if m.kind == "piecewise-linear":
        return _pwl_step(m.knots)
    if m.kind == "composition":
        steps = tuple(g.step for g in m.maps)

        def step(x):
            for f in steps:
                x = f(x)
            return x

        return step
    raise ValueError(f"unknown map kind: {m.kind!r}")


def apply(m: MapSpec, x):
    """Evaluate one map at one point. Compositions apply members in list order."""
    return m.step(x)


def map_space(m: MapSpec):
    """The space a map acts on; None means it acts on anything (identity)."""
    if m.kind == "identity":
        return None
    if m.kind == "shift":
        return SYMBOLIC
    if m.kind == "rotation":
        return CIRCLE
    if m.kind == "piecewise-linear":
        return INTERVAL
    if m.kind == "composition":
        return _infer_space(m.maps)
    raise ValueError(f"unknown map kind: {m.kind!r}")


def map_net_shift(m: MapSpec) -> int:
    """Total coordinate shift of a map built only of shifts and identities."""
    if m.kind == "identity":
        return 0
    if m.kind == "shift":
        return m.power
    if m.kind == "composition":
        return sum(map_net_shift(g) for g in m.maps)
    raise ValueError(f"a {m.kind} map has no net shift")


def _preimages(m: MapSpec, v: float):
    if m.kind == "identity":
        return [v]
    if m.kind == "rotation":
        return [(v - m.offset) % 1.0]
    if m.kind == "piecewise-linear":
        xs, ys, slopes = _pwl_tables(m.knots)
        out = []
        for i, s in enumerate(slopes):
            if s == 0.0:
                continue
            x = xs[i] + (v - ys[i]) / s
            if xs[i] - CLAMP_TOL <= x <= xs[i + 1] + CLAMP_TOL:
                out.append(min(xs[i + 1], max(xs[i], x)))
        return out
    if m.kind == "composition":
        vals = [v]
        for g in reversed(m.maps):
            vals = [u for w in vals for u in _preimages(g, w)]
        return vals
    return []


def breakpoints(m: MapSpec) -> tuple:
    """Points of [0,1] where the map may kink, including pulled-back kinks
    of later composition stages."""
    if m.kind == "piecewise-linear":
        return tuple(x for x, _ in m.knots)
    if m.kind != "composition":
        return ()
    first, rest = m.maps[0], m.maps[1:]
    pts = set(breakpoints(first))
    if rest:
        tail = composition(rest)
        for v in breakpoints(tail):
            pts.update(_preimages(first, v))
    return tuple(sorted(p for p in pts if 0.0 <= p <= 1.0))


# ---------------------------------------------------------------------------
# Map sequences


# generator name -> (r -> tuple of MapSpec for block r), r = 1, 2, ...
BLOCK_GENERATORS: dict = {}


def register_block_generator(name: str, fn) -> None:
    if name in BLOCK_GENERATORS and BLOCK_GENERATORS[name] is not fn:
        raise ValueError(f"block generator {name!r} already registered")
    BLOCK_GENERATORS[name] = fn


@dataclass(frozen=True)
class MapSequence:
    """Map at each time step n >= 1 under one of four construction rules.

    cyclic: maps repeat with period len(maps).
    explicit-list: maps as listed; past the end, tail rule "hold" repeats
        the last map and "identity" pads with identities.
    block-structured: a registered generator emits block r for r = 1, 2, ...
        and time indices walk the concatenated blocks.
    kth-iterate: map n is the composition of maps k(n-1)+1 .. kn of base.

    The last two build each map once per sequence object: generator blocks
    are appended whole, iterates one composition at a time.

    ``space`` is the one space every map acts on. The constructors always
    set it: from a tag, from the maps, or from the first generator block.
    It is checked when the sequence is built and, for generated blocks, as
    each block is appended.
    """

    rule: str
    maps: tuple = ()
    tail: str = "identity"
    space: object = None
    generator_name: str = ""
    base: object = None
    k: int = 1

    @cached_property
    def _built(self) -> _Built:
        # maps 1 .. len of a block-structured or kth-iterate sequence
        return _Built()

    @cached_property
    def _shifts(self) -> list:
        # net shifts of the prefixes 0 .. len - 1, grown by net_shift_series
        return [0]


class _Built(list):
    blocks = 0  # generator blocks appended so far


def _grow(seq: MapSequence, built: _Built) -> None:
    """Append the next generator block, or the next k-th iterate."""
    if seq.rule == "block-structured":
        block = tuple(BLOCK_GENERATORS[seq.generator_name](built.blocks + 1))
        if not block:
            raise ValueError(
                f"generator {seq.generator_name!r} produced an empty block")
        acts_on = _infer_space(block)
        if acts_on not in (None, seq.space):
            raise ValueError(
                f"generator {seq.generator_name!r} block {built.blocks + 1} "
                f"acts on the {acts_on} space, not the sequence's "
                f"{seq.space} space")
        built.extend(block)
        built.blocks += 1
    else:
        n = len(built) + 1
        built.append(composition(map_at(seq.base, seq.k * (n - 1) + i)
                                 for i in range(1, seq.k + 1)))


def map_at(seq: MapSequence, n: int) -> MapSpec:
    if n < 1:
        raise ValueError("map indices start at 1")
    if seq.rule == "cyclic":
        return seq.maps[(n - 1) % len(seq.maps)]
    if seq.rule == "explicit-list":
        if n <= len(seq.maps):
            return seq.maps[n - 1]
        if seq.tail == "hold":
            return seq.maps[-1]
        if seq.tail == "identity":
            return _IDENTITY
        raise ValueError(f"unknown tail rule: {seq.tail!r}")
    if seq.rule in ("block-structured", "kth-iterate"):
        built = seq._built
        while len(built) < n:
            _grow(seq, built)
        return built[n - 1]
    raise ValueError(f"unknown sequence rule: {seq.rule!r}")


def _infer_space(maps) -> object:
    tag = None
    for m in maps:
        s = map_space(m)
        if s is not None:
            if tag is not None and tag != s:
                raise ValueError(f"maps act on different spaces: {tag}, {s}")
            tag = s
    return tag


def _checked_space(acts_on, tag) -> object:
    """The space of maps acting on ``acts_on``, where None means identities
    only; a given tag must agree, and identities alone need one."""
    if tag not in (None, INTERVAL, CIRCLE, SYMBOLIC):
        raise ValueError(f"unknown space tag {tag!r}")
    if tag is not None and acts_on not in (None, tag):
        raise ValueError(f"space tag {tag} disagrees with maps on the "
                         f"{acts_on} space")
    if tag is None and acts_on is None:
        raise ValueError("a sequence of identity maps needs a space tag")
    return tag or acts_on


def cyclic_sequence(maps, space=None) -> MapSequence:
    maps = tuple(maps)
    if not maps:
        raise ValueError("cyclic sequence needs at least one map")
    return MapSequence(rule="cyclic", maps=maps,
                       space=_checked_space(_infer_space(maps), space))


def explicit_sequence(maps, tail="identity", space=None) -> MapSequence:
    maps = tuple(maps)
    if not maps:
        raise ValueError("explicit sequence needs at least one map")
    if tail not in ("hold", "identity"):
        raise ValueError(f"unknown tail rule: {tail!r}")
    return MapSequence(rule="explicit-list", maps=maps, tail=tail,
                       space=_checked_space(_infer_space(maps), space))


def block_sequence(generator_name: str, space=None) -> MapSequence:
    """Untagged, the sequence takes the space of its first block; every
    later block is checked against it as it is built."""
    if generator_name not in BLOCK_GENERATORS:
        raise ValueError(f"unknown block generator: {generator_name!r}")
    first = tuple(BLOCK_GENERATORS[generator_name](1))
    return MapSequence(rule="block-structured", generator_name=generator_name,
                       space=_checked_space(_infer_space(first), space))


def generated_system(family) -> MapSequence:
    """The cyclic sequence f1, f2, ..., fk, f1, f2, ... over a finite family."""
    return cyclic_sequence(family)


def kth_iterate(seq: MapSequence, k: int) -> MapSequence:
    if k < 1:
        raise ValueError("k must be positive")
    return MapSequence(rule="kth-iterate", base=seq, k=k, space=seq.space)


def prefix_compose(seq: MapSequence, n: int, x):
    """Apply maps 1 .. n in order; n = 0 returns x unchanged."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for i in range(1, n + 1):
        x = apply(map_at(seq, i), x)
    return x


def orbit(seq: MapSequence, x, horizon: int) -> tuple:
    """Points at times 0 .. horizon; orbit[n] is the prefix of length n at x."""
    out = [x]
    for i in range(1, horizon + 1):
        x = map_at(seq, i).step(x)
        out.append(x)
    return tuple(out)


def net_shift_series(seq: MapSequence, horizon: int) -> list:
    """Cumulative shift after each prefix of a sequence of shifts.

    Entry n (0-based list index n) is the net displacement of the length-n
    prefix. Symbolic scans use this to reduce orbits to origin arithmetic.
    The totals are kept on the sequence, so each map is read once.
    """
    totals = seq._shifts
    for i in range(len(totals), horizon + 1):
        totals.append(totals[-1] + map_net_shift(map_at(seq, i)))
    return totals[:horizon + 1]


# ---------------------------------------------------------------------------
# Supremum metric and perturbation bounds


def _rotation_offset(m: MapSpec):
    """Net rotation if the map is built only of rotations, else None."""
    if m.kind == "identity":
        return 0.0
    if m.kind == "rotation":
        return m.offset
    if m.kind == "composition":
        total = 0.0
        for g in m.maps:
            s = _rotation_offset(g)
            if s is None:
                return None
            total = (total + s) % 1.0
        return total
    return None


def sup_metric(f: MapSpec, g: MapSpec) -> float:
    """Largest pointwise distance between two maps, exact for
    piecewise-linear maps and rotations: |f - g| of continuous
    piecewise-linear interval maps peaks at a breakpoint of f or g, and
    maps built of rotations are apart by a constant displacement."""
    space = _infer_space((f, g))
    if space is None:
        return 0.0
    if space == SYMBOLIC:
        raise ValueError("no finite point set is exact on the sequence space")
    of, og = _rotation_offset(f), _rotation_offset(g)
    if of is not None and og is not None:
        return circle_distance(of, og)
    points = set(breakpoints(f)) | set(breakpoints(g))
    return max(distance(space, apply(f, x), apply(g, x)) for x in points)


@dataclass(frozen=True)
class PerturbationReport:
    partial_sums: tuple
    converged: bool


def tail_sum(seq: MapSequence, f: MapSpec,
             n_terms: int) -> PerturbationReport:
    """Partial sums of sup_metric(f_i, f); convergence is flagged when the
    second half of the sum contributes less than ``TAIL_TOL``."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    sums = []
    total = 0.0
    for i in range(1, n_terms + 1):
        total += sup_metric(map_at(seq, i), f)
        sums.append(total)
    converged = n_terms >= 2 and (sums[-1] - sums[n_terms // 2 - 1]) < TAIL_TOL
    return PerturbationReport(partial_sums=tuple(sums), converged=converged)


class CommutationError(ValueError):
    def __init__(self, index: int, x: float, gap: float):
        self.index = index
        self.x = x
        self.gap = gap
        super().__init__(
            f"map {index} fails to commute with the reference map: "
            f"disagreement {gap:.3g} at x = {x!r}")


@lru_cache(maxsize=4096)
def _commutation_failure(space, f: MapSpec, g: MapSpec):
    """The first point (p, gap) of the grid where f and g fail to commute,
    or None. The grid is 17 even points plus both maps' breakpoints; the
    answer depends only on the maps, so each pair is checked once."""
    grid = set(grid_points(0.0, 1.0, 17)) | set(breakpoints(f))
    for p in sorted(grid | set(breakpoints(g))):
        gap = distance(space, apply(f, apply(g, p)), apply(g, apply(f, p)))
        if gap > COMMUTE_TOL:
            return p, gap
    return None


@dataclass(frozen=True)
class ShadowBoundRecord:
    lhs: float
    rhs: float
    ok: bool


def shadow_bound_check(seq: MapSequence, f: MapSpec, x, n: int,
                       k: int) -> ShadowBoundRecord:
    """Compare the true time-(n+k) point against k applications of the
    reference map from the time-n point; the bound is the summed map gaps.

    Requires every sequence map involved to commute with f (checked on a
    grid); the bound is meaningless otherwise.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    for i in range(1, n + k + 1):
        failure = _commutation_failure(seq.space, f, map_at(seq, i))
        if failure is not None:
            raise CommutationError(i, *failure)
    true_pt = shadow = prefix_compose(seq, n, x)
    rhs = 0.0
    for i in range(n + 1, n + k + 1):
        m = map_at(seq, i)
        true_pt, shadow = apply(m, true_pt), apply(f, shadow)
        rhs += sup_metric(m, f)
    lhs = distance(seq.space, true_pt, shadow)
    return ShadowBoundRecord(lhs=lhs, rhs=rhs, ok=lhs <= rhs + COMMUTE_TOL)


def feeble_open_probe(m: MapSpec, region, resolution: int) -> bool:
    """Whether the image of a sampled interval region contains an interval of
    length at least 1/resolution, exactly: the continuous image of [lo, hi]
    is [min, max] of the map over lo, hi and the breakpoints between."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if region.kind != "ball" or region.space != INTERVAL:
        raise ValueError("only interval ball regions are supported")
    space = map_space(m)
    if space not in (None, INTERVAL):
        raise ValueError("only interval-space maps are supported")
    lo = max(0.0, region.center - region.radius)
    hi = min(1.0, region.center + region.radius)
    if hi <= lo:
        return False
    values = [apply(m, c) for c in
              {lo, hi, *(b for b in breakpoints(m) if lo < b < hi)}]
    return max(values) - min(values) >= 1.0 / resolution


# ---------------------------------------------------------------------------
# JSON round trip


def map_to_dict(m: MapSpec) -> dict:
    if m.kind == "identity":
        return {"kind": "identity"}
    if m.kind == "shift":
        return {"kind": "shift", "power": m.power}
    if m.kind == "rotation":
        return {"kind": "rotation", "offset": m.offset}
    if m.kind == "piecewise-linear":
        return {"kind": "piecewise-linear", "knots": [list(k) for k in m.knots]}
    if m.kind == "composition":
        return {"kind": "composition", "maps": [map_to_dict(g) for g in m.maps]}
    raise ValueError(f"unknown map kind: {m.kind!r}")


def map_from_dict(d: dict) -> MapSpec:
    if not isinstance(d, dict):
        raise TypeError(f"a map must be an object, not {d!r}")
    kind = d.get("kind")
    if kind == "identity":
        return identity()
    if kind == "shift":
        return shift(int_value(d["power"], "power"))
    if kind == "rotation":
        return rotation(number_value(d["offset"], "offset"))
    if kind == "piecewise-linear":
        return piecewise_linear([[number_value(v, "knot") for v in knot]
                                 for knot in d["knots"]])
    if kind == "composition":
        return composition([map_from_dict(g) for g in d["maps"]])
    raise ValueError(f"unknown map kind: {kind!r}")


def sequence_to_dict(seq: MapSequence) -> dict:
    out = {"rule": seq.rule, "space": seq.space}
    if seq.rule in ("cyclic", "explicit-list"):
        out["maps"] = [map_to_dict(m) for m in seq.maps]
        if seq.rule == "explicit-list":
            out["tail"] = seq.tail
    elif seq.rule == "block-structured":
        out["generator"] = seq.generator_name
    elif seq.rule == "kth-iterate":
        out["k"] = seq.k
        out["base"] = sequence_to_dict(seq.base)
    return out


def sequence_from_dict(d: dict) -> MapSequence:
    if not isinstance(d, dict):
        raise TypeError(f"a sequence must be an object, not {d!r}")
    rule = d.get("rule")
    space = d.get("space")
    if rule == "cyclic":
        return cyclic_sequence([map_from_dict(m) for m in d["maps"]], space=space)
    if rule == "explicit-list":
        return explicit_sequence([map_from_dict(m) for m in d["maps"]],
                                 tail=d.get("tail", "identity"), space=space)
    if rule == "block-structured":
        return block_sequence(d["generator"], space=space)
    if rule == "kth-iterate":
        base = sequence_from_dict(d["base"])
        _checked_space(base.space, space)
        return kth_iterate(base, int_value(d["k"], "k"))
    raise ValueError(f"unknown sequence rule: {rule!r}")
