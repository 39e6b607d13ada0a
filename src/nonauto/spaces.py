"""Phase spaces, metrics, and finite sample covers.

Four kinds of points move through the rest of the package: floats on the
unit interval, floats on the unit circle, two-sided binary sequences with a
finite sampled window, and finite subsets of the interval or the circle.
Every consumer goes through ``distance`` (``hausdorff`` for subsets) so the
choice of metric lives here and nowhere else. A sequence point carries its
window as two integer bit codes, so the sequence metric is exact integer
arithmetic rounded once, and keeps no cache of its own.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field

import numpy as np

# Tolerance for treating two sampled points as the same point.
DEDUP_TOL = 1e-12

# Default half-width of the sampled window of a binary sequence. Shifts
# consume window on one side, so this must comfortably exceed the largest
# net shift a probe will ever apply.
WINDOW_RADIUS = 64

# Cylinder samples only pin coordinates out to this index by default.
CYLINDER_MARGIN = 8

# A distance between binary sequences needs at least this much shared window.
MIN_COMMON_RADIUS = 1

INTERVAL = "interval"
CIRCLE = "circle"
SYMBOLIC = "symbolic"


@dataclass(frozen=True, slots=True)
class SymbolicPoint:
    """A two-sided binary sequence sampled on a finite window of ``size``
    coordinates ``-origin .. size-1-origin``; anything outside it reads as 0.

    Bit k of ``fwd`` is coordinate k - origin, and ``rev`` holds the same
    bits mirrored. Build one with ``symbolic_from_code``. Shifting moves the
    origin, not the codes, so iteration is O(1) and points from a common
    orbit share them. ``rev`` takes no part in equality, hashing or repr.
    """

    fwd: int
    rev: int = field(compare=False, repr=False)
    origin: int
    size: int

    def coord(self, j: int) -> int:
        k = self.origin + j
        return (self.fwd >> k) & 1 if 0 <= k < self.size else 0

    def shifted(self, k: int) -> "SymbolicPoint":
        # shifted(1).coord(j) == coord(j+1): the left shift.
        return SymbolicPoint(self.fwd, self.rev, self.origin + k, self.size)

    @property
    def radius(self) -> int:
        return min(self.origin, self.size - 1 - self.origin)


def symbolic_from_code(code: int, radius: int) -> SymbolicPoint:
    """The sequence point whose window ``-radius .. radius`` holds ``code``,
    bit k at coordinate k - radius; its mirror ``rev`` is built once here."""
    # numpy integers would wrap in the shifts of the metric
    code, radius = operator.index(code), operator.index(radius)
    if radius < MIN_COMMON_RADIUS:
        raise ValueError(f"radius must be at least {MIN_COMMON_RADIUS}")
    size = 2 * radius + 1
    if code >> size:
        raise ValueError(f"code {code} does not fit radius {radius}")
    return SymbolicPoint(code, int(f"{code:0{size}b}"[::-1], 2), radius, size)


def make_symbolic(assignments: dict | None = None, radius: int = WINDOW_RADIUS,
                  fill: int = 0) -> SymbolicPoint:
    """Build a sequence point from sparse coordinate assignments.

    Unassigned coordinates inside the window take ``fill``; everything
    outside the window reads as 0 regardless.
    """
    if radius < MIN_COMMON_RADIUS:
        raise ValueError(f"radius must be at least {MIN_COMMON_RADIUS}")
    if fill not in (0, 1):
        raise ValueError("fill must be 0 or 1")
    # numpy integers would wrap in the shifts below
    radius = operator.index(radius)
    code = (1 << 2 * radius + 1) - 1 if fill else 0
    for j, v in (assignments or {}).items():
        j = operator.index(j)
        if abs(j) > radius:
            raise ValueError(f"coordinate {j} outside window radius {radius}")
        if v not in (0, 1):
            raise ValueError(f"coordinate value must be 0 or 1, got {v!r}")
        if v != fill:
            code ^= 1 << (radius + j)
    return symbolic_from_code(code, radius)


def dist_interval(a, b):
    return abs(a - b)


def circle_distance(a, b):
    """Arc length between points of [0, 1); elementwise on numpy arrays.

    Arrays reduce the gap with ``np.fmod``, floats with ``%``, and floats
    stay off numpy entirely. For a gap d >= 0 both give the exact d mod 1,
    so an array result equals the scalar results bitwise.
    """
    d = abs(a - b)
    if isinstance(d, np.ndarray):
        d = np.fmod(d, 1.0)
        return np.minimum(d, 1.0 - d)
    d %= 1.0
    return min(d, 1.0 - d)


def dist_symbolic(x: SymbolicPoint, y: SymbolicPoint) -> float:
    """Weighted coordinate distance over the shared sampled window.

    Coordinates at index j carry weight 2**-|j|. Truncating to the shared
    window under-reports by at most ``symbolic_truncation_bound``. The sum
    is taken exactly as the integer sum of 2**(w-|j|) over unequal j and
    rounded once by int true division, which stays correct past w = 1023,
    where a float of the sum would overflow. Bit i of ``left`` is
    coordinate i - w (j < 0); bit i of ``right`` is coordinate w - i.
    """
    ox, oy = x.origin, y.origin
    ex, ey = x.size - 1 - ox, y.size - 1 - oy
    w = min(ox, ex, oy, ey)
    if w < MIN_COMMON_RADIUS:
        raise ValueError("points have drifted past their sampled windows")
    left = ((x.fwd >> (ox - w)) ^ (y.fwd >> (oy - w))) & ((1 << w) - 1)
    right = ((x.rev >> (ex - w)) ^ (y.rev >> (ey - w))) & ((2 << w) - 1)
    return (left + right) / (1 << w)


def symbolic_truncation_bound(x: SymbolicPoint, y: SymbolicPoint) -> float:
    w = min(x.radius, y.radius)
    return 2.0 ** (1 - w)


@dataclass(frozen=True)
class FiniteSubset:
    """A finite subset with a canonical element order. Build via finite_subset."""

    elements: tuple
    space: object

    def __len__(self) -> int:
        return len(self.elements)


def element_sort_key(space, p):
    if space in (INTERVAL, CIRCLE):
        return (p,)
    if space == SYMBOLIC:
        # coordinates -r .. r as digits, -r first, as coord() would read
        # them: bit i of rev >> (size-1-origin-r) is coordinate r - i
        r, width = p.radius, 2 * p.radius + 1
        window = (p.rev >> (p.size - 1 - p.origin - r)) & ((1 << width) - 1)
        return f"{window:0{width}b}"
    raise ValueError(f"no canonical order for elements of {space!r}")


def check_point(space, p, what: str = "point") -> None:
    """Refuse ``p`` as a point of the interval (outside [0, 1], NaN
    included), of the circle (not finite) or of the sequence space (a
    window shifted past ``MIN_COMMON_RADIUS``); ``what`` names it."""
    if space == INTERVAL and not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} {p!r} lies outside [0, 1]")
    if space == CIRCLE and not abs(p) < np.inf:
        raise ValueError(f"{what} {p!r} is not a finite number")
    if space == SYMBOLIC and p.radius < MIN_COMMON_RADIUS:
        raise ValueError(f"{what} {p!r} has drained its window: radius "
                         f"{p.radius} is below {MIN_COMMON_RADIUS}")


def int_value(v, what: str) -> int:
    """``v`` if it is an int, never a bool, a string or a float; ``what``
    names it. The value's owner checks its range."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, not {v!r}")
    return v


def number_value(v, what: str) -> float:
    """``float(v)`` for a finite int or float, never a bool or a string."""
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, not {v!r}")
    return float(v)


def finite_subset(elements, space) -> FiniteSubset:
    """Sort and deduplicate, so equal sets compare equal as tuples."""
    items = sorted(elements, key=lambda p: element_sort_key(space, p))
    if not items:
        raise ValueError("a finite subset needs at least one element")
    kept = []
    for p in items:
        check_point(space, p)
        if all(distance(space, p, q) > DEDUP_TOL for q in kept):
            kept.append(p)
    return FiniteSubset(tuple(kept), space)


def hausdorff_array(space, a, b) -> np.ndarray:
    """Hausdorff distance between element arrays along the leading axis.

    ``a`` and ``b`` hold interval or circle elements, shaped (m, ...) and
    (k, ...): element e of every subset is the slice ``a[e]``, and the
    trailing axes broadcast. Repeated elements never change the value, so
    ragged subsets can be padded with a copy of any element.
    """
    # each element pair's distance folds into the running minimum of its
    # row (forward) and of its column (backward), in place, so at most
    # k + 2 distance arrays are alive at once; min/max are exact in any
    # order
    forward, backward = None, [None] * len(b)
    for x in a:
        near = None
        for j, y in enumerate(b):
            d = distance(space, x, y)
            near = (np.array(d) if near is None
                    else np.minimum(near, d, out=near))
            backward[j] = (np.asarray(d) if backward[j] is None
                           else np.minimum(backward[j], d, out=backward[j]))
        forward = (near if forward is None
                   else np.maximum(forward, near, out=forward))
    for far in backward:
        np.maximum(forward, far, out=forward)
    return forward


def hausdorff(a: FiniteSubset, b: FiniteSubset) -> float:
    if a.space != b.space:
        raise ValueError("subsets live in different spaces")
    if a.space not in (INTERVAL, CIRCLE):
        raise ValueError("Hausdorff distance needs an interval or circle base")
    return float(hausdorff_array(a.space, a.elements, b.elements))


def distance(space, a, b):
    """The metric of ``space``; interval and circle also take numpy arrays."""
    if space == INTERVAL:
        return dist_interval(a, b)
    if space == CIRCLE:
        return circle_distance(a, b)
    if space == SYMBOLIC:
        return dist_symbolic(a, b)
    raise ValueError(f"unknown space: {space!r}")


# ---------------------------------------------------------------------------
# Regions and sample covers


@dataclass(frozen=True)
class Region:
    kind: str
    space: object
    center: object = None
    radius: float = 0.0
    constraints: tuple = ()
    margin: int = CYLINDER_MARGIN
    label: str = ""


def metric_ball(space, center, radius: float, label: str = "") -> Region:
    """An open ball of the interval or the circle; an interval ball is
    centered in [0, 1]."""
    if space not in (INTERVAL, CIRCLE):
        raise ValueError(f"metric balls need an interval or circle space, "
                         f"not {space!r}")
    if not 0 < radius < np.inf:
        raise ValueError(f"ball radius must be positive and finite, "
                         f"not {radius!r}")
    check_point(space, center, "ball center")
    return Region(kind="ball", space=space, center=center, radius=radius,
                  label=label)


def cylinder_region(constraints, margin: int = CYLINDER_MARGIN,
                    label: str = "") -> Region:
    """All sequences agreeing with ``constraints`` on the pinned coordinates."""
    items = tuple(sorted(dict(constraints).items()))
    for j, v in items:
        if v not in (0, 1):
            raise ValueError(f"coordinate value must be 0 or 1, got {v!r}")
        if abs(j) > WINDOW_RADIUS:
            raise ValueError(f"constraint index {j} outside representable window")
    return Region(kind="cylinder", space=SYMBOLIC, constraints=items,
                  margin=margin, label=label)


def hausdorff_ball(center: FiniteSubset, radius: float, label: str = "") -> Region:
    """Subsets within ``radius`` of ``center``; the ball around each element
    must be a metric ball of the subsets' space."""
    if not center.elements:
        raise ValueError("a Hausdorff ball needs a nonempty center")
    for e in center.elements:
        metric_ball(center.space, e, radius)
    return Region(kind="hausdorff-ball", space=center.space,
                  center=center, radius=radius, label=label)


def region_contains(region: Region, point) -> bool:
    if region.kind == "ball":
        return distance(region.space, region.center, point) < region.radius
    if region.kind == "cylinder":
        return all(point.coord(j) == v for j, v in region.constraints)
    if region.kind == "hausdorff-ball":
        return hausdorff(region.center, point) < region.radius
    raise ValueError(f"unknown region kind: {region.kind!r}")


def grid_points(lo: float, hi: float, count: int) -> list:
    # Endpoint grid. Written so that doubling count-1 keeps every old node
    # bitwise identical: i/(2n) == (i/2)/n exactly in binary floating point.
    if count < 2:
        raise ValueError("a grid needs at least two points")
    den = count - 1
    return [lo + (hi - lo) * (i / den) for i in range(count)]


def _ball_values(space, center, radius: float, count: int) -> tuple:
    """Endpoint grid over an interval or circle ball, sorted and deduplicated.

    The interval grid is clipped to [0, 1]; the circle grid wraps.
    """
    if space == INTERVAL:
        lo = max(0.0, center - radius)
        hi = min(1.0, center + radius)
        pts = grid_points(lo, hi, count)
    else:
        grid = grid_points(center - radius, center + radius, count)
        pts, center = [v % 1.0 for v in grid], center % 1.0
    # Snap near-misses onto the center so it survives deduplication exactly.
    pts = [center if distance(space, v, center) <= DEDUP_TOL else v
           for v in pts]
    pts.append(center)
    pts.sort()
    kept = []
    for v in pts:
        if not kept or distance(space, v, kept[-1]) > DEDUP_TOL:
            kept.append(v)
    # a circle grid can wrap its last node onto its first
    if len(kept) > 1 and distance(space, kept[0], kept[-1]) <= DEDUP_TOL:
        kept.pop()
    return tuple(kept)


def _sample_cylinder(region: Region, resolution: int):
    pinned = dict(region.constraints)
    c_max = max((j for j in pinned), default=0)
    free = [j for j in range(max(c_max, 0) + 1, region.margin + 1)]
    points = [make_symbolic(pinned)]
    if free:
        cap = max(2, resolution - len(free) - 2)
        head = 0
        while head < len(free) and 2 ** (head + 1) <= cap:
            head += 1
        for mask in range(2 ** head):
            extra = {free[i]: (mask >> i) & 1 for i in range(head)}
            points.append(make_symbolic({**pinned, **extra}))
        for j in free:
            points.append(make_symbolic({**pinned, j: 1}))
        points.append(make_symbolic({**pinned, **{j: 1 for j in free}}))
    return tuple(sorted(dict.fromkeys(points),
                        key=lambda p: element_sort_key(SYMBOLIC, p)))


def _sample_hausdorff_ball(region: Region, resolution: int):
    center: FiniteSubset = region.center
    base = center.space
    k = len(center.elements)
    per = max(2, resolution // k)
    subsets = {center.elements: center}
    for i, e in enumerate(center.elements):
        for v in _ball_values(base, e, region.radius, per):
            elems = list(center.elements)
            elems[i] = v
            s = finite_subset(elems, base)
            subsets.setdefault(s.elements, s)
    ordered = sorted(subsets.values(),
                     key=lambda s: tuple(element_sort_key(base, p)
                                         for p in s.elements))
    return tuple(ordered)


def sample_region(region: Region, resolution: int):
    """A deterministic finite sample of a region, densest-first friendly.

    Interval and circle balls use endpoint grids, so rerunning with
    resolution 2r-1 reproduces every point of the resolution-r sample
    bitwise. Cylinders enumerate coordinate patterns out to the margin.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if region.kind == "ball":
        out = _ball_values(region.space, region.center, region.radius,
                           resolution)
    elif region.kind == "cylinder":
        out = _sample_cylinder(region, resolution)
    elif region.kind == "hausdorff-ball":
        out = _sample_hausdorff_ball(region, resolution)
    else:
        raise ValueError(f"cannot sample region kind {region.kind!r} "
                         f"over {region.space!r}")
    if not out:
        raise ValueError("region sample came out empty")
    return out
