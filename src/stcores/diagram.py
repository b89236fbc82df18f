"""Deterministic SVG rendering of dominant alcoves of P^3 with core labels.

Only s = 3 is rendered: the dominant region is then a planar wedge and each
alcove an up- or down-pointing triangle.  An alcove at depth d (= number of
hyperplanes separating it from the fundamental alcove) sits in "row" d of
the picture, fundamental alcove on top, matching the usual orientation.

The lattice geometry is exact: a dominant point with consecutive gaps (u, v)
maps to pixel x = 15(u - v), y = 26(u + v), which makes all three hyperplane
families straight lines and every emitted coordinate an integer.  Output is
a pure function of the inputs, hence byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abacus import core, core_from_s_set, make_sset
from .alcoves import SPoint
from .errors import DomainError, check_pair
from .partitions import Partition

_UX = 15  # pixels per unit of u - v
_UY = 26  # pixels per unit of u + v
_MARGIN = 20


@dataclass(frozen=True)
class RenderSpec:
    """Parameters for the alcove diagram."""

    s: int
    depth: int
    mode: str
    t: int | None = None

    def __post_init__(self) -> None:
        if self.s != 3:
            raise DomainError("rendering is only implemented for s = 3")
        if self.depth < 1:
            raise DomainError("depth must be at least 1")
        if self.mode not in ("cores", "tcores"):
            raise DomainError(f"mode must be 'cores' or 'tcores', got {self.mode!r}")
        if self.mode == "tcores":
            if self.t is None:
                raise DomainError("tcores mode needs t")
            check_pair(self.s, self.t)


@dataclass(frozen=True)
class Alcove:
    """A dominant alcove of P^3, addressed by its wall floors.

    a = floor(u/3), b = floor(v/3) for the gaps (u, v) of its dominant point;
    up-triangles have u + v below the next level wall, down-triangles above.
    """

    a: int
    b: int
    up: bool

    @property
    def depth(self) -> int:
        return 2 * (self.a + self.b) + (0 if self.up else 1)

    def point(self) -> SPoint:
        if self.up:
            u, v = 3 * self.a + 1, 3 * self.b + 1
            first = -(2 * self.a + self.b)
        else:
            u, v = 3 * self.a + 2, 3 * self.b + 2
            first = -(2 * self.a + self.b + 1)
        return SPoint((first, first + u, first + u + v))

    def triangle(self) -> list[tuple[int, int]]:
        """Vertex pixel coordinates (unshifted)."""
        x0 = 45 * (self.a - self.b)
        y0 = 78 * (self.a + self.b)
        if self.up:
            return [(x0, y0), (x0 + 45, y0 + 78), (x0 - 45, y0 + 78)]
        return [(x0, y0 + 156), (x0 + 45, y0 + 78), (x0 - 45, y0 + 78)]

    def centroid(self) -> tuple[int, int]:
        x0 = 45 * (self.a - self.b)
        y0 = 78 * (self.a + self.b)
        return (x0, y0 + 52) if self.up else (x0, y0 + 104)


def dominant_alcoves(depth: int) -> list[Alcove]:
    """All dominant alcoves at depth < depth (that many rows), top to bottom."""
    out = []
    for d in range(depth):
        m, odd = divmod(d, 2)
        out.extend(Alcove(a, m - a, not odd) for a in range(m + 1))
    return out


def alcove_labels(spec: RenderSpec) -> list[tuple[Alcove, Partition]]:
    """The partition drawn in each rendered alcove."""
    labels = []
    for alc in dominant_alcoves(spec.depth):
        lam = core_from_s_set(make_sset(3, alc.point().coords))
        if spec.mode == "tcores":
            lam = core(lam, spec.t)
        labels.append((alc, lam))
    return labels


def _young_rects(lam: Partition, cx: int, cy: int) -> list[str]:
    if not lam.parts:
        return []
    rows = len(lam.parts)
    cols = lam.parts[0]
    cell = max(1, min(8, 36 // max(rows, cols)))
    x0 = cx - cell * cols // 2
    y0 = cy - cell * rows // 2
    return [
        f'<rect x="{x0 + cell * (j - 1)}" y="{y0 + cell * (i - 1)}" '
        f'width="{cell}" height="{cell}" class="bx"/>'
        for i, part in enumerate(lam.parts, start=1)
        for j in range(1, part + 1)
    ]


def render_svg(spec: RenderSpec) -> str:
    """The diagram as an SVG 1.1 document (a pure function of spec)."""
    labels = alcove_labels(spec)
    half = 45 * ((spec.depth - 1) // 2 + 1)
    shift_x = half + _MARGIN
    height = 78 * ((spec.depth - 1) // 2 + 2) + 2 * _MARGIN
    width = 2 * half + 2 * _MARGIN
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        "<style>.al{fill:none;stroke:#000;stroke-width:1}"
        ".bx{fill:#fff;stroke:#000;stroke-width:1}</style>",
    ]
    for alc, lam in labels:
        pts = " ".join(f"{x + shift_x},{y + _MARGIN}" for x, y in alc.triangle())
        lines.append(f'<polygon points="{pts}" class="al"/>')
        cx, cy = alc.centroid()
        lines.extend(_young_rects(lam, cx + shift_x, cy + _MARGIN))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
