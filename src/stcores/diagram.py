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

from .abacus import core, core_from_s_set
from .alcoves import SPoint, sset_of_point
from .errors import DomainError, _Value, _set, check_int, check_pair, check_scan
from .partitions import Partition

_UX = 15  # pixels per unit of u - v
_UY = 26  # pixels per unit of u + v
_MARGIN = 20


class RenderSpec(_Value):
    """Parameters for the alcove diagram."""

    def __init__(self, s: int, depth: int, mode: str, t: int | None = None) -> None:
        _set(self, "s", s)
        _set(self, "depth", depth)
        _set(self, "mode", mode)
        _set(self, "t", t)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_int(self.s, "s")
        if self.s != 3:
            raise DomainError("rendering is only implemented for s = 3")
        check_int(self.depth, "depth", 1)
        if self.mode not in ("cores", "tcores"):
            raise DomainError(f"mode must be 'cores' or 'tcores', got {self.mode!r}")
        if self.mode == "tcores":
            if self.t is None:
                raise DomainError("tcores mode needs t")
            check_pair(self.s, self.t)
        # row d holds d // 2 + 1 alcoves, whose points all have the same span,
        # growing with d; each alcove's core has fewer than span^2 boxes to
        # draw, and in tcores mode it is also repacked on t runners.  The
        # deepest row's Alcove(m, 0, not odd) has gaps (3m + k, k), k = 1 + odd.
        m, odd = divmod(self.depth - 1, 2)
        span = 3 * m + 2 + 2 * odd
        alcoves = (self.depth + 1) // 2 * ((self.depth + 2) // 2)
        per_alcove = span * span + (self.t if self.mode == "tcores" else 0)
        check_scan(alcoves * per_alcove, f"diagram of {alcoves} alcoves")


class Alcove(_Value):
    """A dominant alcove of P^3, addressed by its wall floors.

    a = floor(u/3), b = floor(v/3) for the gaps (u, v) of its dominant point;
    up-triangles have u + v below the next level wall, down-triangles above.
    """

    def __init__(self, a: int, b: int, up: bool) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "up", up)

    @property
    def depth(self) -> int:
        return 2 * (self.a + self.b) + (0 if self.up else 1)

    def point(self) -> SPoint:
        k = 1 if self.up else 2
        u, v = 3 * self.a + k, 3 * self.b + k
        first = -(2 * self.a + self.b + k - 1)
        return SPoint((first, first + u, first + u + v))

    def _pixel(self, du: int, dv: int) -> tuple[int, int]:
        """Pixel (unshifted) of the gaps (3a + du, 3b + dv)."""
        u, v = 3 * self.a + du, 3 * self.b + dv
        return _UX * (u - v), _UY * (u + v)

    def triangle(self) -> list[tuple[int, int]]:
        """Vertex pixel coordinates (unshifted)."""
        if self.up:
            return [self._pixel(0, 0), self._pixel(3, 0), self._pixel(0, 3)]
        return [self._pixel(3, 3), self._pixel(3, 0), self._pixel(0, 3)]

    def centroid(self) -> tuple[int, int]:
        return self._pixel(1, 1) if self.up else self._pixel(2, 2)


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
        lam = core_from_s_set(sset_of_point(alc.point()))
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
    half = 3 * _UX * ((spec.depth - 1) // 2 + 1)
    shift_x = half + _MARGIN
    height = 3 * _UY * ((spec.depth - 1) // 2 + 2) + 2 * _MARGIN
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
