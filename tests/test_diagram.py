import xml.etree.ElementTree as ET

import pytest

from stcores import DomainError
from stcores.abacus import core
from stcores.alcoves import Hyperplane, fold_to_dominant, reflect
from stcores.diagram import RenderSpec, alcove_labels, dominant_alcoves, render_svg
from stcores.orbits import enumerate_st_cores
from stcores.partitions import Partition, from_text

# Young diagrams drawn inside the dominant alcoves of P^3, row by row,
# left to right, as in the published correspondence picture.
FIGURE_ONE_ROWS = [
    [""],
    ["1"],
    ["2", "1,1"],
    ["3,1", "2,1,1"],
    ["4,2", "3,1,1", "2,2,1,1"],
    ["5,3,1", "4,2,1,1", "3,2,2,1,1"],
    ["6,4,2", "5,3,1,1", "4,2,2,1,1", "3,3,2,2,1,1"],
]


def rows_of_labels(spec: RenderSpec) -> list[list[Partition]]:
    rows: list[list[Partition]] = [[] for _ in range(spec.depth)]
    for alc, lam in alcove_labels(spec):
        rows[alc.depth].append(lam)
    return rows


def test_spec_validation():
    with pytest.raises(DomainError):
        RenderSpec(s=4, depth=3, mode="cores")
    with pytest.raises(DomainError):
        RenderSpec(s=3, depth=0, mode="cores")
    with pytest.raises(DomainError):
        RenderSpec(s=3, depth=3, mode="tcores", t=6)
    with pytest.raises(DomainError):
        RenderSpec(s=3, depth=3, mode="tcores", t=-2)
    with pytest.raises(DomainError):
        RenderSpec(s=3, depth=3, mode="squares")


def test_depth_is_capped_by_alcove_count_and_span():
    """Depth 64 has 1,056 alcoves of span at most 97: 9,935,904 < 10^7, admitted;
    depth 65 has 1,089 of span at most 98 and is refused, as is a t whose
    runners alone exceed the cap."""
    RenderSpec(s=3, depth=64, mode="cores")
    RenderSpec(s=3, depth=40, mode="tcores", t=4)
    with pytest.raises(DomainError, match="diagram of 1089 alcoves"):
        RenderSpec(s=3, depth=65, mode="cores")
    with pytest.raises(DomainError, match="cap"):
        RenderSpec(s=3, depth=1, mode="tcores", t=9_999_998)


def test_depth_one_is_the_fundamental_alcove():
    labels = alcove_labels(RenderSpec(s=3, depth=1, mode="cores"))
    assert len(labels) == 1
    assert labels[0][1] == Partition()


def test_cores_mode_matches_figure_grid():
    spec = RenderSpec(s=3, depth=7, mode="cores")
    got = rows_of_labels(spec)
    expected = [[from_text(text) for text in row] for row in FIGURE_ONE_ROWS]
    assert got == expected


def test_row_population_matches_alcove_counts():
    for depth in (1, 4, 9):
        alcoves = dominant_alcoves(depth)
        assert len({a.point() for a in alcoves}) == len(alcoves)
        for alc in alcoves:
            assert alc.depth < depth


def test_tcores_mode_renders_only_st_cores():
    spec = RenderSpec(s=3, depth=8, mode="tcores", t=4)
    st_cores = set(enumerate_st_cores(3, 4))
    labels = alcove_labels(spec)
    assert {lam for _, lam in labels} <= st_cores
    # deep enough regions show every (3,4)-core
    assert {lam for _, lam in labels} == st_cores


def test_tcores_mode_mirror_symmetry():
    """Reflecting in the level-t affine wall preserves the t-core labels."""
    t = 4
    spec = RenderSpec(s=3, depth=9, mode="tcores", t=t)
    by_point = {alc.point(): lam for alc, lam in alcove_labels(spec)}
    wall = Hyperplane(1, 3, t)
    checked = 0
    for p, lam in by_point.items():
        q = fold_to_dominant(reflect(p, wall))
        if q in by_point and q != p:
            assert by_point[q] == lam
            checked += 1
    assert checked > 10


def test_cores_mode_labels_agree_with_q_sets():
    from stcores.abacus import q_set

    for alc, lam in alcove_labels(RenderSpec(s=3, depth=9, mode="cores")):
        assert q_set(lam, 3).sorted_elements() == alc.point().coords


def test_svg_is_deterministic_and_well_formed():
    spec = RenderSpec(s=3, depth=6, mode="tcores", t=4)
    svg1 = render_svg(spec)
    svg2 = render_svg(spec)
    assert svg1 == svg2
    root = ET.fromstring(svg1)
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
    assert len(polygons) == len(dominant_alcoves(6))
