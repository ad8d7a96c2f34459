import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gnar.autocorr import CorbitGrid, corbit_grid
from gnar.corbit_svg import RenderOptions, render_corbit, render_rcorbit, value_colour
from gnar.errors import GnarError
from gnar.panel import TimeSeriesPanel, default_node_labels

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    return ET.fromstring(svg_text)


def by_class(root, cls):
    return [el for el in root.iter() if el.get("class") == cls]


def plain_grid(values, degenerate=None):
    values = np.asarray(values, dtype=float)
    H, R = values.shape
    if degenerate is None:
        degenerate = np.zeros((H, R), dtype=bool)
    return CorbitGrid(kind="nacf", values=values, degenerate=degenerate)


def community_grid(values, labels):
    values = np.asarray(values, dtype=float)
    return CorbitGrid(kind="pnacf", values=values, degenerate=np.zeros(values.shape, dtype=bool),
                      communities=tuple(labels))


def test_corbit_counting_contract():
    rng = np.random.default_rng(0)
    grid = plain_grid(rng.uniform(-1, 1, size=(8, 3)))
    root = parse(render_corbit(grid))
    assert len(by_class(root, "corbit-point")) == 24
    assert len(by_class(root, "ring-guide")) == 3
    assert len(by_class(root, "lag-label")) == 8
    assert len(by_class(root, "zero-marker")) == 1


def test_corbit_data_attributes_round_trip():
    rng = np.random.default_rng(1)
    values = rng.uniform(-1, 1, size=(4, 2))
    grid = plain_grid(values)
    root = parse(render_corbit(grid))
    seen = {}
    for el in by_class(root, "corbit-point"):
        h, r = int(el.get("data-lag")), int(el.get("data-stage"))
        seen[(h, r)] = float(el.get("data-value"))
    assert len(seen) == 8
    for h in range(1, 5):
        for r in range(1, 3):
            assert seen[(h, r)] == values[h - 1, r - 1]


def test_all_zero_grid_neutral_colour_min_radius():
    grid = plain_grid(np.zeros((3, 2)))
    opts = RenderOptions()
    root = parse(render_corbit(grid, opts))
    for el in by_class(root, "corbit-point"):
        assert el.get("fill") == value_colour(0.0, opts)
        assert float(el.get("r")) == opts.point_radius_min


def test_degenerate_cells_render_hollow():
    values = np.zeros((2, 2))
    deg = np.zeros((2, 2), dtype=bool)
    deg[0, 0] = True
    root = parse(render_corbit(plain_grid(values, deg)))
    hollow = [el for el in by_class(root, "corbit-point")
              if el.get("data-degenerate") == "1"]
    assert len(hollow) == 1
    assert hollow[0].get("fill") == "none"


def test_corbit_rejects_community_grid():
    grid = community_grid(np.zeros((2, 3, 2)), ["a", "b"])
    with pytest.raises(GnarError):
        render_corbit(grid)


def test_rcorbit_counting_contract():
    rng = np.random.default_rng(2)
    grid = community_grid(rng.uniform(-1, 1, size=(2, 8, 3)), ["K1", "K2"])
    root = parse(render_rcorbit(grid))
    assert len(by_class(root, "rcorbit-point")) == 48
    assert len(by_class(root, "rcorbit-mean")) == 24
    assert len(by_class(root, "ring-guide")) == 3
    assert len(by_class(root, "lag-label")) == 8


def test_rcorbit_legend_in_partition_order():
    grid = community_grid(np.zeros((3, 2, 2)), ["Red", "Blue", "Swing"])
    root = parse(render_rcorbit(grid))
    labels = [el.text for el in by_class(root, "legend-label")]
    assert labels == ["Red", "Blue", "Swing"]


def test_rcorbit_equal_values_match_mean_colour():
    values = np.full((2, 3, 2), 0.4)
    grid = community_grid(values, ["a", "b"])
    opts = RenderOptions()
    root = parse(render_rcorbit(grid, opts))
    means = {(el.get("data-lag"), el.get("data-stage")): el.get("fill")
             for el in by_class(root, "rcorbit-mean")}
    for el in by_class(root, "rcorbit-point"):
        assert el.get("fill") == means[(el.get("data-lag"), el.get("data-stage"))]


def test_rcorbit_rejects_single_community():
    grid = community_grid(np.zeros((1, 2, 2)), ["only"])
    with pytest.raises(GnarError):
        render_rcorbit(grid)


def test_rendering_is_byte_deterministic(fivenet, fivenet_weights,
                                         fivenet_partition):
    rng = np.random.default_rng(3)
    panel = TimeSeriesPanel(rng.normal(size=(5, 30)), default_node_labels(5),
                            [str(t) for t in range(30)])
    grid = corbit_grid(panel, fivenet, fivenet_weights, 8, 3, "pnacf",
                       fivenet_partition)
    a = render_rcorbit(grid)
    b = render_rcorbit(grid)
    assert a.encode() == b.encode()
    plain = corbit_grid(panel, fivenet, fivenet_weights, 8, 3, "nacf")
    assert render_corbit(plain).encode() == render_corbit(plain).encode()


def test_every_point_inside_canvas():
    rng = np.random.default_rng(4)
    grid = community_grid(rng.uniform(-1, 1, size=(3, 8, 3)), ["a", "b", "c"])
    opts = RenderOptions()
    root = parse(render_rcorbit(grid, opts))
    for el in root.iter():
        if el.get("class") in ("rcorbit-point", "rcorbit-mean", "corbit-point"):
            x, y, r = (float(el.get(k)) for k in ("cx", "cy", "r"))
            assert r <= x <= opts.size - r
            assert r <= y <= opts.size - r


@pytest.mark.parametrize("size", (0, -1))
def test_render_size_must_be_positive(size):
    with pytest.raises(GnarError, match="^render dimensions must be positive$"):
        RenderOptions(size=size)


def test_layout_overflow_rejected():
    grid = plain_grid(np.zeros((4, 3)))
    with pytest.raises(GnarError, match="overflow"):
        render_corbit(grid, RenderOptions(size=200))


def test_colour_scale_anchors():
    opts = RenderOptions()
    assert value_colour(-1.0, opts) == opts.colour_neg
    assert value_colour(0.0, opts) == opts.colour_zero
    assert value_colour(1.0, opts) == opts.colour_pos
    assert value_colour(2.0, opts) == opts.colour_pos  # clipped


def test_svg_parses_as_valid_xml_with_title():
    grid = plain_grid(np.zeros((2, 2)))
    root = parse(render_corbit(grid))
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    titles = [el for el in root.iter() if el.tag == f"{SVG_NS}title"]
    assert len(titles) == 1


def test_community_labels_are_xml_escaped():
    labels = ["R&D", '"x" <y>', "a>b'c"]
    grid = community_grid(np.zeros((3, 2, 2)), labels)
    root = parse(render_rcorbit(grid))
    assert [el.text for el in by_class(root, "legend-label")] == labels
    assert [el.get("data-community") for el in by_class(root, "rcorbit-point")] == labels * 4
