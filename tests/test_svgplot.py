import re
import xml.etree.ElementTree as ET

import pytest

from discrimpower import svgplot
from discrimpower.errors import ValidationError
from discrimpower.reporting import SWEEP_METRICS, summarize_rows
from discrimpower.svgplot import WIDTH, HEIGHT, render_scatter, render_sweep


def scatter_rows():
    """Three systems A > B > C; one FP pair and one FN pair."""
    means_gt = {"A": 0.8, "B": 0.5, "C": 0.3}
    means_cand = {"A": 0.7, "B": 0.55, "C": 0.2}
    spec = [
        ("A", "B", "FN"),
        ("A", "C", "TP"),
        ("B", "C", "FP"),
    ]
    rows = []
    for a, b, cls in spec:
        rows.append({
            "system_a": a, "system_b": b,
            "mean_gt_a": means_gt[a], "mean_gt_b": means_gt[b],
            "mean_cand_a": means_cand[a], "mean_cand_b": means_cand[b],
            "error_class": cls,
        })
    return rows


def sweep_rows():
    return [
        {"fraction": "0.5", "repetition": "0", "p1": "0.6", "r1": "0.5",
         "p2": "0.7", "r2": "0.8", "bac": "0.65", "mcc": "0.3"},
        {"fraction": "0.5", "repetition": "1", "p1": "0.8", "r1": "0.5",
         "p2": "0.7", "r2": "0.8", "bac": "0.65", "mcc": "0.5"},
        {"fraction": "1.0", "repetition": "0", "p1": "1.0", "r1": "1.0",
         "p2": "1.0", "r2": "1.0", "bac": "1.0", "mcc": "1.0"},
        {"fraction": "1.0", "repetition": "1", "p1": "1.0", "r1": "1.0",
         "p2": "1.0", "r2": "1.0", "bac": "1.0", "mcc": "1.0"},
    ]


def test_scatter_one_circle_per_system():
    svg = render_scatter(scatter_rows())
    assert svg.count('<circle class="system"') == 3
    assert svg.count('<line class="diagonal"') == 1
    assert svg.count('<line class="fp"') == 1
    assert svg.count('<line class="fn"') == 1
    # labels next to the markers
    for tag in ("A", "B", "C"):
        assert f">{tag}</text>" in svg


def test_scatter_fixed_dimensions():
    svg = render_scatter(scatter_rows())
    assert f'width="{WIDTH}" height="{HEIGHT}"' in svg
    assert (WIDTH, HEIGHT) == (800, 600)


def test_scatter_coordinates_reflect_means():
    rows = scatter_rows()
    svg = render_scatter(rows)
    circles = re.findall(r'<circle class="system" cx="([\d.]+)" cy="([\d.]+)"', svg)
    assert len(circles) == 3
    xs = sorted(float(cx) for cx, _ in circles)
    # A (0.8) must sit to the right of B (0.5), B right of C (0.3)
    assert xs[0] < xs[1] < xs[2]


def test_scatter_no_error_overlays_when_agreeing():
    rows = scatter_rows()
    for row in rows:
        row["error_class"] = "TP"
    svg = render_scatter(rows)
    assert '<line class="fp"' not in svg
    assert '<line class="fn"' not in svg


def test_scatter_rerender_is_byte_identical():
    a = render_scatter(scatter_rows())
    b = render_scatter(scatter_rows())
    assert a == b


def test_scatter_accepts_string_cells():
    rows = scatter_rows()
    for row in rows:
        for key in row:
            row[key] = str(row[key])
    svg = render_scatter(rows)
    assert svg.count('<circle class="system"') == 3


def test_scatter_missing_columns():
    rows = [{"system_a": "A", "system_b": "B"}]
    with pytest.raises(ValidationError, match="mean_gt_a"):
        render_scatter(rows)


def test_scatter_empty_rows():
    with pytest.raises(ValidationError, match="no data"):
        render_scatter([])


def test_sweep_one_polyline_per_metric():
    svg = render_sweep(sweep_rows())
    polylines = re.findall(r'<polyline class="metric-(\w+)" points="([^"]*)"', svg)
    assert sorted(name for name, _ in polylines) == sorted(
        ["p1", "r1", "p2", "r2", "bac", "mcc"]
    )
    for _, points in polylines:
        assert len(points.split()) == 2  # one vertex per fraction


def test_sweep_error_bars_only_with_spread():
    svg = render_sweep(sweep_rows())
    # p1 and mcc vary across repetitions at fraction 0.5; the rest do not
    assert svg.count('<line class="errbar-p1"') == 1
    assert svg.count('<line class="errbar-mcc"') == 1
    assert '<line class="errbar-r1"' not in svg
    assert '<line class="errbar-bac"' not in svg


def test_sweep_undefined_cells_drop_vertices():
    rows = sweep_rows()
    rows[0]["p1"] = "undefined"
    rows[1]["p1"] = "undefined"
    svg = render_sweep(rows)
    match = re.search(r'<polyline class="metric-p1" points="([^"]*)"', svg)
    assert match is not None
    assert len(match.group(1).split()) == 1  # only the fraction-1.0 vertex


def test_sweep_metric_undefined_everywhere_has_no_polyline():
    rows = sweep_rows()
    for row in rows:
        row["mcc"] = "undefined"
    svg = render_sweep(rows)
    assert '<polyline class="metric-mcc"' not in svg
    assert '<polyline class="metric-p1"' in svg


def test_sweep_negative_values_extend_axis():
    rows = sweep_rows()
    for row in rows:
        row["mcc"] = "-0.4"
    svg = render_sweep(rows)
    assert ">-1</text>" in svg  # y axis now spans down to -1
    positive_only = render_sweep(sweep_rows())
    assert ">-1</text>" not in positive_only


def test_sweep_rerender_is_byte_identical():
    assert render_sweep(sweep_rows()) == render_sweep(sweep_rows())


def test_sweep_missing_columns():
    with pytest.raises(ValidationError, match="bac, mcc"):
        render_sweep([{"fraction": "0.5", "p1": "1", "r1": "1", "p2": "1", "r2": "1"}])


def test_sweep_empty_rows():
    with pytest.raises(ValidationError, match="no data"):
        render_sweep([])


def test_sweep_single_fraction_points():
    rows = [r for r in sweep_rows() if r["fraction"] == "1.0"]
    svg = render_sweep(rows)
    polylines = re.findall(r'<polyline class="metric-\w+" points="([^"]*)"', svg)
    assert len(polylines) == 6
    for points in polylines:
        assert len(points.split()) == 1


def test_sweep_means_sum_left_to_right_on_every_python(monkeypatch):
    # Ten cells of 0.1 sum to 0.9999999999999999 left to right; Python 3.12's
    # compensated sum() and numpy's pairwise sum both give 1.0. The plot and
    # sweep_summary.csv share one aggregate, so they agree bit for bit.
    rows = [{**sweep_rows()[0], "repetition": str(i), "p1": "0.1"} for i in range(10)]
    total = 0.0
    for _ in range(10):
        total += 0.1
    mean = total / 10
    assert mean != 0.1
    squares = 0.0
    for _ in range(10):
        squares += (0.1 - mean) ** 2
    plotted = []
    aggregate = svgplot._sweep_summary

    def spy(*args):
        plotted.append(aggregate(*args))
        return plotted[-1]

    monkeypatch.setattr(svgplot, "_sweep_summary", spy)
    render_sweep(rows)
    assert plotted[0][0.5]["p1"] == (mean, squares / 10, 10)
    cells = [{"fraction": 0.5, "repetition": i, **dict.fromkeys(SWEEP_METRICS, 0.1)}
             for i in range(10)]
    assert summarize_rows(cells, [0.5])[0.5]["p1"] == (mean, squares / 10, 10)


def test_scatter_escapes_run_tags():
    rows = [{**scatter_rows()[0], "system_a": "a&b", "system_b": "<c>"}]
    svg = ET.fromstring(render_scatter(rows))
    texts = {text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")}
    assert {"a&b", "<c>"} <= texts


def test_scatter_replaces_characters_xml_forbids():
    forbidden = "".join(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))
    rows = [{**scatter_rows()[0], "system_a": "a\x01b", "system_b": "\t" + forbidden}]
    svg = ET.fromstring(render_scatter(rows))
    texts = {text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")}
    assert {"a\ufffdb", "\t" + "\ufffd" * len(forbidden)} <= texts
