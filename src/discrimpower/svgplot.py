"""Hand-assembled SVG charts for comparison and sweep outputs.

No plotting library: every element is emitted directly with fixed
two-decimal coordinates, so the same input always yields byte-identical
SVG. Two chart types:

* a scatter of per-system mean scores, ground truth on x and candidate
  on y, with the y=x diagonal and line overlays marking the system pairs
  the candidate got wrong, and
* sweep curves of each classification metric against the sampling
  fraction, with vertical bars showing the variance over repetitions.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence
from xml.sax.saxutils import escape

from .errors import ValidationError
from .trec import _sweep_summary

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT = 70, 170  # right margin hosts the legend
MARGIN_TOP, MARGIN_BOTTOM = 30, 60

PLOTTED_METRICS = ("p1", "r1", "p2", "r2", "bac", "mcc")
METRIC_LABELS = {
    "p1": "sig. precision", "r1": "sig. recall",
    "p2": "non-sig. precision", "r2": "non-sig. recall",
    "bac": "BAC", "mcc": "MCC",
}
COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_TICKS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)  # on each [0, 1] axis
# The characters XML 1.0 forbids, which a run tag may hold, each become U+FFFD.
_NOT_XML = dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF],
                         "\ufffd")

SCATTER_COLUMNS = (
    "system_a", "system_b",
    "mean_gt_a", "mean_gt_b", "mean_cand_a", "mean_cand_b",
    "error_class",
)
SWEEP_COLUMNS = ("fraction",) + PLOTTED_METRICS


def _require_columns(rows: Sequence[dict], needed: Sequence[str], what: str):
    if not rows:
        raise ValidationError(f"{what} input has no data rows")
    missing = [c for c in needed if c not in rows[0]]
    if missing:
        raise ValidationError(
            f"{what} input is missing columns: {', '.join(missing)}"
        )


def _column(rows: Sequence[dict], column: str, optional: bool = False) -> list[Optional[float]]:
    """One column's cells as floats. With ``optional`` a blank or
    ``undefined`` cell reads None; any other cell must be a finite number."""
    values = []
    for row_number, row in enumerate(rows, 1):
        cell = row[column]
        if optional and (cell is None or str(cell).strip() in ("", "undefined")):
            values.append(None)
            continue
        try:
            value = float(cell)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ValidationError(f"column {column}, data row {row_number}: "
                                  f"{cell!r} is not a number")
        values.append(value)
    return values


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    """Fixed-geometry plot area with data-space [x0,x1] x [y0,y1]."""

    def __init__(self, x0: float, x1: float, y0: float, y1: float):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.px0, self.px1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
        self.py0, self.py1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP

    def sx(self, v: float) -> float:
        return self.px0 + (v - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def sy(self, v: float) -> float:
        return self.py0 + (v - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)

    def frame(self, xlabel: str, ylabel: str,
              xticks: Sequence[float], yticks: Sequence[float]) -> list[str]:
        parts = [
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<rect x="{self.px0}" y="{self.py1}" width="{self.px1 - self.px0}" '
            f'height="{self.py0 - self.py1}" fill="none" stroke="#333" stroke-width="1"/>',
        ]
        for t in xticks:
            x = _fmt(self.sx(t))
            parts.append(
                f'<line x1="{x}" y1="{self.py0}" x2="{x}" y2="{self.py0 + 5}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{x}" y="{self.py0 + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12">{t:g}</text>'
            )
        for t in yticks:
            y = _fmt(self.sy(t))
            parts.append(
                f'<line x1="{self.px0 - 5}" y1="{y}" x2="{self.px0}" y2="{y}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{self.px0 - 9}" y="{y}" text-anchor="end" dominant-baseline="middle" '
                f'font-family="sans-serif" font-size="12">{t:g}</text>'
            )
        mid_x = _fmt((self.px0 + self.px1) / 2)
        parts.append(
            f'<text x="{mid_x}" y="{HEIGHT - 15}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{xlabel}</text>'
        )
        mid_y = _fmt((self.py0 + self.py1) / 2)
        parts.append(
            f'<text x="20" y="{mid_y}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="14" transform="rotate(-90 20 {mid_y})">{ylabel}</text>'
        )
        return parts


def _legend(entries: Sequence[tuple[str, str, str]]) -> list[str]:
    """Legend rows of (label, color, dash) right of the plot; an empty dash is solid."""
    lx = WIDTH - MARGIN_RIGHT + 15
    parts = []
    for i, (label, color, dash) in enumerate(entries):
        y = MARGIN_TOP + 15 + i * 20
        dasharray = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{lx}" y1="{y}" x2="{lx + 24}" y2="{y}" stroke="{color}" '
            f'stroke-width="2"{dasharray}/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    return parts


def _svg(parts: list[str]) -> str:
    body = "\n".join(f"  {p}" for p in parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
    )


def render_scatter(rows: Sequence[dict]) -> str:
    """Scatter of per-system means: ground truth vs candidate.

    ``rows`` are comparison pair rows (parsed CSV is fine). Each system
    becomes exactly one circle; FP pairs are joined by dashed red lines,
    FN pairs by dashed blue lines.
    """
    _require_columns(rows, SCATTER_COLUMNS, "scatter")
    gt_a, gt_b, cand_a, cand_b = (_column(rows, c) for c in SCATTER_COLUMNS[2:6])
    points: dict[str, tuple[float, float]] = {}
    for row, xa, xb, ya, yb in zip(rows, gt_a, gt_b, cand_a, cand_b):
        points[row["system_a"]] = (xa, ya)
        points[row["system_b"]] = (xb, yb)

    cv = _Canvas(0.0, 1.0, 0.0, 1.0)
    parts = cv.frame("mean score (ground-truth qrels)",
                     "mean score (candidate qrels)", _TICKS, _TICKS)
    parts.append(
        f'<line class="diagonal" x1="{_fmt(cv.sx(0))}" y1="{_fmt(cv.sy(0))}" '
        f'x2="{_fmt(cv.sx(1))}" y2="{_fmt(cv.sy(1))}" '
        f'stroke="#999" stroke-width="1" stroke-dasharray="4 3"/>'
    )
    for row in rows:
        cls = row["error_class"]
        if cls not in ("FP", "FN"):
            continue
        xa, ya = points[row["system_a"]]
        xb, yb = points[row["system_b"]]
        color = "#d62728" if cls == "FP" else "#1f77b4"
        parts.append(
            f'<line class="{cls.lower()}" x1="{_fmt(cv.sx(xa))}" y1="{_fmt(cv.sy(ya))}" '
            f'x2="{_fmt(cv.sx(xb))}" y2="{_fmt(cv.sy(yb))}" '
            f'stroke="{color}" stroke-width="2" stroke-dasharray="6 3"/>'
        )
    for tag in sorted(points):
        x, y = points[tag]
        parts.append(
            f'<circle class="system" cx="{_fmt(cv.sx(x))}" cy="{_fmt(cv.sy(y))}" '
            f'r="5" fill="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(cv.sx(x) + 8)}" y="{_fmt(cv.sy(y) - 6)}" '
            f'font-family="sans-serif" font-size="11">{escape(tag.translate(_NOT_XML))}</text>'
        )
    parts += _legend([("diagonal (agree)", "#999", "4 3"), ("FP pair", "#d62728", "6 3"),
                      ("FN pair", "#1f77b4", "6 3")])
    return _svg(parts)


def render_sweep(rows: Sequence[dict]) -> str:
    """Metric-vs-fraction curves with variance bars.

    ``rows`` are sweep cells (one per fraction and repetition); passing
    several repetitions per fraction yields averaged curves. Each metric
    with at least one defined point becomes one polyline.
    """
    _require_columns(rows, SWEEP_COLUMNS, "sweep")
    column = _column(rows, "fraction")
    fractions = sorted(set(column))
    summary = _sweep_summary(
        column, {metric: _column(rows, metric, optional=True) for metric in PLOTTED_METRICS},
        fractions,
    )

    lo = min(
        (mean - var for per in summary.values() for mean, var, n in per.values() if n),
        default=0.0,
    )
    y0 = -1.0 if lo < 0 else 0.0
    cv = _Canvas(0.0, 1.0, y0, 1.0)
    yticks = [-1.0, -0.5, 0.0, 0.5, 1.0] if y0 < 0 else _TICKS
    parts = cv.frame("fraction of relevant judgments sampled",
                     "metric value", _TICKS, yticks)
    if y0 < 0:
        zero = _fmt(cv.sy(0.0))
        parts.append(
            f'<line x1="{cv.px0}" y1="{zero}" x2="{cv.px1}" y2="{zero}" '
            f'stroke="#ccc" stroke-width="1"/>'
        )
    for metric, color in zip(PLOTTED_METRICS, COLORS):
        defined = [f for f in fractions if summary[f][metric][2]]
        if not defined:
            continue
        for fraction in defined:
            mean, var, _ = summary[fraction][metric]
            if var <= 0:
                continue
            x = _fmt(cv.sx(fraction))
            parts.append(
                f'<line class="errbar-{metric}" x1="{x}" y1="{_fmt(cv.sy(mean - var))}" '
                f'x2="{x}" y2="{_fmt(cv.sy(mean + var))}" stroke="{color}" stroke-width="1"/>'
            )
        vertices = " ".join(
            f"{_fmt(cv.sx(f))},{_fmt(cv.sy(summary[f][metric][0]))}"
            for f in defined
        )
        parts.append(
            f'<polyline class="metric-{metric}" points="{vertices}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    parts += _legend([(METRIC_LABELS[metric], color, "")
                      for metric, color in zip(PLOTTED_METRICS, COLORS)])
    return _svg(parts)
