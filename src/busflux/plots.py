"""Static SVG charts and their plot-ready CSV series.

Pure text generation with fixed geometry and formatting: the same input
always yields the same bytes, so charts can be diffed and digested like
any other pipeline output. Line charts carry one polyline per series; bar
charts one rect per labeled value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .schema import write_table

if TYPE_CHECKING:
    from .aggregation import HourlyCount
    from .models.metrics import ComparisonReport
    from .models.mlp import TrainHistory

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 44, 48

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
)


@dataclass(frozen=True, slots=True)
class Series:
    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("series xs and ys must have equal length")


def escape(text: str) -> str:
    """XML-escape character data: ``&``, ``<`` and ``>``, as
    ``xml.sax.saxutils.escape`` does, without its import cost."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick(v: float) -> str:
    return f"{v:g}"


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>',
    ]


def _axes(parts: list[str], x_label: str, y_label: str) -> None:
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    parts.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" stroke="black" fill="none"/>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 10}" text-anchor="middle">{escape(x_label)}</text>'
    )
    parts.append(f'<text x="{x0}" y="{MARGIN_T - 8}" text-anchor="start">{escape(y_label)}</text>')


def _y_ticks(parts: list[str], y_max: float) -> None:
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    span = y0 - MARGIN_T
    for i in range(5):
        frac = i / 4
        y = y0 - frac * span
        parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 7}" y="{_fmt(y + 4)}" text-anchor="end">{_tick(frac * y_max)}</text>'
        )


def line_chart(
    series: Sequence[Series], *, title: str, x_label: str, y_label: str
) -> str:
    if not series or all(len(s.xs) == 0 for s in series):
        raise ValueError("nothing to plot: all series are empty")
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    x_min, x_max = min(xs_all), max(xs_all)
    y_max = max(max(ys_all), 0.0) or 1.0
    if x_max == x_min:
        x_max = x_min + 1.0

    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    plot_w = WIDTH - MARGIN_R - x0
    plot_h = y0 - MARGIN_T

    def px(x: float) -> float:
        return x0 + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return y0 - max(y, 0.0) / y_max * plot_h

    parts = _svg_open(title)
    _axes(parts, x_label, y_label)
    _y_ticks(parts, y_max)
    for i in range(5):
        x = x_min + i / 4 * (x_max - x_min)
        parts.append(
            f'<line x1="{_fmt(px(x))}" y1="{y0}" x2="{_fmt(px(x))}" y2="{y0 + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(x))}" y="{y0 + 16}" text-anchor="middle">{_tick(x)}</text>'
        )
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lx = x0 + 8 + (idx % 4) * 160
        ly = MARGIN_T + 12 + (idx // 4) * 14
        parts.append(f'<rect x="{lx}" y="{ly - 8}" width="9" height="9" fill="{color}"/>')
        parts.append(f'<text x="{lx + 13}" y="{ly}">{escape(s.name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart(
    labels: Sequence[str], values: Sequence[float], *, title: str, y_label: str
) -> str:
    if not labels or len(labels) != len(values):
        raise ValueError("bar chart needs equally many labels and values")
    y_max = max(max(values), 0.0) or 1.0
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    plot_w = WIDTH - MARGIN_R - x0
    plot_h = y0 - MARGIN_T
    slot = plot_w / len(labels)
    bar_w = slot * 0.6

    parts = _svg_open(title)
    _axes(parts, "", y_label)
    _y_ticks(parts, y_max)
    for i, (label, value) in enumerate(zip(labels, values)):
        color = PALETTE[i % len(PALETTE)]
        h = max(value, 0.0) / y_max * plot_h
        bx = x0 + slot * i + (slot - bar_w) / 2
        parts.append(
            f'<rect x="{_fmt(bx)}" y="{_fmt(y0 - h)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(h)}" fill="{color}"/>'
        )
        cx = bx + bar_w / 2
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(y0 - h - 4)}" text-anchor="middle">{_tick(value)}</text>'
        )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{y0 + 16}" text-anchor="middle">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def history_series(history: TrainHistory) -> list[Series]:
    if not history.train_mse:
        raise ValueError("training history is empty")
    epochs = tuple(float(i + 1) for i in range(len(history.train_mse)))
    return [
        Series(name="train", xs=epochs, ys=tuple(history.train_mse)),
        Series(name="validation", xs=epochs, ys=tuple(history.val_mse)),
    ]


def hourly_series(hours: Sequence[HourlyCount]) -> list[Series]:
    """One series per stop; x is hours since the first plotted hour."""
    if not hours:
        raise ValueError("hourly counts are empty")
    origin = min(h.hour for h in hours)
    by_stop: dict[str, list[tuple[float, float]]] = {}
    for h in hours:
        x = (h.hour - origin).total_seconds() / 3600.0
        by_stop.setdefault(h.stop, []).append((x, h.count))
    series = []
    for stop, points in sorted(by_stop.items()):
        xs, ys = zip(*sorted(points))
        series.append(Series(name=stop, xs=xs, ys=ys))
    return series


def report_bars(report: ComparisonReport) -> tuple[list[str], list[float]]:
    if not report.ranking:
        raise ValueError("model report ranks no models")
    labels = [entry.name for entry in report.ranking]
    values = [entry.mse for entry in report.ranking]
    return labels, values


def write_series_csv(series: Iterable[Series], dest: Union[str, os.PathLike]) -> None:
    write_table(
        dest,
        ("series", "x", "y"),
        ((s.name, float(x), float(y)) for s in series for x, y in zip(s.xs, s.ys)),
    )
