"""CSV and SVG output for sweep tables.

CSV values are written with repr() so a parse-back round-trips bit-exactly.
SVG charts are built by hand (no renderer dependency): one line chart per
metric with a mean curve and a +-1 SE band per sweep group.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

from .harness import CSV_HEADER, SweepTable

_PALETTE = ("#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860")
_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 55


def write_csv(table: SweepTable, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in table.records:
                fh.write(rec.csv_row() + "\n")
    except OSError as exc:
        raise OSError(f"writing sweep CSV to {path!r} failed: {exc}") from exc


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out or [lo, hi]


def _format_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def svg_line_chart(
    series: Sequence[dict],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Build an SVG line chart.  Each series dict carries x, y, se, label."""
    xs = [x for s in series for x in s["x"]]
    ys = [y + e for s in series for y, e in zip(s["y"], s["se"])]
    ys += [y - e for s in series for y, e in zip(s["y"], s["se"])]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # one x (a one-temperature grid) or one y value spans no range to scale by
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (
            _HEIGHT - _MARGIN_T - _MARGIN_B
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{_WIDTH - _MARGIN_R}" y2="{y0}" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{y0}" x2="{px(t):.1f}" y2="{y0 + 5}" stroke="black"/>'
            f'<text x="{px(t):.1f}" y="{y0 + 18}" text-anchor="middle">{_format_tick(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        parts.append(
            f'<line x1="{x0 - 5}" y1="{py(t):.1f}" x2="{x0}" y2="{py(t):.1f}" stroke="black"/>'
            f'<text x="{x0 - 8}" y="{py(t) + 4:.1f}" text-anchor="end">{_format_tick(t)}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{x_label}</text>'
        f'<text x="18" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2})">{y_label}</text>'
    )
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        upper = [(px(x), py(y + e)) for x, y, e in zip(s["x"], s["y"], s["se"])]
        lower = [(px(x), py(y - e)) for x, y, e in zip(s["x"], s["y"], s["se"])]
        band = " ".join(f"{a:.2f},{b:.2f}" for a, b in upper + lower[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
        line = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s["x"], s["y"]))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _MARGIN_T + 14 * i + 4
        lx = _WIDTH - _MARGIN_R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx + 28}" y="{ly + 4}">{s["label"]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_sweep_charts(table: SweepTable, out_dir: str, prefix: str) -> list[str]:
    """One SVG per metric: mean +-1 SE versus T, one series per group."""
    paths = []
    label_key = table.sweep_key
    for metric, pretty in (("retain", "Retain Error"), ("forget", "Forget Error")):
        series = []
        for gv in table.group_values():
            ts, means, ses = table.mean_curve(gv, metric)
            series.append(
                {"x": ts, "y": means, "se": ses, "label": f"{label_key}={_format_tick(float(gv))}"}
            )
        svg = svg_line_chart(
            series,
            title=f"{pretty} vs temperature",
            x_label="temperature T",
            y_label=pretty,
        )
        path = os.path.join(out_dir, f"{prefix}_{metric}.svg")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise OSError(f"writing chart to {path!r} failed: {exc}") from exc
        paths.append(path)
    return paths


def emit(table: SweepTable, out_dir: str, prefix: str) -> dict:
    """Write <prefix>.csv plus one SVG per metric into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{prefix}.csv")
    write_csv(table, csv_path)
    charts = write_sweep_charts(table, out_dir, prefix)
    return {"csv": csv_path, "charts": charts}
