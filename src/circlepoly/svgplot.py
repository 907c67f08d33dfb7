"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: the output must be byte-identical for identical
input, which rules out plotting libraries that embed ids or timestamps.
"""

from __future__ import annotations

import math

from .errors import ConfigError

WIDTH, HEIGHT = 640, 420
MARGIN = 56
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, log: bool):
    if log:
        a, b = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [10.0 ** e for e in range(a, b + 1)]
    # half the span: hi - lo overflows for finite values near +-1e308, and
    # halving a normal float is exact, so the steps and ticks are those of
    # the full span
    half = hi / 2 - lo / 2 or 0.5
    step = 10 ** math.floor(math.log10(half / 2))
    for mult in (1, 2, 5, 10):
        if half / (step * mult) <= 3:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 2e-12 * half:
        out.append(t)
        t += step
    return out


def _frac(v: float, lo: float, hi: float) -> float:
    """(v - lo) / (hi - lo), from halves so that a finite range never overflows."""
    return (v / 2 - lo / 2) / (hi / 2 - lo / 2)


def line_chart(xs, series: dict, path, xlog=False, ylog=False, xlabel="", ylabel=""):
    """Write a line chart of the named series against xs as standalone SVG.

    A point whose x or value is NaN or infinite is left out of its series.
    """
    floor = 1e-300 if ylog else -math.inf  # a log axis lifts values <= 0 to 1e-300
    series = {
        k: [(float(x), max(v, floor)) for x, v in zip(xs, vs) if math.isfinite(x) and math.isfinite(v)]
        for k, vs in series.items()
    }
    allx = [x for pts in series.values() for x, _ in pts]
    allv = [v for pts in series.values() for _, v in pts]
    if not allx:
        raise ConfigError("empty data for plot")
    xlo, xhi = min(allx), max(allx)
    ylo, yhi = min(allv), max(allv)
    if xlog and xlo <= 0:
        raise ConfigError("log x axis needs positive values")
    if ylog and ylo <= 0:
        ylo = min(v for v in allv if v > 0)
    if xhi == xlo:
        xhi = xlo + 1
    if yhi == ylo:
        yhi = ylo * 1.1 + 1e-300 if ylog else ylo + 1

    def sx(x):
        if xlog:
            f = (math.log10(x) - math.log10(xlo)) / (math.log10(xhi) - math.log10(xlo))
        else:
            f = _frac(x, xlo, xhi)
        return MARGIN + f * (WIDTH - 2 * MARGIN)

    def sy(y):
        if ylog:
            f = (math.log10(y) - math.log10(ylo)) / (math.log10(yhi) - math.log10(ylo))
        else:
            f = _frac(y, ylo, yhi)
        return HEIGHT - MARGIN - f * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH-2*MARGIN}" '
        f'height="{HEIGHT-2*MARGIN}" fill="none" stroke="#333"/>',
    ]
    for t in _ticks(xlo, xhi, xlog):
        if t < xlo or t > xhi:
            continue
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{HEIGHT-MARGIN}" x2="{_fmt(x)}" '
            f'y2="{HEIGHT-MARGIN+5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT-MARGIN+18}" font-size="11" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(ylo, yhi, ylog):
        if t < ylo or t > yhi:
            continue
        y = sy(t)
        parts.append(
            f'<line x1="{MARGIN-5}" y1="{_fmt(y)}" x2="{MARGIN}" '
            f'y2="{_fmt(y)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{MARGIN-8}" y="{_fmt(y+4)}" font-size="11" '
            f'text-anchor="end">{t:g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{WIDTH//2}" y="{HEIGHT-10}" font-size="12" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{HEIGHT//2}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 14 {HEIGHT//2})">{ylabel}</text>'
        )
    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(v))}" for x, v in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN + 16 + 16 * i
        parts.append(
            f'<line x1="{WIDTH-MARGIN-110}" y1="{ly-4}" x2="{WIDTH-MARGIN-88}" '
            f'y2="{ly-4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{WIDTH-MARGIN-82}" y="{ly}" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
