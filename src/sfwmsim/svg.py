"""Dependency-free SVG figures: a log-y line plot for ``sweep`` and a
scatter of the phasematching loop for ``contour``.

Figures are a convenience; the CSV files are the contract.
"""
from __future__ import annotations

import math


def _ticks(lo, hi, n=5):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    t = math.ceil(lo / step) * step
    out = []
    while t <= hi + 1e-12 * abs(hi):
        out.append(t)
        t += step
    return out


def _color_for_angle(theta_deg):
    """Map (-90, 90] degrees onto a blue-to-red hue."""
    frac = (theta_deg + 90.0) / 180.0
    hue = 240.0 * (1.0 - frac)
    return f"hsl({hue:.0f},85%,45%)"


def line_plot(path, xs, ys_by_label, x_label, y_label, title=""):
    """Write a multi-series line plot on a log10 y axis.

    A y-value that is None, non-finite or not positive breaks the polyline.
    """
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 30, 50
    pw, ph = width - ml - mr, height - mt - mb

    finite_x = [x for x in xs if x is not None and math.isfinite(x)]
    all_y = [y for ys in ys_by_label.values() for y in ys
             if y is not None and math.isfinite(y) and y > 0]
    if not finite_x or not all_y:
        x_lo = x_hi = 0.0
        y_lo, y_hi = 0.0, 1.0
    else:
        x_lo, x_hi = min(finite_x), max(finite_x)
        y_lo, y_hi = math.log10(min(all_y)), math.log10(max(all_y))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return ml + pw * (x - x_lo) / (x_hi - x_lo)

    def py(log_y):
        return mt + ph * (1.0 - (log_y - y_lo) / (y_hi - y_lo))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="sans-serif" font-size="11">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width/2:.0f}" y="16" text-anchor="middle" '
             f'font-size="13">{title}</text>']
    # axes
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(t):.1f}" y1="{mt+ph}" x2="{px(t):.1f}" '
                     f'y2="{mt+ph+4}" stroke="black"/>')
        parts.append(f'<text x="{px(t):.1f}" y="{mt+ph+16}" '
                     f'text-anchor="middle">{t:.4g}</text>')
    for t in _ticks(y_lo, y_hi):
        # short ranges tick between decades: label the value at the tick
        label = (f"1e{round(t)}" if abs(t - round(t)) < 1e-9
                 else f"{10 ** t:.3g}")
        parts.append(f'<line x1="{ml-4}" y1="{py(t):.1f}" x2="{ml}" '
                     f'y2="{py(t):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml-8}" y="{py(t)+3:.1f}" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{ml+pw/2:.0f}" y="{height-10}" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{mt+ph/2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {mt+ph/2:.0f})">{y_label}</text>')

    palette = ["#c62828", "#1565c0", "#2e7d32", "#6a1b9a", "#ef6c00"]
    for idx, (label, ys) in enumerate(ys_by_label.items()):
        color = palette[idx % len(palette)]
        run = []
        for x, y in zip(xs, ys):
            if (x is not None and y is not None and math.isfinite(x)
                    and math.isfinite(y) and y > 0):
                run.append(f"{px(x):.1f},{py(math.log10(y)):.1f}")
            elif run:
                parts.append(f'<polyline points="{" ".join(run)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
                run = []
        if run:
            parts.append(f'<polyline points="{" ".join(run)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml+pw-6}" y="{mt+14+13*idx}" text-anchor="end" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def contour_plot(path, points, title=""):
    """Scatter of the detuning loop, color-coded by orientation angle."""
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 30, 50
    pw, ph = width - ml - mr, height - mt - mb
    if not points:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('<svg xmlns="http://www.w3.org/2000/svg" width="200" '
                     'height="40"><text x="10" y="20">empty contour</text></svg>')
        return
    xs = [p.pump_wavelength_um for p in points]
    ys = [p.detuning_signal for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_hi = x_hi if x_hi > x_lo else x_lo + 1
    y_hi = y_hi if y_hi > y_lo else y_lo + 1
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="sans-serif" font-size="11">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width/2:.0f}" y="16" text-anchor="middle" '
             f'font-size="13">{title}</text>',
             f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
             'fill="none" stroke="black"/>',
             f'<text x="{ml+pw/2:.0f}" y="{height-10}" text-anchor="middle">'
             'pump wavelength (um)</text>',
             f'<text x="16" y="{mt+ph/2:.0f}" text-anchor="middle" '
             f'transform="rotate(-90 16 {mt+ph/2:.0f})">detuning (rad/s)</text>']
    for t in _ticks(x_lo, x_hi):
        x = ml + pw * (t - x_lo) / (x_hi - x_lo)
        parts.append(f'<text x="{x:.1f}" y="{mt+ph+16}" '
                     f'text-anchor="middle">{t:.4g}</text>')
    for p in points:
        x = ml + pw * (p.pump_wavelength_um - x_lo) / (x_hi - x_lo)
        y = mt + ph * (1.0 - (p.detuning_signal - y_lo) / (y_hi - y_lo))
        r = 3 if p.branch == "outer" else 2
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" '
                     f'fill="{_color_for_angle(p.theta_si)}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
