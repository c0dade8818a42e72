"""Dependency-free SVG figures: a log-y line plot for ``sweep`` and a
scatter of the phasematching loop for ``contour``.

Each function returns the figure as text; the CLI writes it to a file.
Figures are a convenience; the CSV files are the contract.
"""
from __future__ import annotations

import math

# figure size and the plot rectangle's margins, in pixels
WIDTH, HEIGHT = 640, 440
LEFT, RIGHT, TOP, BOTTOM = 70, 20, 30, 50
PLOT_W, PLOT_H = WIDTH - LEFT - RIGHT, HEIGHT - TOP - BOTTOM


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


def _px(x, lo, hi):
    """Pixel column of x on an axis running from lo to hi."""
    return LEFT + PLOT_W * (x - lo) / (hi - lo)


def _py(y, lo, hi):
    """Pixel row of y on an axis running from lo (bottom) to hi (top)."""
    return TOP + PLOT_H * (1.0 - (y - lo) / (hi - lo))


def _frame(title, x_label, y_label, x_lo, x_hi, tick_marks):
    """The parts every figure shares: (head, x ticks, axis labels).

    head opens the svg and draws the background, the title and the plot
    rectangle; each x tick is labelled with its value below the plot,
    under a tick mark if ``tick_marks``.
    """
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" font-family="sans-serif" font-size="11">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH/2:.0f}" y="16" text-anchor="middle" '
            f'font-size="13">{title}</text>',
            f'<rect x="{LEFT}" y="{TOP}" width="{PLOT_W}" height="{PLOT_H}" '
            'fill="none" stroke="black"/>']
    bottom = TOP + PLOT_H
    ticks = []
    for t in _ticks(x_lo, x_hi):
        x = _px(t, x_lo, x_hi)
        if tick_marks:
            ticks.append(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" '
                         f'y2="{bottom+4}" stroke="black"/>')
        ticks.append(f'<text x="{x:.1f}" y="{bottom+16}" '
                     f'text-anchor="middle">{t:.4g}</text>')
    mid_y = TOP + PLOT_H / 2
    labels = [f'<text x="{LEFT+PLOT_W/2:.0f}" y="{HEIGHT-10}" '
              f'text-anchor="middle">{x_label}</text>',
              f'<text x="16" y="{mid_y:.0f}" text-anchor="middle" '
              f'transform="rotate(-90 16 {mid_y:.0f})">{y_label}</text>']
    return head, ticks, labels


def line_plot(xs, ys_by_label, x_label, y_label, title=""):
    """SVG text of a multi-series line plot on a log10 y axis.

    A y-value that is None, non-finite or not positive breaks the polyline.
    """
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

    head, x_ticks, labels = _frame(title, x_label, y_label, x_lo, x_hi,
                                   tick_marks=True)
    parts = head + x_ticks
    for t in _ticks(y_lo, y_hi):
        # short ranges tick between decades: label the value at the tick
        label = (f"1e{round(t)}" if abs(t - round(t)) < 1e-9
                 else f"{10 ** t:.3g}")
        y = _py(t, y_lo, y_hi)
        parts.append(f'<line x1="{LEFT-4}" y1="{y:.1f}" x2="{LEFT}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{LEFT-8}" y="{y+3:.1f}" '
                     f'text-anchor="end">{label}</text>')
    parts += labels

    palette = ["#c62828", "#1565c0", "#2e7d32", "#6a1b9a", "#ef6c00"]
    for idx, (label, ys) in enumerate(ys_by_label.items()):
        color = palette[idx % len(palette)]
        run = []
        # a closing (None, None) ends the last run
        for x, y in [*zip(xs, ys), (None, None)]:
            if (x is not None and y is not None and math.isfinite(x)
                    and math.isfinite(y) and y > 0):
                run.append(f"{_px(x, x_lo, x_hi):.1f},"
                           f"{_py(math.log10(y), y_lo, y_hi):.1f}")
            elif run:
                parts.append(f'<polyline points="{" ".join(run)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
                run = []
        parts.append(f'<text x="{LEFT+PLOT_W-6}" y="{TOP+14+13*idx}" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def contour_plot(points, title=""):
    """SVG text of the detuning loop, color-coded by orientation angle."""
    if not points:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="200" '
                'height="40"><text x="10" y="20">empty contour</text></svg>')
    xs = [p.pump_wavelength_um for p in points]
    ys = [p.detuning_signal for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_hi = x_hi if x_hi > x_lo else x_lo + 1
    y_hi = y_hi if y_hi > y_lo else y_lo + 1
    head, x_ticks, labels = _frame(title, "pump wavelength (um)",
                                   "detuning (rad/s)", x_lo, x_hi,
                                   tick_marks=False)
    parts = head + labels + x_ticks
    for p in points:
        x = _px(p.pump_wavelength_um, x_lo, x_hi)
        y = _py(p.detuning_signal, y_lo, y_hi)
        r = 3 if p.branch == "outer" else 2
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" '
                     f'fill="{_color_for_angle(p.theta_si)}"/>')
    parts.append("</svg>")
    return "\n".join(parts)
