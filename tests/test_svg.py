import math
import re

import pytest

from sfwmsim.constants import omega_from_um
from sfwmsim.phasematch import ContourPoint
from sfwmsim.svg import _color_for_angle, _ticks, contour_plot, line_plot


def test_ticks_on_round_steps():
    assert _ticks(0.0, 1.0) == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])


def test_degenerate_range_gives_one_tick():
    assert _ticks(3.0, 3.0) == [3.0]


@pytest.mark.parametrize("theta, hue", [(-90.0, 240), (0.0, 120), (90.0, 0)])
def test_angle_colours_run_blue_to_red(theta, hue):
    assert _color_for_angle(theta).startswith(f"hsl({hue},")


def test_log_line_plot_breaks_at_unplottable_values():
    text = line_plot([1.0, 2.0, 3.0, 4.0], {"eta": [1e-3, None, -1.0, 1e-1]},
                     "length_m", "conversion efficiency")
    assert text.startswith("<svg") and text.endswith("</svg>")
    assert len(re.findall(r"<polyline ", text)) == 2
    assert "nan" not in text and "inf" not in text
    # y ticks are labelled as powers of ten between the extreme values
    assert ">1e-3</text>" in text and ">1e-1</text>" in text


@pytest.mark.parametrize("ys", [[1e-3, 1e-2, 1e-1], [2e-10, 3e-10, 5e-10]],
                         ids=["two_decades", "under_one_decade"])
def test_log_tick_labels_state_the_value_at_their_height(ys):
    text = line_plot([1.0, 2.0, 3.0], {"eta": ys}, "length_m", "eta")
    # y ticks and their labels sit left of the plot area
    ticks = re.findall(r'<line x1="66" y1="([^"]+)"', text)
    labels = re.findall(r'<text x="62" y="[^"]+" text-anchor="end">([^<]+)<',
                        text)
    assert len(labels) == len(ticks) >= 3
    assert len(set(labels)) == len(labels)
    # the tick height maps back to the value its label states; the plot
    # area spans y = 30 (top, max) to 390 (bottom, min) pixels
    lo, hi = math.log10(min(ys)), math.log10(max(ys))
    for y_px, label in zip(ticks, labels):
        log_y = lo + (hi - lo) * (390 - float(y_px)) / 360
        assert float(label) == pytest.approx(10 ** log_y, rel=0.01)


def point(lam_um, branch, theta):
    return ContourPoint(pump_frequency=omega_from_um(lam_um),
                        detuning_signal=1e13,
                        detuning_idler=-1e13, theta_si=theta, branch=branch)


def test_contour_plot_marks_outer_points_larger():
    text = contour_plot([point(0.74, "outer", -45.0),
                         point(0.75, "inner", 10.0),
                         point(0.76, "inner", 80.0)])
    radii = re.findall(r'<circle [^>]* r="(\d)"', text)
    assert radii == ["3", "2", "2"]


def test_empty_contour_writes_placeholder():
    text = contour_plot([])
    assert "empty contour" in text and "<circle" not in text
