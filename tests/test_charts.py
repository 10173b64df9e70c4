from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
from hypothesis import given, settings, strategies as st

from meterwatch import charts
from meterwatch.charts import anomaly_chart, cluster_chart, user_means_chart
from meterwatch.clustering import kmeans_fit
from oracles import points, profiles_from_matrix

SVG_NS = "{http://www.w3.org/2000/svg}"


def polylines_by_class(svg_text):
    root = ET.fromstring(svg_text)
    counts = {}
    for node in root.iter(SVG_NS + "polyline"):
        cls = node.get("class")
        counts[cls] = counts.get(cls, 0) + 1
        assert node.get("points")
    return counts


def test_cluster_chart_one_member_line_per_day_plus_means():
    X = np.vstack([np.full(96, 10.0)] * 4 + [np.full(96, 300.0)] * 3)
    profiles = profiles_from_matrix(X)
    model = kmeans_fit(profiles, 2, seed=1, restarts=3)
    counts = polylines_by_class(cluster_chart(profiles, model))
    assert counts["member"] == 7
    assert counts["mean"] == 2


def test_user_means_chart_counts():
    chart = user_means_chart(
        {
            "S1": [np.full(96, 1.0), np.full(96, 2.0), np.full(96, 3.0)],
            "S2": [np.full(96, 4.0)],
        }
    )
    counts = polylines_by_class(chart)
    assert counts["mean"] == 4
    assert "S1" in chart and "S2" in chart


def test_anomaly_chart_pairs_day_with_mean():
    panels = [
        ("2024-06-10", np.full(96, 100.0), np.full(96, 50.0)),
        ("2024-06-21", np.full(96, 400.0), np.full(96, 60.0)),
    ]
    counts = polylines_by_class(anomaly_chart(panels))
    assert counts["anomaly"] == 2
    assert counts["mean"] == 2


def test_charts_are_parseable_xml_with_dimensions():
    chart = user_means_chart({"S1": [np.zeros(96)]})
    root = ET.fromstring(chart)
    assert root.tag == SVG_NS + "svg"
    assert int(root.get("width")) > 0
    assert int(root.get("height")) > 0


line_values = st.lists(
    st.floats(0, 1e6, allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, 1.0, 0.05, 0.15, 2.5e-7]),
    min_size=1,
    max_size=96,
)


@settings(max_examples=300, deadline=None)
@given(line_values, st.floats(1.0, 2e6, allow_nan=False), st.integers(0, 7))
def test_points_match_the_per_value_formatter(values, y_max, panel):
    """Values above y_max are clipped to the panel's top."""
    x0 = float(panel * charts.PANEL_W)
    template = charts._points_template(x0, len(values))
    assert charts._points(values, y_max, template) == points(values, y_max, x0)
    assert charts._points(np.array(values), y_max, template) == points(values, y_max, x0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(line_values, min_size=1, max_size=3), min_size=1, max_size=3))
def test_chart_lines_match_the_per_value_formatter(panels):
    """Lines of different lengths share a panel."""
    chart = charts._chart([("p{}".format(i), [("mean", v) for v in lines]) for i, lines in enumerate(panels)])
    y_max = max(max(max(v) for lines in panels for v in lines) * 1.05, 1.0)
    got = [node.get("points") for node in ET.fromstring(chart).iter(SVG_NS + "polyline")]
    want = [points(v, y_max, float(i * charts.PANEL_W)) for i, lines in enumerate(panels) for v in lines]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.sampled_from("&<>\"'a;#1 é"), max_size=20) | st.text(max_size=20))
def test_titles_are_escaped_as_saxutils_escapes_them(title):
    assert charts._escape(title) == escape(title)
    assert ">{}</text>".format(escape(title)) in user_means_chart({title: [np.zeros(96)]})
