"""Static SVG charts of daily profiles, cluster means, and anomalous days.

Hand-rolled SVG keeps the output deterministic and dependency-free; each
chart is a row of panels sharing one power scale.  Styling is carried by
polyline classes: ``member`` (thin grey day lines), ``mean`` (thick black
cluster mean), ``anomaly`` (red day line).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .clustering import ClusterModel
from .profiles import SLOTS_PER_DAY, DailyProfiles

PANEL_W = 320
PANEL_H = 220
MARGIN_L = 44
MARGIN_B = 28
MARGIN_T = 24
MARGIN_R = 10

_STYLE = (
    "polyline{fill:none}"
    ".member{stroke:#9aa7b0;stroke-width:0.7}"
    ".mean{stroke:#000;stroke-width:2.2}"
    ".anomaly{stroke:#d62728;stroke-width:1.6}"
    "text{font-family:sans-serif;font-size:11px;fill:#333}"
    ".axis{stroke:#555;stroke-width:1}"
)


def _points_template(x0: float, slots: int) -> str:
    """The points of a panel's ``slots``-value line with each x formatted
    and each y left as a ``%.1f`` field; one per panel, shared by its lines."""
    plot_w = PANEL_W - MARGIN_L - MARGIN_R
    return " ".join("{:.1f},%.1f".format(x0 + MARGIN_L + plot_w * slot / (SLOTS_PER_DAY - 1)) for slot in range(slots))


def _points(values: Sequence[float], y_max: float, template: str) -> str:
    plot_h = PANEL_H - MARGIN_T - MARGIN_B
    y = MARGIN_T + plot_h * (1.0 - np.minimum(values, y_max) / y_max)
    return template % tuple(y.tolist())


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape``
    writes them (importing that module loads ``urllib`` and ``email``)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _panel_frame(x0: float, title: str, y_max: float) -> list[str]:
    plot_w = PANEL_W - MARGIN_L - MARGIN_R
    bottom = PANEL_H - MARGIN_B
    parts = [
        '<text x="{:.0f}" y="14">{}</text>'.format(x0 + MARGIN_L, _escape(title)),
        '<line class="axis" x1="{0:.0f}" y1="{1}" x2="{2:.0f}" y2="{1}"/>'.format(
            x0 + MARGIN_L, bottom, x0 + MARGIN_L + plot_w
        ),
        '<line class="axis" x1="{0:.0f}" y1="{1}" x2="{0:.0f}" y2="{2}"/>'.format(
            x0 + MARGIN_L, MARGIN_T, bottom
        ),
        '<text x="{:.0f}" y="{}">0h</text>'.format(x0 + MARGIN_L - 4, bottom + 14),
        '<text x="{:.0f}" y="{}">12h</text>'.format(x0 + MARGIN_L + plot_w / 2 - 10, bottom + 14),
        '<text x="{:.0f}" y="{}">24h</text>'.format(x0 + MARGIN_L + plot_w - 14, bottom + 14),
        '<text x="{:.0f}" y="{}">{:.0f} W</text>'.format(x0 + 2, MARGIN_T + 8, y_max),
    ]
    return parts


def _chart(panels: Sequence[tuple[str, Sequence[tuple[str, Sequence[float]]]]]) -> str:
    """A row of panels, each ``(title, [(css_class, values), ...])``, on one
    power scale: 5% above the highest value drawn, at least 1 W."""
    top = max((np.max(values) for _, lines in panels for _, values in lines if len(values)), default=0.0)
    y_max = max(float(top) * 1.05, 1.0)
    body: list[str] = []
    for index, (title, lines) in enumerate(panels):
        x0 = float(index * PANEL_W)
        body.extend(_panel_frame(x0, title, y_max))
        templates: dict[int, str] = {}
        for css_class, values in lines:
            if len(values) not in templates:
                templates[len(values)] = _points_template(x0, len(values))
            points = _points(values, y_max, templates[len(values)])
            body.append('<polyline class="{}" points="{}"/>'.format(css_class, points))
    width = PANEL_W * max(len(panels), 1)
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        'viewBox="0 0 {w} {h}">'.format(w=width, h=PANEL_H)
    )
    return head + "<style>" + _STYLE + "</style>" + "".join(body) + "</svg>"


def cluster_chart(profiles: DailyProfiles, model: ClusterModel) -> str:
    """One panel per cluster: member day lines plus the thick mean profile.

    ``profiles`` must be the days the model was fitted on; the power scale
    covers the lines drawn, so days the model was not fitted on do not
    stretch it.
    """
    labels = np.array([model.assignments[day] for day in profiles.days], dtype=np.int64)
    panels = []
    for cluster in range(model.k):
        members = profiles.values[labels == cluster]
        lines = [("member", values) for values in members] + [("mean", model.centroids[cluster])]
        panels.append(("cluster {} ({} days)".format(cluster + 1, len(members)), lines))
    return _chart(panels)


def user_means_chart(user_centroids: Mapping[str, Sequence[Sequence[float]]]) -> str:
    """One panel per user showing that user's mean cluster profiles."""
    return _chart([(user, [("mean", c) for c in user_centroids[user]]) for user in sorted(user_centroids)])


def anomaly_chart(
    anomalies: Sequence[tuple[str, Sequence[float], Sequence[float]]]
) -> str:
    """One panel per anomalous day: red day line over its nearest mean profile.

    ``anomalies`` holds (title, day_values, nearest_centroid) triples.
    """
    return _chart([(title, [("mean", mean), ("anomaly", values)]) for title, values, mean in anomalies])
