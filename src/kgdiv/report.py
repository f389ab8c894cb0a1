"""Audit output rendering: time-series SVG figures of the audit rows.

Figures are small multiples, one panel per party in alignment order. The
bold band spans the party's lower and upper visibility shares; the thin
line is the parliamentary baseline. Active actor counts are annotated
under the time axis. Output is a pure function of the input: fixed
geometry, fixed number formatting, no timestamps.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from datetime import date

# callers still import emit_series_csv from report
from .csvformat import AuditRow, alignment_rank, emit_series_csv  # noqa: F401

RENDER_STYLES = ("line", "stacked")

# figure geometry (pixels); parse-back of band edges relies on these
WIDTH = 900
MARGIN_LEFT = 170
MARGIN_RIGHT = 40
TOP = 46
PANEL_HEIGHT = 64
PANEL_GAP = 16
FOOTER = 76
STACKED_HEIGHT = 320

_ALIGNMENT_COLOURS = {
    "extreme-left": "#7f0000",
    "left": "#d7301f",
    "centre-left": "#fc8d59",
    "centre": "#fdbb84",
    "centre-right": "#74a9cf",
    "right": "#2b8cbe",
    "extreme-right": "#045a8d",
    "other": "#8c96c6",
    "unknown": "#999999",
}


@dataclass(frozen=True)
class PartySeries:
    acronym: str
    alignment: str
    bounds: Mapping[date, tuple[float, float]]
    baselines: Mapping[date, float]


@dataclass(frozen=True)
class FigureSpec:
    title: str
    source_label: str
    baseline_label: str
    time_points: tuple[date, ...]
    parties: tuple[PartySeries, ...]
    active_counts: Mapping[date, int]
    style: str = "line"

    def __post_init__(self) -> None:
        if self.style not in RENDER_STYLES:
            raise ValueError(f"style must be one of {RENDER_STYLES}")
        if list(self.time_points) != sorted(self.time_points):
            raise ValueError("time points must be sorted ascending")
        ranks = [
            (alignment_rank(p.alignment), p.acronym) for p in self.parties
        ]
        if ranks != sorted(ranks):
            raise ValueError("parties must follow alignment-category order")
        for p in self.parties:
            for lo, hi in p.bounds.values():
                if not 0 <= lo <= hi <= 1:
                    raise ValueError(f"bounds for {p.acronym!r} outside [0, 1]")
            for share in p.baselines.values():
                if not 0 <= share <= 1:
                    raise ValueError(f"baseline for {p.acronym!r} outside [0, 1]")


def build_figure_spec(
    rows: Sequence[AuditRow],
    source: str,
    baseline_label: str,
    style: str = "line",
) -> FigureSpec:
    """Assemble a figure for one source from audit rows."""
    mine = [r for r in rows if r.source == source]
    time_points = tuple(sorted({r.time_point for r in mine}))
    per_party: dict[tuple[int, str], dict] = {}
    active_counts: dict[date, int] = {}
    for r in mine:
        key = (alignment_rank(r.alignment), r.party)
        entry = per_party.setdefault(
            key, {"alignment": r.alignment, "bounds": {}, "baselines": {}}
        )
        entry["bounds"][r.time_point] = (r.lower_share, r.upper_share)
        entry["baselines"][r.time_point] = r.baseline_share
        active_counts[r.time_point] = r.active_total
    parties = tuple(
        PartySeries(
            acronym=acronym,
            alignment=entry["alignment"],
            bounds=entry["bounds"],
            baselines=entry["baselines"],
        )
        for (_, acronym), entry in sorted(per_party.items())
    )
    return FigureSpec(
        title=f"Party visibility in {source} vs {baseline_label}",
        source_label=source,
        baseline_label=baseline_label,
        time_points=time_points,
        parties=parties,
        active_counts=active_counts,
        style=style,
    )


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _Svg:
    def __init__(self) -> None:
        self.parts: list[str] = []

    def element(self, tag: str, text: str | None = None, **attrs: str) -> None:
        rendered = " ".join(
            f'{_attr(k)}="{_escape_attr(v)}"' for k, v in attrs.items()
        )
        if text is None:
            self.parts.append(f"<{tag} {rendered}/>")
        else:
            self.parts.append(f"<{tag} {rendered}>{_escape(text)}</{tag}>")

    def open_group(self, **attrs: str) -> None:
        rendered = " ".join(
            f'{_attr(k)}="{_escape_attr(v)}"' for k, v in attrs.items()
        )
        self.parts.append(f"<g {rendered}>")

    def close_group(self) -> None:
        self.parts.append("</g>")


def _attr(name: str) -> str:
    return name.rstrip("_").replace("_", "-")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _escape_attr(value: str) -> str:
    return _escape(value).replace('"', "&quot;")


def _x_mapper(time_points: Sequence[date]):
    x0 = time_points[0].toordinal()
    x1 = time_points[-1].toordinal()
    span = max(x1 - x0, 1)
    plot_width = WIDTH - MARGIN_LEFT - MARGIN_RIGHT

    def x_of(day: date) -> float:
        if x1 == x0:
            return MARGIN_LEFT + plot_width / 2
        return MARGIN_LEFT + (day.toordinal() - x0) / span * plot_width

    return x_of, x0, x1


def figure_y_max(spec: FigureSpec) -> float:
    """Shared share-axis maximum across all panels of a figure."""
    values = [0.0]
    for p in spec.parties:
        for lo, hi in p.bounds.values():
            values.append(hi)
        values.extend(p.baselines.values())
    return max(max(values), 0.01)


def emit_figure_svg(spec: FigureSpec) -> bytes:
    """Render the figure; byte-identical output for identical specs."""
    if not spec.parties or not spec.time_points:
        return _empty_figure(spec)
    if spec.style == "stacked":
        return _stacked_figure(spec)
    return _line_figure(spec)


def _svg_header(svg: _Svg, spec: FigureSpec, height: int, x0: int, x1: int, y_max: float) -> None:
    svg.parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{height}" '
        f'data-x0="{x0}" data-x1="{x1}" data-y-max="{_fmt_y(y_max)}" '
        f'data-style="{spec.style}">'
    )
    svg.element(
        "text",
        spec.title,
        x=str(MARGIN_LEFT),
        y="24",
        font_size="16",
        font_family="sans-serif",
    )


def _fmt_y(value: float) -> str:
    return f"{value:.6f}"


def _empty_figure(spec: FigureSpec) -> bytes:
    svg = _Svg()
    height = TOP + PANEL_HEIGHT + FOOTER
    svg.parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{height}" data-style="{spec.style}">'
    )
    svg.element(
        "text",
        spec.title,
        x=str(MARGIN_LEFT),
        y="24",
        font_size="16",
        font_family="sans-serif",
    )
    svg.element(
        "rect",
        x=str(MARGIN_LEFT),
        y=str(TOP),
        width=str(WIDTH - MARGIN_LEFT - MARGIN_RIGHT),
        height=str(PANEL_HEIGHT),
        fill="none",
        stroke="#cccccc",
    )
    svg.element(
        "text",
        "no data",
        x=str(WIDTH / 2),
        y=str(TOP + PANEL_HEIGHT / 2),
        font_size="14",
        font_family="sans-serif",
        text_anchor="middle",
    )
    svg.parts.append("</svg>")
    return "\n".join(svg.parts).encode("utf-8")


def _points(pairs: Iterable[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pairs)


def _line_figure(spec: FigureSpec) -> bytes:
    svg = _Svg()
    x_of, x0, x1 = _x_mapper(spec.time_points)
    y_max = figure_y_max(spec)
    n = len(spec.parties)
    axis_top = TOP + n * (PANEL_HEIGHT + PANEL_GAP)
    height = axis_top + FOOTER
    _svg_header(svg, spec, height, x0, x1, y_max)

    for index, party in enumerate(spec.parties):
        panel_top = TOP + index * (PANEL_HEIGHT + PANEL_GAP)

        def y_of(share: float) -> float:
            return panel_top + PANEL_HEIGHT - share / y_max * PANEL_HEIGHT

        colour = _ALIGNMENT_COLOURS[party.alignment]
        svg.open_group(
            class_="panel", data_party=party.acronym, data_panel_top=str(panel_top)
        )
        svg.element(
            "rect",
            x=str(MARGIN_LEFT),
            y=str(panel_top),
            width=str(WIDTH - MARGIN_LEFT - MARGIN_RIGHT),
            height=str(PANEL_HEIGHT),
            fill="none",
            stroke="#dddddd",
        )
        svg.element(
            "text",
            f"{party.acronym} ({party.alignment})",
            x="8",
            y=str(panel_top + PANEL_HEIGHT / 2),
            font_size="12",
            font_family="sans-serif",
        )
        known = [t for t in spec.time_points if t in party.bounds]
        if known:
            lower_pts = [(x_of(t), y_of(party.bounds[t][0])) for t in known]
            upper_pts = [(x_of(t), y_of(party.bounds[t][1])) for t in known]
            svg.element(
                "polygon",
                points=_points(lower_pts + upper_pts[::-1]),
                fill=colour,
                fill_opacity="0.25",
                stroke="none",
                class_="band",
                data_party=party.acronym,
            )
            svg.element(
                "polyline",
                points=_points(lower_pts),
                fill="none",
                stroke=colour,
                stroke_width="2.5",
                class_="band-edge",
                data_party=party.acronym,
                data_kind="lower",
            )
            svg.element(
                "polyline",
                points=_points(upper_pts),
                fill="none",
                stroke=colour,
                stroke_width="2.5",
                class_="band-edge",
                data_party=party.acronym,
                data_kind="upper",
            )
        baseline_known = [t for t in spec.time_points if t in party.baselines]
        if baseline_known:
            svg.element(
                "polyline",
                points=_points(
                    [(x_of(t), y_of(party.baselines[t])) for t in baseline_known]
                ),
                fill="none",
                stroke="#333333",
                stroke_width="0.8",
                class_="baseline",
                data_party=party.acronym,
            )
        svg.close_group()

    _time_axis(svg, spec, x_of, axis_top)
    svg.parts.append("</svg>")
    return "\n".join(svg.parts).encode("utf-8")


def _stacked_figure(spec: FigureSpec) -> bytes:
    """Single panel; bold lines at cumulative mid-band shares so the vertical
    space between consecutive lines reads as that party's share."""
    svg = _Svg()
    x_of, x0, x1 = _x_mapper(spec.time_points)
    cumulative: dict[date, float] = {t: 0.0 for t in spec.time_points}
    cum_baseline: dict[date, float] = {t: 0.0 for t in spec.time_points}
    layers = []
    for party in spec.parties:
        tops = {}
        base_tops = {}
        for t in spec.time_points:
            lo, hi = party.bounds.get(t, (0.0, 0.0))
            cumulative[t] += (lo + hi) / 2
            tops[t] = cumulative[t]
            cum_baseline[t] += party.baselines.get(t, 0.0)
            base_tops[t] = cum_baseline[t]
        layers.append((party, tops, base_tops))
    y_max = max(max(cumulative.values()), max(cum_baseline.values()), 0.01)

    axis_top = TOP + STACKED_HEIGHT
    height = axis_top + FOOTER
    _svg_header(svg, spec, height, x0, x1, y_max)

    def y_of(share: float) -> float:
        return TOP + STACKED_HEIGHT - share / y_max * STACKED_HEIGHT

    svg.element(
        "rect",
        x=str(MARGIN_LEFT),
        y=str(TOP),
        width=str(WIDTH - MARGIN_LEFT - MARGIN_RIGHT),
        height=str(STACKED_HEIGHT),
        fill="none",
        stroke="#dddddd",
    )
    for party, tops, base_tops in layers:
        colour = _ALIGNMENT_COLOURS[party.alignment]
        svg.element(
            "polyline",
            points=_points([(x_of(t), y_of(tops[t])) for t in spec.time_points]),
            fill="none",
            stroke=colour,
            stroke_width="2.5",
            class_="stack-line",
            data_party=party.acronym,
        )
        svg.element(
            "polyline",
            points=_points(
                [(x_of(t), y_of(base_tops[t])) for t in spec.time_points]
            ),
            fill="none",
            stroke="#333333",
            stroke_width="0.8",
            class_="baseline",
            data_party=party.acronym,
        )
        last = spec.time_points[-1]
        svg.element(
            "text",
            party.acronym,
            x=str(WIDTH - MARGIN_RIGHT + 4),
            y=_fmt(y_of(tops[last])),
            font_size="10",
            font_family="sans-serif",
        )
    _time_axis(svg, spec, x_of, axis_top)
    svg.parts.append("</svg>")
    return "\n".join(svg.parts).encode("utf-8")


def _time_axis(svg: _Svg, spec: FigureSpec, x_of, axis_top: float) -> None:
    svg.element(
        "line",
        x1=str(MARGIN_LEFT),
        y1=_fmt(axis_top),
        x2=str(WIDTH - MARGIN_RIGHT),
        y2=_fmt(axis_top),
        stroke="#333333",
        stroke_width="1",
    )
    for t in spec.time_points:
        x = x_of(t)
        svg.element(
            "line",
            x1=_fmt(x),
            y1=_fmt(axis_top),
            x2=_fmt(x),
            y2=_fmt(axis_top + 5),
            stroke="#333333",
            stroke_width="1",
        )
        svg.element(
            "text",
            str(t.year),
            x=_fmt(x),
            y=_fmt(axis_top + 20),
            font_size="11",
            font_family="sans-serif",
            text_anchor="middle",
            class_="tick-label",
        )
        count = spec.active_counts.get(t)
        if count is not None:
            svg.element(
                "text",
                str(count),
                x=_fmt(x),
                y=_fmt(axis_top + 38),
                font_size="11",
                font_family="sans-serif",
                text_anchor="middle",
                class_="active-count",
                data_time=t.isoformat(),
            )
    svg.element(
        "text",
        f"active actors in {spec.source_label}; thin lines: {spec.baseline_label} seat shares",
        x=str(MARGIN_LEFT),
        y=_fmt(axis_top + 58),
        font_size="11",
        font_family="sans-serif",
        class_="legend",
    )
