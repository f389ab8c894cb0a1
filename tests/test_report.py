"""Tests for series CSV and SVG figure emission."""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from datetime import date

import pytest

from kgdiv.audit import AuditRow
from kgdiv.report import (
    FigureSpec,
    PartySeries,
    build_figure_spec,
    emit_figure_svg,
    emit_series_csv,
    figure_y_max,
)
from tests.oracles import share_from_pixel

T1 = date(2015, 1, 1)
T2 = date(2020, 1, 1)


def audit_row(source, t, party, alignment, lower, upper, baseline, total=10):
    verdict = (
        "over"
        if lower / total > baseline
        else "under"
        if upper / total < baseline
        else "indeterminate"
    )
    return AuditRow(
        source=source,
        time_point=t,
        party=party,
        alignment=alignment,
        lower_count=lower,
        upper_count=upper,
        lower_share=lower / total,
        upper_share=upper / total,
        baseline_share=baseline,
        verdict=verdict,
        active_total=total,
    )


SAMPLE_ROWS = [
    audit_row("en-dbpedia", T1, "N-VA", "right", 4, 5, 0.28),
    audit_row("en-dbpedia", T2, "N-VA", "right", 5, 6, 0.28),
    audit_row("en-dbpedia", T1, "Groen", "left", 1, 1, 0.08),
    audit_row("en-dbpedia", T2, "Groen", "left", 1, 2, 0.08),
    audit_row("en-dbpedia", T1, "CD&V", "centre", 2, 3, 0.16),
    audit_row("en-dbpedia", T2, "CD&V", "centre", 2, 2, 0.16),
]


def figure_order(*parties):
    """The panel order of a figure over one row per (acronym, alignment)."""
    rows = [audit_row("s", T1, acronym, alignment, 1, 1, 0.1) for acronym, alignment in parties]
    return [p.acronym for p in build_figure_spec(rows, "s", "KVV").parties]


class TestOrderParties:
    def test_alignment_category_order(self):
        assert figure_order(("X", "right"), ("Y", "centre"), ("Z", "extreme-left")) == [
            "Z",
            "Y",
            "X",
        ]

    def test_alphabetical_within_category(self):
        assert figure_order(("OpenVLD", "centre"), ("CD&V", "centre")) == ["CD&V", "OpenVLD"]

    def test_unknown_sorts_last(self):
        assert figure_order(("U", "unknown"), ("O", "other"), ("R", "extreme-right")) == [
            "R",
            "O",
            "U",
        ]


class TestSeriesCsv:
    def test_row_count_and_header(self):
        rows = [
            audit_row("s", T1, "A", "left", 1, 1, 0.5),
            audit_row("s", T1, "B", "right", 1, 1, 0.5),
        ]
        text = emit_series_csv(rows).decode("utf-8")
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0] == (
            "source,time_point,canonical_acronym,alignment,lower_count,"
            "upper_count,lower_share,upper_share,baseline_share,verdict,"
            "active_total"
        )

    def test_deterministic(self):
        assert emit_series_csv(SAMPLE_ROWS) == emit_series_csv(list(SAMPLE_ROWS))

    def test_figure_order_then_time(self):
        text = emit_series_csv(SAMPLE_ROWS).decode("utf-8")
        parties = [line.split(",")[2] for line in text.strip().split("\n")[1:]]
        assert parties == ["Groen", "Groen", "CD&V", "CD&V", "N-VA", "N-VA"]
        times = [line.split(",")[1] for line in text.strip().split("\n")[1:]]
        assert times == ["2015-01-01", "2020-01-01"] * 3

    def test_values_match_input(self):
        text = emit_series_csv(SAMPLE_ROWS).decode("utf-8")
        nva_2020 = next(
            line
            for line in text.strip().split("\n")
            if line.startswith("en-dbpedia,2020-01-01,N-VA")
        )
        fields = nva_2020.split(",")
        assert fields[4] == "5" and fields[5] == "6"
        assert fields[6] == "0.500000"
        assert fields[10] == "10"


def spec_from_sample(style="line"):
    return build_figure_spec(SAMPLE_ROWS, "en-dbpedia", "KVV", style=style)


def parse_svg(data: bytes):
    return ET.fromstring(data.decode("utf-8"))


def polyline_points(element) -> list[tuple[float, float]]:
    return [
        tuple(float(v) for v in pair.split(","))
        for pair in element.attrib["points"].split()
    ]


SVG_NS = "{http://www.w3.org/2000/svg}"


class TestFigureSvg:
    def test_deterministic(self):
        spec = spec_from_sample()
        assert emit_figure_svg(spec) == emit_figure_svg(spec_from_sample())

    def test_band_edges_parse_back_to_shares(self):
        spec = spec_from_sample()
        root = parse_svg(emit_figure_svg(spec))
        y_max = float(root.attrib["data-y-max"])
        assert y_max == pytest.approx(figure_y_max(spec))
        panels = {
            g.attrib["data-party"]: g
            for g in root.iter(f"{SVG_NS}g")
            if g.attrib.get("class") == "panel"
        }
        assert set(panels) == {"Groen", "CD&V", "N-VA"}
        for party in spec.parties:
            panel = panels[party.acronym]
            panel_top = float(panel.attrib["data-panel-top"])
            edges = {
                el.attrib["data-kind"]: el
                for el in panel.iter(f"{SVG_NS}polyline")
                if el.attrib.get("class") == "band-edge"
            }
            lower = polyline_points(edges["lower"])
            upper = polyline_points(edges["upper"])
            for (t, (lo, hi)), (_, y_lo), (_, y_hi) in zip(
                sorted(party.bounds.items()), lower, upper
            ):
                assert share_from_pixel(y_lo, panel_top, y_max) == pytest.approx(
                    lo, abs=0.01
                )
                assert share_from_pixel(y_hi, panel_top, y_max) == pytest.approx(
                    hi, abs=0.01
                )

    def test_degenerate_band_is_single_edge(self):
        rows = [audit_row("s", T1, "A", "left", 2, 2, 0.3), audit_row("s", T2, "A", "left", 3, 3, 0.3)]
        spec = build_figure_spec(rows, "s", "KVV")
        root = parse_svg(emit_figure_svg(spec))
        edges = [
            el
            for el in root.iter(f"{SVG_NS}polyline")
            if el.attrib.get("class") == "band-edge"
        ]
        assert len(edges) == 2
        assert polyline_points(edges[0]) == polyline_points(edges[1])

    def test_empty_series_produces_no_data_svg(self):
        spec = FigureSpec(
            title="t",
            source_label="s",
            baseline_label="b",
            time_points=(),
            parties=(),
            active_counts={},
        )
        root = parse_svg(emit_figure_svg(spec))
        texts = [el.text for el in root.iter(f"{SVG_NS}text")]
        assert "no data" in texts

    def test_active_count_annotations(self):
        root = parse_svg(emit_figure_svg(spec_from_sample()))
        counts = {
            el.attrib["data-time"]: el.text
            for el in root.iter(f"{SVG_NS}text")
            if el.attrib.get("class") == "active-count"
        }
        assert counts == {"2015-01-01": "10", "2020-01-01": "10"}

    def test_party_order_matches_csv(self):
        root = parse_svg(emit_figure_svg(spec_from_sample()))
        svg_order = [
            g.attrib["data-party"]
            for g in root.iter(f"{SVG_NS}g")
            if g.attrib.get("class") == "panel"
        ]
        csv_text = emit_series_csv(SAMPLE_ROWS).decode("utf-8")
        csv_order = list(
            dict.fromkeys(line.split(",")[2] for line in csv_text.strip().split("\n")[1:])
        )
        assert svg_order == csv_order

    def test_stacked_style(self):
        root = parse_svg(emit_figure_svg(spec_from_sample(style="stacked")))
        stack_lines = [
            el
            for el in root.iter(f"{SVG_NS}polyline")
            if el.attrib.get("class") == "stack-line"
        ]
        assert len(stack_lines) == 3
        # cumulative curves never cross downwards at a fixed time point
        by_x = {}
        for el in stack_lines:
            for x, y in polyline_points(el):
                by_x.setdefault(x, []).append(y)
        for ys in by_x.values():
            assert ys == sorted(ys, reverse=True)

    def test_no_timestamps_embedded(self):
        data = emit_figure_svg(spec_from_sample()).decode("utf-8")
        assert not re.search(r"\d{2}:\d{2}:\d{2}", data)


class TestFigureSpecValidation:
    def test_unsorted_time_points_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            FigureSpec(
                title="t",
                source_label="s",
                baseline_label="b",
                time_points=(T2, T1),
                parties=(),
                active_counts={},
            )

    def test_misordered_parties_rejected(self):
        series = (
            PartySeries("X", "right", {T1: (0.1, 0.2)}, {T1: 0.1}),
            PartySeries("Y", "left", {T1: (0.1, 0.2)}, {T1: 0.1}),
        )
        with pytest.raises(ValueError, match="alignment-category order"):
            FigureSpec(
                title="t",
                source_label="s",
                baseline_label="b",
                time_points=(T1,),
                parties=series,
                active_counts={},
            )

    def test_out_of_range_shares_rejected(self):
        series = (PartySeries("X", "right", {T1: (0.5, 1.2)}, {}),)
        with pytest.raises(ValueError, match="outside"):
            FigureSpec(
                title="t",
                source_label="s",
                baseline_label="b",
                time_points=(T1,),
                parties=series,
                active_counts={},
            )
