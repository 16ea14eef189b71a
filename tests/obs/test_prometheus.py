"""Encoder battery: spec-exact escaping, cumulative histograms,
byte-stable rendering.

The property suite round-trips arbitrary names, label values
(newlines, quotes, backslashes, unicode), and histogram buckets through
:func:`repro.obs.parse_exposition` — the reference parser shares no
string-building code with the encoder, so an escaping bug in either
direction breaks the round-trip instead of cancelling out.
"""

from __future__ import annotations

import math

import pytest

from hypothesis import example, given, settings, strategies as st

from repro.obs import (
    MetricFamily,
    PrometheusRegistry,
    escape_help,
    escape_label_value,
    format_value,
    parse_exposition,
    render,
)

pytestmark = [pytest.mark.obs, pytest.mark.timeout(120)]


# ----------------------------------------------------------------------
# Unit: escaping and value formatting
# ----------------------------------------------------------------------
class TestEscaping:
    def test_label_value_escapes(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_label_backslash_escaped_before_quote_and_newline(self):
        # A pre-escaped-looking input must stay distinguishable: the
        # literal two characters ``\`` ``n`` render as ``\\n``, not
        # as an (ambiguous) escaped newline.
        assert escape_label_value("\\n") == "\\\\n"
        assert escape_label_value("\n") == "\\n"

    def test_help_escapes_backslash_and_newline_only(self):
        assert escape_help('say "hi"\n\\done') == 'say "hi"\\n\\\\done'

    def test_format_value_spellings(self):
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"
        assert format_value(3) == "3.0"
        assert format_value(0.25) == "0.25"


# ----------------------------------------------------------------------
# Unit: family construction guards
# ----------------------------------------------------------------------
class TestMetricFamily:
    def test_rejects_bad_name(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricFamily("2bad", "counter", "")

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricFamily("ok", "summary", "")

    def test_rejects_bad_label_name(self):
        with pytest.raises(ValueError, match="invalid label name"):
            MetricFamily("ok", "gauge", "").add(1.0, {"bad-name": "x"})

    def test_rejects_reserved_le_label(self):
        with pytest.raises(ValueError, match="'le' label is reserved"):
            MetricFamily("ok", "gauge", "").add(1.0, {"le": "0.5"})

    def test_add_on_histogram_rejected(self):
        with pytest.raises(ValueError, match="add_histogram"):
            MetricFamily("ok", "histogram", "").add(1.0)

    def test_add_histogram_on_counter_rejected(self):
        with pytest.raises(ValueError, match="histogram family"):
            MetricFamily("ok", "counter", "").add_histogram({1.0: 1}, 1.0)

    def test_histogram_rejects_infinite_bound(self):
        with pytest.raises(ValueError, match="finite"):
            MetricFamily("ok", "histogram", "").add_histogram(
                {math.inf: 1}, 0.0
            )

    def test_histogram_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            MetricFamily("ok", "histogram", "").add_histogram(
                {1.0: -1}, 0.0
            )

    def test_histogram_count_must_cover_buckets(self):
        with pytest.raises(ValueError, match="cover"):
            MetricFamily("ok", "histogram", "").add_histogram(
                {1.0: 5}, 0.0, count=3
            )

    def test_histogram_count_beyond_buckets_is_the_inf_overflow(self):
        family = MetricFamily("ok", "histogram", "").add_histogram(
            {1.0: 2, 2.0: 3}, sum_value=9.0, count=10
        )
        parsed = parse_exposition(render([family]))
        buckets = {
            labels["le"]: value
            for suffix, labels, value in parsed["ok"]["samples"]
            if suffix == "_bucket"
        }
        assert buckets == {"1.0": 2.0, "2.0": 5.0, "+Inf": 10.0}


# ----------------------------------------------------------------------
# Unit: registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            PrometheusRegistry().register([MetricFamily("x", "gauge", "")])

    def test_rejects_duplicate_family_names_across_collectors(self):
        registry = (
            PrometheusRegistry()
            .register(lambda: [MetricFamily("dup", "gauge", "").add(1)])
            .register(lambda: [MetricFamily("dup", "gauge", "").add(2)])
        )
        with pytest.raises(ValueError, match="duplicate metric family"):
            registry.render()

    def test_collectors_run_fresh_per_scrape(self):
        state = {"v": 0}

        def collector():
            state["v"] += 1
            return [MetricFamily("live", "gauge", "").add(state["v"])]

        registry = PrometheusRegistry().register(collector)
        assert "live 1.0" in registry.render()
        assert "live 2.0" in registry.render()


# ----------------------------------------------------------------------
# Unit: parser as an oracle
# ----------------------------------------------------------------------
class TestParser:
    def test_rejects_malformed_sample_line(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("{x} nope\n")

    def test_rejects_non_monotone_histogram(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\n'
            'h_bucket{le="2.0"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
        )
        with pytest.raises(ValueError, match="monotone"):
            parse_exposition(text)

    def test_rejects_histogram_without_inf_terminator(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\n'
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_exposition(text)

    def test_suffix_attribution_only_for_histogram_types(self):
        # A *gauge* named like a histogram series must stay its own
        # family — attribution keys off the declared TYPE, not the name.
        text = (
            "# TYPE queue_count gauge\n"
            "queue_count 4\n"
        )
        parsed = parse_exposition(text)
        assert parsed["queue_count"]["samples"] == [("", {}, 4.0)]
        assert "queue" not in parsed


# ----------------------------------------------------------------------
# Property battery
# ----------------------------------------------------------------------
metric_names = st.from_regex(r"[a-zA-Z_:][a-zA-Z0-9_:]{0,30}", fullmatch=True)
label_names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,15}", fullmatch=True).filter(
    lambda name: name != "le"
)
# Arbitrary text including the three escaped characters and unicode.
label_values = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from(['"', "\\", "\n", "{", "}", ",", "="]),
    ),
    max_size=40,
)
finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64
)
label_dicts = st.dictionaries(label_names, label_values, max_size=4)


def _strip_raw_trailing_whitespace(text: str) -> str:
    """``text`` minus the trailing whitespace a line strip removes from
    its rendered HELP line.  A newline renders as the two characters
    ``\\n``, which are not whitespace, so it ends the strip."""
    end = len(text)
    while end and text[end - 1].isspace() and text[end - 1] != "\n":
        end -= 1
    return text[:end]


@settings(max_examples=150, deadline=None)
@given(
    name=metric_names,
    kind=st.sampled_from(["counter", "gauge"]),
    help_text=st.text(max_size=60),
    rows=st.lists(
        st.tuples(label_dicts, finite_floats), min_size=1, max_size=5
    ),
)
@example(name="m", kind="gauge", help_text="\n", rows=[({}, 0.0)])
def test_scalar_samples_round_trip(name, kind, help_text, rows):
    """Names, labels (any text), HELP, and values survive render→parse."""
    family = MetricFamily(name, kind, help_text)
    for labels, value in rows:
        family.add(value, labels)
    parsed = parse_exposition(render([family]))

    # The family may be re-keyed only if the *parser* attributed a
    # histogram suffix — impossible here because the TYPE is scalar.
    assert set(parsed) == {name}
    assert parsed[name]["type"] == kind
    # The parser strips each physical line, so raw trailing whitespace
    # in HELP (never produced by our own adapters) is not preserved;
    # everything else, escaped newlines included, must round-trip exactly.
    assert parsed[name]["help"] == _strip_raw_trailing_whitespace(help_text)
    got = [(labels, value) for _, labels, value in parsed[name]["samples"]]
    assert len(got) == len(rows)
    for (labels, value), (got_labels, got_value) in zip(rows, got):
        assert got_labels == labels
        assert got_value == value


@settings(max_examples=150, deadline=None)
@given(
    name=metric_names,
    labels=label_dicts,
    buckets=st.dictionaries(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.integers(min_value=0, max_value=10**6),
        max_size=8,
    ),
    overflow=st.integers(min_value=0, max_value=10**6),
    sum_value=finite_floats,
)
def test_histogram_cumulative_monotone_ending_inf(
    name, labels, buckets, overflow, sum_value
):
    """Raw buckets render as a cumulative monotone series ending +Inf,
    with ``_count`` covering the overflow and ``_sum`` intact."""
    total = sum(buckets.values()) + overflow
    family = MetricFamily(name, "histogram", "h").add_histogram(
        buckets, sum_value=sum_value, labels=labels, count=total
    )
    parsed = parse_exposition(render([family]))  # validates monotone/+Inf
    samples = parsed[name]["samples"]

    series = {}
    for suffix, got_labels, value in samples:
        if suffix == "_bucket":
            series[got_labels.pop("le")] = value
            assert got_labels == labels
    expected_cumulative = 0.0
    for upper in sorted(buckets):
        expected_cumulative += buckets[upper]
        assert series[format_value(upper)] == expected_cumulative
    assert series["+Inf"] == total
    assert len(series) == len(buckets) + 1

    sums = [v for s, _, v in samples if s == "_sum"]
    counts = [v for s, _, v in samples if s == "_count"]
    assert sums == [sum_value]
    assert counts == [float(total)]


@settings(max_examples=75, deadline=None)
@given(
    rows=st.lists(
        st.tuples(label_dicts, finite_floats), min_size=1, max_size=4
    ),
    buckets=st.dictionaries(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.integers(min_value=0, max_value=1000),
        max_size=5,
    ),
)
def test_rendering_is_byte_stable(rows, buckets):
    """The same registry state renders to identical bytes, scrape after
    scrape — families in registration order, label keys sorted."""
    def collector():
        gauge = MetricFamily("stable_gauge", "gauge", "g")
        for labels, value in rows:
            gauge.add(value, labels)
        hist = MetricFamily("stable_hist", "histogram", "h").add_histogram(
            buckets, sum_value=1.0
        )
        return [gauge, hist]

    registry = PrometheusRegistry().register(collector)
    first = registry.render()
    assert all(registry.render() == first for _ in range(3))
    # Label *insertion* order must not leak into the bytes.
    reordered = [
        (dict(reversed(list(labels.items()))), value)
        for labels, value in rows
    ]
    gauge = MetricFamily("stable_gauge", "gauge", "g")
    for labels, value in reordered:
        gauge.add(value, labels)
    hist = MetricFamily("stable_hist", "histogram", "h").add_histogram(
        buckets, sum_value=1.0
    )
    assert render([gauge, hist]) == first


@settings(max_examples=100, deadline=None)
@given(help_text=st.text(max_size=80).map(lambda s: s.rstrip()))
def test_help_round_trips(help_text):
    family = MetricFamily("h", "gauge", help_text).add(0.0)
    parsed = parse_exposition(render([family]))
    assert parsed["h"]["help"] == help_text
