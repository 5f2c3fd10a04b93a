"""The compiled per-record kernels: the feature row of each selection, the
`.hera` writer and the written-form reader.

Each kernel is checked against its reference: `kernel_oracle` for the
row and the writer, the general record reader for the written-form
reader. The call-count guards keep each kernel straight-line: one
Python-level call per cell or per field would show up as hundreds.
"""

import dataclasses
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from hera import herafile
from hera.features import PRESETS, RowContext, compute_row, select_feature_set
from hera.flows import MANAGEMENT_KEY, EndpointStats, FlowKey, FlowRecord
from hera.herafile import format_record
from kernel_oracle import oracle_format_record, oracle_row
from test_features import tcp_flow

ADDRESSES = ["10.0.0.1", "10.0.0.2", "192.168.1.254", "0.0.0.0", "2001:db8::1",
             "2001:db8::2", "::1", "fe80::1%eth0"]
PROTOS = ["tcp", "udp", "icmp", "ipv6-icmp", "gre"]
SELECTIONS = {preset: select_feature_set(preset) for preset in PRESETS}

ints = st.integers(-5, 10**6) | st.integers(-2**62, 2**62)
optional_ints = st.none() | ints
times = st.integers(-5_000_000, 5_000_000) | st.integers(-10**15, 10**15)
optional_times = st.none() | times


def _field_strategy(name: str, default):
    if name.endswith("_us"):
        return optional_times if default is None else times
    return optional_ints if default is None else ints


endpoint_stats = st.builds(EndpointStats, **{
    f.name: _field_strategy(f.name, f.default) for f in dataclasses.fields(EndpointStats)})
flow_keys = st.builds(FlowKey, st.sampled_from(ADDRESSES), st.integers(0, 65535),
                      st.sampled_from(ADDRESSES), st.integers(0, 65535), st.sampled_from(PROTOS))


@st.composite
def records(draw):
    """A record with any mix of present and None fields: negative times
    and gaps, zero and negative durations, management records, IPv6
    addresses and unknown fields kept from a read."""
    management = draw(st.booleans())
    stime = draw(times)
    return FlowRecord(
        key=MANAGEMENT_KEY if management else draw(flow_keys),
        initiator=draw(st.sampled_from("ab")),
        stime_us=stime,
        ltime_us=stime + draw(st.sampled_from([0, 0, 1, -1]) | st.integers(0, 10**10)),
        slice_index=draw(st.integers(0, 10**6)),
        is_management=management,
        a=draw(endpoint_stats),
        b=draw(endpoint_stats),
        flgs=draw(st.integers(0, 63)),
        tcp_state=draw(st.sampled_from([None, "REQ", "CON", "FIN", "RST"])),
        synack_us=draw(optional_times),
        ackdat_us=draw(optional_times),
        iat_sum_us=draw(times),
        iat_sumsq=draw(ints),
        iat_min_us=draw(optional_times),
        iat_max_us=draw(optional_times),
        vlan_id=draw(optional_ints),
        ip_version=draw(st.sampled_from([None, 4, 6])),
        frag_count=draw(ints),
        runtime_us=draw(times),
        idle_us=draw(times),
        flows=draw(optional_ints) if management else None,
        seq=draw(optional_ints),
        trans=draw(st.integers(1, 10**6)),
        extra=draw(st.dictionaries(st.sampled_from(["note", "x1", "future_field"]),
                                   st.text(alphabet="abc019.-:", max_size=6), max_size=2)),
    )


contexts = st.builds(RowContext, rank=st.integers(0, 10**7),
                     service=st.sampled_from(["", "-", "http", "dns"]),
                     ssaddr=st.none() | st.integers(0, 100), sdaddr=st.none() | st.integers(0, 100))


@settings(max_examples=300, deadline=None)
@given(records(), contexts)
def test_row_kernels_equal_the_per_cell_oracle_on_every_preset(rec, ctx):
    for preset, names in SELECTIONS.items():
        assert compute_row(rec, names, ctx) == oracle_row(rec, names, ctx), preset


@settings(max_examples=300, deadline=None)
@given(records())
def test_writer_kernel_equals_the_per_field_oracle(rec):
    assert format_record(rec) == oracle_format_record(rec)


@settings(max_examples=300, deadline=None)
@given(records())
def test_written_form_reader_equals_the_general_reader(rec):
    line = format_record(rec)
    record = herafile._parse_written(line)
    if rec.extra:
        assert record is None  # an unknown field is not written form
    else:
        assert record is not None
        assert record == herafile._parse_general(line, 7)


# -- call-count guards --------------------------------------------------------


def python_calls(function, *args) -> int:
    """The Python-level calls one call of function(*args) makes, itself
    included, once its kernel is compiled."""
    function(*args)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_a_row_of_every_feature_makes_at_most_40_python_calls():
    ctx = RowContext(rank=3, service="http", ssaddr=1, sdaddr=2)
    assert python_calls(compute_row, tcp_flow(), SELECTIONS["all"], ctx) <= 40


def test_writing_a_record_makes_at_most_10_python_calls():
    assert python_calls(format_record, tcp_flow()) <= 10


def test_reading_a_written_record_makes_at_most_10_python_calls():
    assert python_calls(herafile._parse_written, format_record(tcp_flow())) <= 10
