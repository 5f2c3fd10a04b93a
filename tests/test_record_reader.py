"""`read_hera`'s two record readers agree.

A line in exactly the form format_record writes is read with one
compiled pattern (`herafile._written_line`); every other line is read
by field name (`herafile._parse_general`), the reader that serves as the
oracle here. Lines come from the records of a pcap_builder capture and
from random values of each field's kind, in written form (negative
numbers, `-0`, leading zeros, empty optionals, every flag set) and with
the edits a hand-made or damaged file can carry. Both readers must give
equal records, or the same CorruptRecord reason.
"""

from __future__ import annotations

import functools
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_builder as pb
from hera import herafile
from hera.cli import main
from hera.errors import CorruptRecord
from hera.flows import FLAG_TEXT, FLAG_VALUES, ExportConfig, FlowTable
from hera.herafile import format_record, read_hera
from hera.pcap import CaptureReader
from hera.timefmt import us_to_text
from helpers import parse_line, record_field_kinds

SEC = 1_000_000
A4, B4, C4 = "10.0.0.1", "10.0.0.2", "192.168.7.30"
A6, B6 = "2001:db8::1", "2001:db8::2"


def _capture() -> bytes:
    """TCP with a full close, UDP sliced over three intervals, ICMP, IPv6,
    a fragment and a VLAN tag, at times before and after the epoch."""
    vlan_type, vlan_body = pb.vlan_tag(
        pb.ETHERTYPE_IPV4, pb.ipv4(A4, C4, 17, pb.udp(5000, 53, b"tagged")))
    timed = [
        (0, pb.tcp4_frame(A4, B4, 40000, 80, pb.SYN)),
        (1_000, pb.tcp4_frame(B4, A4, 80, 40000, pb.SYN | pb.ACK)),
        (2_500, pb.tcp4_frame(A4, B4, 40000, 80, pb.ACK)),
        (3_000, pb.tcp4_frame(A4, B4, 40000, 80, pb.PSH | pb.ACK, payload=b"GET /")),
        (9_000, pb.tcp4_frame(B4, A4, 80, 40000, pb.FIN | pb.ACK | pb.URG)),
        (9_500, pb.tcp4_frame(A4, B4, 40000, 80, pb.FIN | pb.ACK)),
        (9_900, pb.tcp4_frame(B4, A4, 80, 40000, pb.ACK)),
        (0, pb.udp4_frame(C4, A4, 5353, 53, payload=b"query")),
        (12 * SEC, pb.udp4_frame(A4, C4, 53, 5353, payload=b"answer")),
        (25 * SEC, pb.udp4_frame(C4, A4, 5353, 53, payload=b"again")),
        (4_000, pb.icmp4_frame(A4, B4, 8, 0, payload=b"ping")),
        (5_000, pb.ethernet(pb.ipv4(A4, B4, 17, b"\x00" * 16, flags_frag=3),
                            pb.ETHERTYPE_IPV4)),
        (6_000, pb.ethernet(pb.ipv6(A6, B6, 6, pb.tcp(41000, 443, pb.SYN | pb.RST)),
                            pb.ETHERTYPE_IPV6)),
        (7_000, pb.ethernet(vlan_body, vlan_type)),
    ]
    return pb.pcap([pb.record(ts, frame) for ts, frame in sorted(timed, key=lambda t: t[0])])


@functools.cache
def capture_lines() -> tuple[str, ...]:
    """The written lines of the capture's records, management included."""
    table = FlowTable(ExportConfig(interval_us=10 * SEC))
    for packet in CaptureReader(io.BytesIO(_capture())):
        table.assign(packet)
    return tuple(format_record(rec) for rec in table.flush())


def _fields(line: str) -> list[list[str]]:
    """[name, value] of each field of a line."""
    return [token.split("=", 1) for token in line.split(" ")]


def outcome(read, line: str):
    """The record `read` makes of the line, or the reason it refuses it."""
    try:
        return read(line, 1)
    except CorruptRecord as exc:
        return ("CorruptRecord", exc.reason)


def assert_readers_agree(line: str) -> None:
    assert outcome(parse_line, line) == outcome(herafile._parse_general, line)


# -- values of each kind, in written form ------------------------------------

_INT = st.one_of(st.integers().map(str), st.from_regex(r"-?[0-9]{1,22}", fullmatch=True))
_TIME = st.from_regex(r"-?[0-9]{1,14}\.[0-9]{6}", fullmatch=True)
_TEXT = st.text(st.characters(exclude_characters=" "), max_size=12)
_KIND_TEXT = {
    "int": _INT,
    "oint": st.one_of(st.just(""), _INT),
    "str": _TEXT,
    "ostr": _TEXT,
    "time": _TIME,
    "otime": st.one_of(st.just(""), _TIME),
    "bool": st.sampled_from("01"),
    "flags": st.sampled_from(sorted(FLAG_VALUES)),
}
_KINDS = dict(record_field_kinds())
_ADDRESS = st.one_of(st.sampled_from([A4, B4, A6, "::ffff:102:304", "0.0.0.0"]),
                     _TEXT.filter(bool))


@st.composite
def written_fields(draw) -> list[list[str]]:
    """[name, value] of each field of a written line: a capture record's,
    with up to 16 of them given random values of their kinds."""
    fields = _fields(draw(st.sampled_from(capture_lines())))
    for index in draw(st.lists(st.integers(0, len(fields) - 1), max_size=16, unique=True)):
        name = fields[index][0]
        fields[index][1] = draw(_ADDRESS if name in ("saddr", "daddr") else
                                _KIND_TEXT[_KINDS[name]])
    return fields


def _join(fields) -> str:
    return " ".join(f"{name}={value}" for name, value in fields)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(written_fields())
def test_a_written_line_takes_the_pattern_and_reads_as_the_general_reader_reads_it(fields):
    line = _join(fields)
    record = herafile._written_line()(line)
    assert record is not None
    assert record == herafile._parse_general(line, 1)


def test_every_capture_line_takes_the_pattern():
    assert all(herafile._written_line()(line) is not None for line in capture_lines())


@pytest.mark.parametrize("flags", sorted(FLAG_VALUES))
def test_every_flag_set_takes_the_pattern(flags):
    line = _join(_set(_fields(capture_lines()[0]), "flgs", flags))
    record = herafile._written_line()(line)
    assert record is not None and record.flgs == FLAG_VALUES[flags]
    assert record == herafile._parse_general(line, 1)


# -- edited lines ------------------------------------------------------------

_NUMBERS = [name for name, kind in _KINDS.items() if kind in ("int", "oint", "time", "otime")]
_TIMES = [name for name, kind in _KINDS.items() if kind in ("time", "otime")]
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _set(fields, name: str, value: str) -> list[list[str]]:
    return [[field, value if field == name else text] for field, text in fields]


def _value(fields, name: str) -> str:
    return dict(fields)[name]


def _whole_and_fraction(fields, name: str) -> tuple[str, str]:
    whole, _, fraction = (_value(fields, name) or "7.250000").partition(".")
    return whole, fraction


@st.composite
def edited_lines(draw) -> str:
    fields = draw(written_fields())
    edit = draw(st.sampled_from(("swap", "unknown", "plus", "short fraction", "long fraction",
                                 "non-ascii digits", "empty saddr", "trailing CR",
                                 "duplicate")))
    if edit == "swap":
        i, j = draw(st.lists(st.integers(0, len(fields) - 1), min_size=2, max_size=2,
                             unique=True))
        fields[i], fields[j] = fields[j], fields[i]
    elif edit == "unknown":
        position = draw(st.integers(0, len(fields)))
        fields.insert(position, [draw(st.sampled_from(("zz", "tcpopt", "x-y"))),
                                 draw(_TEXT)])
    elif edit == "plus":
        name = draw(st.sampled_from([n for n in _NUMBERS if n not in _TIMES]))
        fields = _set(fields, name, "+" + (_value(fields, name).lstrip("-") or "80"))
    elif edit == "short fraction":  # 1.5, and 0 to 5 digits in general
        name = draw(st.sampled_from(_TIMES))
        whole, fraction = _whole_and_fraction(fields, name)
        fields = _set(fields, name, f"{whole}.{fraction[:draw(st.integers(0, 5))]}")
    elif edit == "long fraction":
        name = draw(st.sampled_from(_TIMES))
        whole, fraction = _whole_and_fraction(fields, name)
        fields = _set(fields, name, f"{whole}.{fraction}{draw(st.integers(0, 9))}")
    elif edit == "non-ascii digits":  # ١.0, and the field's own digits
        name = draw(st.sampled_from(_NUMBERS))
        text = _value(fields, name).translate(_ARABIC_INDIC)
        fields = _set(fields, name, text or "١.0")
    elif edit == "empty saddr":
        fields = _set(fields, "saddr", "")
    elif edit == "duplicate":
        fields.insert(draw(st.integers(0, len(fields))), list(draw(st.sampled_from(fields))))
    line = _join(fields)
    return line + "\r" if edit == "trailing CR" else line


@settings(max_examples=400, deadline=None, derandomize=True)
@given(edited_lines())
def test_an_edited_line_reads_as_the_general_reader_reads_it(line):
    assert herafile._written_line()(line) is None
    assert_readers_agree(line)


def _edit_first_capture_line(edit) -> str:
    return edit(_fields(capture_lines()[0]))


@pytest.mark.parametrize("edit", [
    lambda f: _join([f[1], f[0], *f[2:]]),
    lambda f: _join(f[:5] + [["zz", "1"]] + f[5:]),
    lambda f: _join(_set(f, "sport", "+80")),
    lambda f: _join(_set(f, "stime", "1.5")),
    lambda f: _join(_set(f, "stime", "1.50000")),
    lambda f: _join(_set(f, "stime", "1.5000001")),
    lambda f: _join(_set(f, "stime", "١.0")),
    lambda f: _join(_set(f, "stime", "١.000000")),
    lambda f: _join(_set(f, "dport", "٨٠")),
    lambda f: _join(_set(f, "saddr", "")),
    lambda f: _join(f) + "\r",
    lambda f: _join(f + [f[7]]),
], ids=["swapped", "unknown-field", "plus-80", "1.5", "5-digit-fraction", "7-digit-fraction",
        "arabic-indic-1.0", "arabic-indic-time", "arabic-indic-port", "empty-saddr",
        "trailing-cr", "duplicate-field"])
def test_each_edit_reads_as_the_general_reader_reads_it(edit):
    line = _edit_first_capture_line(edit)
    assert herafile._written_line()(line) is None
    assert_readers_agree(line)


def test_fields_in_another_order_read_as_the_same_record():
    line = capture_lines()[0]
    tokens = line.split(" ")
    assert parse_line(" ".join(reversed(tokens)), 1) == parse_line(line, 1)


def test_a_value_past_ints_digit_limit_is_left_to_the_general_reader():
    line = _edit_first_capture_line(lambda f: _join(_set(f, "spkts", "9" * 5000)))
    assert herafile._written_line()(line) is None
    assert_readers_agree(line)


@pytest.mark.parametrize("field, value", [("spkts", "9" * 5000), ("stime", "9" * 5000 + ".5"),
                                          ("sipmin", "-" + "1" * 35 + ".000000"),
                                          ("spkts", "1" + "0" * 40),
                                          ("stime", "00" + "1" + "0" * 34 + ".000000")])
def test_a_value_over_40_digits_is_refused_before_it_is_converted(field, value):
    line = _edit_first_capture_line(lambda f: _join(_set(f, field, value)))
    assert outcome(parse_line, line) == (
        "CorruptRecord", f"value over 40 digits {herafile.excerpt(value)}")


@pytest.mark.parametrize("field, value, read_as", [
    ("spkts", "0" * 5000 + "7", "7"), ("spkts", "-" + "0" * 5000, "0"),
    ("stime", "0" * 5000 + "1.500000", "1.500000"), ("sipmin", "-0001.5", "-1.500000"),
])
def test_leading_zeros_past_ints_digit_limit_do_not_count(field, value, read_as):
    fields = _fields(capture_lines()[1])
    assert (parse_line(_join(_set(fields, field, value)), 1)
            == parse_line(_join(_set(fields, field, read_as)), 1))


# -- the pattern's tables ----------------------------------------------------


def _template_function(template: str):
    """The function of one argument that a kind's kernel template is."""
    namespace = {"FLAG_TEXT": FLAG_TEXT, "FLAG_VALUES": FLAG_VALUES, "us_to_text": us_to_text}
    return eval("lambda x: " + template.replace("$", "x"), namespace)


def test_written_forms_cover_exactly_the_value_kinds():
    samples = {
        "int": [0, -7, 10**30], "oint": [None, 0, -3], "str": ["", "tcp", "2001:db8::1"],
        "ostr": [None, "CON"], "time": [0, -1, 1_500_000], "otime": [None, -SEC, 7],
        "bool": [False, True], "flags": range(64),
    }
    assert samples.keys() == herafile.KIND_CONVERTERS.keys()
    for kind, (to_text, from_text, pattern, written_from_text) in herafile.KIND_CONVERTERS.items():
        to_text, written_from_text = map(_template_function, (to_text, written_from_text))
        for value in samples[kind]:
            text = to_text(value)
            assert re.fullmatch(pattern, text), (kind, text)
            assert written_from_text(text) == from_text(text) == value, (kind, text)


def test_writing_never_compiles_the_pattern(tmp_path, monkeypatch):
    monkeypatch.delenv("HERA_WORKSPACE", raising=False)
    capture = tmp_path / "cap.pcap"
    capture.write_bytes(_capture())
    herafile._written_line.cache_clear()
    assert main(["run", "--pcap", str(capture), "--flows-dir", str(tmp_path / "flows"),
                 "--csv-dir", str(tmp_path / "csv")]) == 0
    assert main(["export", "--pcap", str(capture), "--out", str(tmp_path / "out")]) == 0
    assert herafile._written_line.cache_info().currsize == 0
    read_hera(tmp_path / "out" / "cap.hera")
    assert herafile._written_line.cache_info().currsize == 1
