import random

import pytest

from hera import herafile
from hera.dataset import cluster
from hera.errors import CorruptRecord, FlowFileBadMagic, UnsupportedVersion
from hera.flows import ExportConfig, FlowKey, FlowRecord, FlowTable, make_management_record
from hera.herafile import (
    HeraHeader,
    format_record,
    read_hera,
    write_hera,
)
from hera.pcap import DecodedPacket
from helpers import field_names, oriented, parse_line, record_field_names
from test_flows import flag_value

SEC = 1_000_000


def synth_records(n_packets=400, seed=7):
    """Aggregate a reproducible random packet mix into records."""
    rng = random.Random(seed)
    hosts = [f"10.1.{i}.{j}" for i in range(2) for j in range(1, 6)]
    table = FlowTable(ExportConfig(interval_us=30 * SEC))
    ts = 0
    for _ in range(n_packets):
        ts += rng.randrange(0, 2 * SEC)
        proto = rng.choice(["tcp", "tcp", "udp", "icmp"])
        src, dst = rng.sample(hosts, 2)
        flags = None
        if proto == "tcp":
            flags = flag_value(rng.sample("SAFRPU", rng.randrange(0, 3)))
        table.assign(
            DecodedPacket(
                ts_us=ts,
                src_addr=src,
                dst_addr=dst,
                src_port=rng.choice([80, 443, 53, 40000]),
                dst_port=rng.choice([80, 443, 53, 40000]),
                proto=proto,
                ip_bytes=rng.randrange(40, 1500),
                payload_bytes=rng.randrange(0, 1000),
                ttl=rng.choice([64, 128]),
                tos=0,
                ip_version=4,
                tcp_flags=flags,
                tcp_window=8192 if proto == "tcp" else None,
                tcp_seq=rng.randrange(1 << 32) if proto == "tcp" else None,
            )
        )
    return table.flush()


def header_for(records):
    start = min((r.stime_us for r in records), default=None)
    end = max((r.ltime_us for r in records), default=None)
    return HeraHeader(
        sources=["synth.pcap"],
        config=ExportConfig(interval_us=30 * SEC),
        capture_start_us=start,
        capture_end_us=end,
    )


def test_round_trip_empty(tmp_path):
    path = tmp_path / "empty.hera"
    write_hera(path, HeraHeader(sources=["none.pcap"]), [])
    out = read_hera(path)
    assert out.records == []
    assert out.header.sources == ["none.pcap"]


def test_round_trip_field_for_field(tmp_path):
    records = synth_records()
    assert len(records) > 50
    path = tmp_path / "synth.hera"
    write_hera(path, header_for(records), records)
    out = read_hera(path)
    assert len(out.records) == len(records)
    for ours, theirs in zip(records, out.records):
        assert ours == theirs
        assert type(theirs.flgs) is int


def test_round_trip_is_byte_identical(tmp_path):
    records = synth_records()
    first = tmp_path / "a.hera"
    second = tmp_path / "b.hera"
    write_hera(first, header_for(records), records)
    loaded = read_hera(first)
    write_hera(second, loaded.header, loaded.records)
    assert first.read_bytes() == second.read_bytes()


def test_header_echoes_config(tmp_path):
    cfg = ExportConfig(
        interval_us=15 * SEC,
        idle_timeout_us=45 * SEC,
        emit_management=False,
        reorder_slack_us=2 * SEC,
    )
    path = tmp_path / "cfg.hera"
    write_hera(path, HeraHeader(sources=["x.pcap"], config=cfg), [])
    out = read_hera(path).header
    assert out.config == cfg
    text = path.read_text()
    assert text.splitlines()[0] == "#HERA v1"
    assert "#interval=15.000000" in text
    assert "#emit_management=false" in text


def with_lines_edited(tmp_path, edit):
    """(the written file, the same file after edit(its lines))."""
    records = synth_records(n_packets=40)
    written = tmp_path / "written.hera"
    write_hera(written, header_for(records), records)
    lines = written.read_text().splitlines()
    edit(lines)
    edited = tmp_path / "edited.hera"
    edited.write_text("\n".join(lines) + "\n")
    return written, edited


def test_unknown_header_lines_are_skipped(tmp_path):
    def edit(lines):
        lines[1:1] = ["#annotator=bench 3", "#source", "#interval"]
    written, edited = with_lines_edited(tmp_path, edit)
    out = read_hera(edited)
    assert out == read_hera(written)
    again = tmp_path / "again.hera"
    write_hera(again, out.header, out.records)
    assert again.read_bytes() == written.read_bytes()


def test_unknown_record_fields_are_skipped(tmp_path):
    def edit(lines):
        for i, line in enumerate(lines):
            if not line.startswith("#"):
                lines[i] = line + " futurefield=hello"
    written, edited = with_lines_edited(tmp_path, edit)
    out = read_hera(edited)
    assert out == read_hera(written)
    again = tmp_path / "again.hera"
    write_hera(again, out.header, out.records)
    assert again.read_bytes() == written.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.hera"
    path.write_text("#NOTHERA v1\n")
    with pytest.raises(FlowFileBadMagic):
        read_hera(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v2.hera"
    path.write_text("#HERA v2\n")
    with pytest.raises(UnsupportedVersion) as err:
        read_hera(path)
    assert err.value.version == "v2"


def test_empty_file_is_bad_magic(tmp_path):
    path = tmp_path / "empty.hera"
    path.write_bytes(b"")
    with pytest.raises(FlowFileBadMagic):
        read_hera(path)


def corrupt_file(tmp_path, record_line: str):
    path = tmp_path / "corrupt.hera"
    path.write_text("#HERA v1\n" + record_line + "\n")
    return path


def minimal_line(**overrides):
    fields = {
        "saddr": "10.0.0.1",
        "sport": "1",
        "daddr": "10.0.0.2",
        "dport": "2",
        "proto": "udp",
        "stime": "1.000000",
        "ltime": "2.000000",
    }
    fields.update(overrides)
    return " ".join(f"{k}={v}" for k, v in fields.items() if v is not None)


def test_minimal_record_parses():
    rec = parse_line(minimal_line(), 2)
    assert rec.key.proto == "udp"
    assert rec.stime_us == SEC
    # Every field the line leaves out, and every field of each side, takes
    # its declared default.
    expected = FlowRecord(key=FlowKey("10.0.0.1", 1, "10.0.0.2", 2, "udp"), initiator="a",
                          stime_us=SEC, ltime_us=2 * SEC)
    for name in field_names(FlowRecord):
        assert getattr(rec, name) == getattr(expected, name), name
    # Of several bad values, the reason names the first in line order: spkts
    # is a source field, ipsum a record field after the destination's.
    with pytest.raises(CorruptRecord) as err:
        parse_line(minimal_line(spkts="many", ipsum="later"), 2)
    assert err.value.reason == "invalid literal for int() with base 10: 'many'"


def test_flgs_is_a_flag_int_on_every_record_path():
    records = synth_records()
    assert any(rec.flgs for rec in records)
    lines = [format_record(rec) for rec in records]
    paths = {
        "FlowTable.flush": records,
        "written-form reader": [herafile._written_line()(line) for line in lines],
        "general reader": [herafile._parse_general(line, 1) for line in lines],
        "line without flgs": [parse_line(minimal_line(), 2)],
        "cluster": cluster(records),
        "make_management_record": [make_management_record(0, SEC, 3, 120, 1)],
    }
    for path, recs in paths.items():
        assert all(type(rec.flgs) is int and 0 <= rec.flgs < 64 for rec in recs), path
    assert parse_line(minimal_line(), 2).flgs == 0


def test_corrupt_token_reports_line(tmp_path):
    path = corrupt_file(tmp_path, minimal_line() + " notafield")
    with pytest.raises(CorruptRecord) as err:
        read_hera(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("header_line", [
    "#interval=0.000000",
    "#idle_timeout=-1.000000",
    "#reorder_slack=-0.000001",
    "#capture_start=noon",
    "#interval=",
    "#emit_management=banana",
    "#emit_management=yes",
    "#emit_management=1",
    "#reorder_slack=1" + "0" * 34 + ".000000",
    "#capture_start=-1" + "0" * 34,
])
def test_bad_header_value_reports_line(tmp_path, header_line):
    path = corrupt_file(tmp_path, "#source=a.pcap\n" + header_line + "\n" + minimal_line())
    with pytest.raises(CorruptRecord) as err:
        read_hera(path)
    assert err.value.line_number == 3
    assert str(err.value).startswith(f"{path}: line 3: ")


def test_header_config_defaults_idle_timeout_to_interval(tmp_path):
    path = corrupt_file(tmp_path, "#interval=5.000000\n" + minimal_line())
    config = read_hera(path).header.config
    assert (config.interval_us, config.idle_timeout_us) == (5 * SEC, 5 * SEC)


def test_duplicate_field_rejected(tmp_path):
    path = corrupt_file(tmp_path, minimal_line() + " stime=9.000000")
    with pytest.raises(CorruptRecord):
        read_hera(path)


def test_missing_required_field_rejected(tmp_path):
    line = minimal_line(stime=None)
    with pytest.raises(CorruptRecord):
        parse_line(line, 5)


@pytest.mark.parametrize("field, text", [
    ("sport", "http"),
    ("flgs", "XYZ"),
    ("flgs", "AS"),  # out of SAFRPU order
    ("flgs", "SS"),
    ("mgmt", "2"),
    ("mgmt", "yes"),
    ("mgmt", ""),
    ("sport", "8_0"),
    ("dport", "\u0665\u0663"),  # Arabic-Indic 53
    ("stime", "\u0661.0"),  # Arabic-Indic 1
])
def test_value_not_of_its_kind_rejected(field, text):
    with pytest.raises(CorruptRecord) as err:
        parse_line(minimal_line(**{field: text}), 3)
    assert err.value.line_number == 3


def test_key_reconstruction_preserves_direction():
    # source sorts after destination, so the canonical 'a' side is daddr
    line = minimal_line(saddr="10.0.0.9", daddr="10.0.0.1")
    rec = parse_line(line, 2)
    assert oriented(rec).saddr == "10.0.0.9"
    assert oriented(rec).daddr == "10.0.0.1"
    assert rec.initiator == "b"


def test_format_preserves_direction_round_trip():
    line = minimal_line(saddr="10.0.0.9", daddr="10.0.0.1")
    rec = parse_line(line, 2)
    assert parse_line(format_record(rec), 2) == rec


def test_field_name_order_is_fixed():
    names = record_field_names()
    assert len(names) == 79
    assert names[:5] == ["saddr", "sport", "daddr", "dport", "proto"]
    assert names[5:13] == ["stime", "ltime", "runtime", "idle", "slice", "mgmt", "state", "flgs"]
    s_block = names[13:41]
    d_block = names[41:69]
    assert all(n.startswith("s") for n in s_block)
    assert [n[1:] for n in s_block] == [n[1:] for n in d_block]
    assert names[-10:] == [
        "ipsum", "ipsq", "ipmin", "ipmax", "synack", "ackdat",
        "vlan", "ipver", "frag", "flows",
    ]


def test_management_record_round_trip(tmp_path):
    records = synth_records(n_packets=60)
    mgmt = [r for r in records if r.is_management]
    assert mgmt
    path = tmp_path / "m.hera"
    write_hera(path, header_for(records), records)
    out = read_hera(path)
    parsed_mgmt = [r for r in out.records if r.is_management]
    assert parsed_mgmt == mgmt


def test_seq_assigned_in_file_order(tmp_path):
    records = synth_records(n_packets=80)
    path = tmp_path / "s.hera"
    write_hera(path, header_for(records), records)
    out = read_hera(path)
    assert [r.seq for r in out.records] == list(range(len(records)))
