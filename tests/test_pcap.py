import io
import ipaddress
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_builder as pb
from decode_oracle import decode_frame
from hera import cli
from hera.cli import main
from hera.errors import HeraError
from hera.flows import FLAG_TEXT, ExportConfig
from hera.herafile import HeraHeader, read_hera, write_hera
from hera.pcap import (
    MAX_RECORD_BYTES,
    CaptureReader,
    DecodedPacket,
    address_text,
    open_capture,
)
from hera.timefmt import address_to_text
from helpers import collect_flows
from test_flows import FLAG_BITS


def write(tmp_path, data: bytes):
    path = tmp_path / "capture.pcap"
    path.write_bytes(data)
    return path


def first_packet(path):
    """The first packet a capture decodes, or None."""
    with open_capture(path) as reader:
        return reader.next_packet()


def decoded(path) -> list:
    """Every packet a capture decodes."""
    with open_capture(path) as reader:
        return list(reader)


# -- global header ------------------------------------------------------


# A capture's first packet, at 1.234567 s: its time reads back only if the
# byte order and the time resolution of the magic number were read.
def first_ts_us(tmp_path, endian: str, magic: int) -> int:
    nano = magic == pb.MAGIC_NANO
    data = pb.pcap([pb.record(1_234_567, syn_frame_54(), endian=endian, nano=nano)],
                   endian=endian, magic=magic)
    return first_packet(write(tmp_path, data)).ts_us


def test_little_endian_micro_magic(tmp_path):
    data = pb.pcap([], endian="<", magic=pb.MAGIC_MICRO)
    assert data[:4] == bytes.fromhex("d4c3b2a1")
    assert first_ts_us(tmp_path, "<", pb.MAGIC_MICRO) == 1_234_567


def test_big_endian_nano_magic(tmp_path):
    data = pb.pcap([], endian=">", magic=pb.MAGIC_NANO)
    assert data[:4] == bytes.fromhex("a1b23c4d")
    assert first_ts_us(tmp_path, ">", pb.MAGIC_NANO) == 1_234_567


def test_big_endian_micro_magic(tmp_path):
    data = pb.pcap([], endian=">", magic=pb.MAGIC_MICRO)
    assert data[:4] == bytes.fromhex("a1b2c3d4")
    assert first_ts_us(tmp_path, ">", pb.MAGIC_MICRO) == 1_234_567


def test_little_endian_nano_magic(tmp_path):
    data = pb.pcap([], endian="<", magic=pb.MAGIC_NANO)
    assert data[:4] == bytes.fromhex("4d3cb2a1")
    assert first_ts_us(tmp_path, "<", pb.MAGIC_NANO) == 1_234_567


def test_empty_file_is_truncated_header(tmp_path):
    path = write(tmp_path, b"")
    with pytest.raises(HeraError) as err:
        open_capture(path)
    assert str(err.value) == f"{path}: file shorter than a magic number"


def test_short_header_is_truncated(tmp_path):
    path = write(tmp_path, pb.pcap([])[:10])
    with pytest.raises(HeraError) as err:
        open_capture(path)
    assert str(err.value) == f"{path}: file shorter than the global header"


def test_bad_magic(tmp_path):
    path = write(tmp_path, b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)
    with pytest.raises(HeraError) as err:
        open_capture(path)
    assert str(err.value) == f"{path}: magic 0a0d0d0a is not classic PCAP"


def test_unsupported_linktype(tmp_path):
    path = write(tmp_path, pb.pcap([], linktype=113))
    with pytest.raises(HeraError) as err:
        open_capture(path)
    assert str(err.value) == f"{path}: unsupported linktype 113"


def test_snaplen_and_linktype_parsed(tmp_path):
    """An Ethernet frame decodes, and the snaplen sets the record limit."""
    snaplen = 2 * MAX_RECORD_BYTES
    data = pb.pcap([pb.record(0, syn_frame_54()), pb.record(0, b"", incl_len=snaplen + 1)],
                   snaplen=snaplen)
    path = write(tmp_path, data)
    with open_capture(path) as reader:
        assert reader.next_packet().proto == "tcp"
        with pytest.raises(HeraError) as err:
            reader.next_packet()
    assert str(err.value) == (f"{path}: record 1 claims {snaplen + 1} bytes, "
                              f"more than the {snaplen}-byte limit")


# -- the hand-built 54-byte SYN frame -----------------------------------


def syn_frame_54() -> bytes:
    """Minimal Ethernet+IPv4+TCP SYN, every byte written out by hand."""
    eth = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + b"\x08\x00"
    ipv4 = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,  # version 4, IHL 5
        0,  # TOS
        40,  # total length: 20 IP + 20 TCP
        0,
        0,
        64,  # TTL
        6,  # TCP
        0,
        bytes([10, 0, 0, 1]),
        bytes([10, 0, 0, 2]),
    )
    tcp = struct.pack("!HHIIHHHH", 1234, 80, 0, 0, (5 << 12) | 0x02, 64240, 0, 0)
    frame = eth + ipv4 + tcp
    assert len(frame) == 54
    return frame


def test_decode_tcp_syn(tmp_path):
    path = write(tmp_path, pb.pcap([pb.record(1_700_000_000_000_000, syn_frame_54())]))
    with open_capture(path) as reader:
        pkt = reader.next_packet()
        assert isinstance(pkt, DecodedPacket)
        assert pkt.ts_us == 1_700_000_000_000_000
        assert pkt.src_addr == "10.0.0.1"
        assert pkt.dst_addr == "10.0.0.2"
        assert pkt.src_port == 1234
        assert pkt.dst_port == 80
        assert pkt.proto == "tcp"
        assert pkt.tcp_flags == pb.SYN
        assert pkt.payload_bytes == 0
        assert pkt.ip_bytes == 40
        assert pkt.ttl == 64
        assert pkt.tcp_window == 64240
        assert pkt.ip_version == 4
        assert reader.next_packet() is None


def test_nano_timestamps_truncate(tmp_path):
    rec = pb.record(0, syn_frame_54(), endian="<", nano=True)
    # rewrite the fraction by hand: 1 s + 999 ns must floor to 1.000000
    rec = struct.pack("<IIII", 1, 999, 54, 54) + rec[16:]
    path = write(tmp_path, pb.pcap([rec], magic=pb.MAGIC_NANO))
    pkt = first_packet(path)
    assert pkt.ts_us == 1_000_000


def test_micro_fraction_passes_through(tmp_path):
    path = write(tmp_path, pb.pcap([pb.record(2_000_123, syn_frame_54())]))
    assert first_packet(path).ts_us == 2_000_123


# -- lengths ------------------------------------------------------------


def test_ip_bytes_prefers_header_claim_under_snaplen(tmp_path):
    frame = pb.udp4_frame("10.0.0.1", "10.0.0.2", 4000, 53, payload=b"x" * 100)
    # keep only the first 60 captured bytes, as a snaplen-limited capture would
    rec = pb.record(0, frame[:60], orig_len=len(frame))
    pkt = first_packet(write(tmp_path, pb.pcap([rec], snaplen=60)))
    assert isinstance(pkt, DecodedPacket)
    assert pkt.ip_bytes == 20 + 8 + 100
    assert pkt.payload_bytes == 100


def test_ip_bytes_falls_back_to_wire_length(tmp_path):
    seg = pb.udp(4000, 53, b"abc")
    frame = pb.ethernet(pb.ipv4("10.0.0.1", "10.0.0.2", 17, seg, total_length=0), pb.ETHERTYPE_IPV4)
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert pkt.ip_bytes == len(frame) - 14


# -- link layer variants -------------------------------------------------


def test_vlan_unwrap(tmp_path):
    inner = pb.ipv4("10.0.0.1", "10.0.0.2", 17, pb.udp(5000, 53))
    ethertype, tagged = pb.vlan_tag(pb.ETHERTYPE_IPV4, inner, vlan_id=7)
    frame = pb.ethernet(tagged, ethertype)
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert isinstance(pkt, DecodedPacket)
    assert pkt.vlan_id == 7
    assert pkt.proto == "udp"


def test_double_vlan_skipped(tmp_path):
    inner = pb.ipv4("10.0.0.1", "10.0.0.2", 17, pb.udp(5000, 53))
    t1, once = pb.vlan_tag(pb.ETHERTYPE_IPV4, inner, vlan_id=7)
    t2, twice = pb.vlan_tag(t1, once, vlan_id=8, tpid=pb.ETHERTYPE_QINQ)
    frame = pb.ethernet(twice, t2)
    with open_capture(write(tmp_path, pb.pcap([pb.record(0, frame)]))) as reader:
        assert reader.next_packet() is None
        assert reader.skipped == {"unsupported-encapsulation": 1}
        assert reader.record_index == 1


def test_arp_skipped_as_non_ip(tmp_path):
    frame = pb.ethernet(b"\x00" * 28, 0x0806)
    with open_capture(write(tmp_path, pb.pcap([pb.record(0, frame)]))) as reader:
        assert reader.next_packet() is None
        assert reader.skipped == {"non-ip": 1}
        assert reader.record_index == 1


def test_raw_ip_linktype(tmp_path):
    packet = pb.ipv4("192.168.1.1", "192.168.1.2", 17, pb.udp(1111, 53, b"q"))
    path = write(tmp_path, pb.pcap([pb.record(0, packet)], linktype=pb.LINKTYPE_RAW_IP))
    pkt = first_packet(path)
    assert pkt.src_addr == "192.168.1.1"
    assert pkt.proto == "udp"


# -- IPv6 ----------------------------------------------------------------


def test_ipv6_tcp(tmp_path):
    seg = pb.tcp(443, 50000, pb.SYN | pb.ACK, window=1024)
    frame = pb.ethernet(
        pb.ipv6("2001:db8::1", "2001:db8::2", 6, seg, hop_limit=57, traffic_class=0x20),
        pb.ETHERTYPE_IPV6,
    )
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert pkt.src_addr == "2001:db8::1"
    assert pkt.proto == "tcp"
    assert pkt.tcp_flags == pb.SYN | pb.ACK
    assert pkt.ttl == 57
    assert pkt.tos == 0x20
    assert pkt.ip_version == 6
    assert pkt.ip_bytes == 40 + 20


def test_ipv6_extension_header_walk(tmp_path):
    seg = pb.udp(53, 53, b"z")
    frame = pb.ethernet(
        pb.ipv6("2001:db8::1", "2001:db8::2", 17, seg, ext_headers=[(0, b"\x00" * 4)]),
        pb.ETHERTYPE_IPV6,
    )
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert isinstance(pkt, DecodedPacket)
    assert pkt.proto == "udp"
    assert pkt.src_port == 53


@pytest.mark.parametrize("ext_type", [51, 60], ids=["authentication", "destination-options"])
@pytest.mark.parametrize("body", [b"\x00" * 10, b"\x00" * 22], ids=["10-octet", "22-octet"])
def test_ipv6_extension_header_decodes_as_built(tmp_path, ext_type, body):
    """The builder writes an Authentication Header's length in 4-octet
    units minus 2 and every other header's in 8-octet units minus 1, so
    both chains decode to the ports and payload they were built with."""
    frame = pb.ethernet(pb.ipv6("2001:db8::1", "2001:db8::2", 17, pb.udp(53, 5353, b"dns"),
                                ext_headers=[(ext_type, body)]), pb.ETHERTYPE_IPV6)
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert (pkt.proto, pkt.src_port, pkt.dst_port, pkt.payload_bytes) == ("udp", 53, 5353, 3)


def test_ipv6_fragment(tmp_path):
    # fragment header with nonzero offset: no transport header follows
    frag = struct.pack("!BBHI", 17, 0, (100 << 3), 1)
    inner = pb.ipv6("2001:db8::1", "2001:db8::2", 44, frag + b"\xaa" * 16)
    frame = pb.ethernet(inner, pb.ETHERTYPE_IPV6)
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert isinstance(pkt, DecodedPacket)
    assert pkt.is_fragment
    assert (pkt.src_port, pkt.dst_port) == (0, 0)


# -- TCP flags ---------------------------------------------------------------


def test_tcp_flags_keep_the_six_classic_bits(tmp_path):
    """Every value of the nine TCP flag bits (NS, CWR and ECE included)
    decodes to its six classic bits, which render as the letters they
    name and survive a .hera write and read as the same int."""
    values = range(0x200)
    frames = [pb.record(value, pb.tcp4_frame("10.0.0.1", "10.0.0.2", 1024 + value, 80, value))
              for value in values]
    with open_capture(write(tmp_path, pb.pcap(frames))) as reader:
        packets = list(reader)
    assert [p.tcp_flags for p in packets] == [value & 0x3F for value in values]
    for p in packets:
        assert FLAG_TEXT[p.tcp_flags] == "".join(
            letter for letter in "SAFRPU" if p.tcp_flags & FLAG_BITS[letter])
    records = collect_flows(packets, ExportConfig(emit_management=False))
    write_hera(tmp_path / "flags.hera", HeraHeader(), records)
    read_back = read_hera(tmp_path / "flags.hera").records
    assert [r.flgs for r in read_back] == [r.flgs for r in records] == [p.tcp_flags for p in packets]


def test_tcp_later_fragment_has_no_flags(tmp_path):
    frame = pb.ethernet(
        pb.ipv4("10.0.0.1", "10.0.0.2", 6, b"\xbb" * 30, flags_frag=185),
        pb.ETHERTYPE_IPV4,
    )
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert pkt.is_fragment and pkt.proto == "tcp"
    assert pkt.tcp_flags == 0


# -- address text ----------------------------------------------------------


# Each address with the text hera writes for its bytes: RFC 5952
# compressed lower-case IPv6, as `ipaddress` writes it, and IPv4-mapped
# addresses in hex groups on every Python (socket.inet_ntop, and
# `ipaddress` from Python 3.13 on, would write `::ffff:1.2.3.4`).
ADDRESS_TEXTS = [
    ("0.0.0.0", "0.0.0.0"),
    ("255.255.255.255", "255.255.255.255"),
    ("10.0.0.1", "10.0.0.1"),
    ("::", "::"),
    ("::1", "::1"),
    ("2001:0DB8:0:0:1:0:0:1", "2001:db8::1:0:0:1"),
    ("fe80::1ff:fe23:4567:890a", "fe80::1ff:fe23:4567:890a"),
    ("::1.2.3.4", "::102:304"),
    ("::ffff:1.2.3.4", "::ffff:102:304"),
]


def address_frame(src: str, dst: str) -> bytes:
    ip = pb.ipv4 if ipaddress.ip_address(src).version == 4 else pb.ipv6
    return ip(src, dst, 17, pb.udp(1111, 53, b"q"))


@pytest.mark.parametrize("address, text", ADDRESS_TEXTS, ids=[a for a, _ in ADDRESS_TEXTS])
def test_address_text_is_ipaddress_text(tmp_path, address, text):
    raw = ipaddress.ip_address(address).packed
    assert text == address_to_text(ipaddress.ip_address(raw))
    if "ffff" not in text:
        assert text == str(ipaddress.ip_address(raw))
    peer = "192.0.2.1" if len(raw) == 4 else "2001:db8::ff"
    data = pb.pcap([pb.record(0, address_frame(address, peer)),
                    pb.record(1, address_frame(peer, address))],
                   linktype=pb.LINKTYPE_RAW_IP)
    out, back = decoded(write(tmp_path, data))
    assert (out.src_addr, back.dst_addr) == (text, text)


def test_more_addresses_than_the_cache_holds(tmp_path):
    maxsize = address_text.cache_info().maxsize
    n = maxsize // 2 + 100
    endpoints = [(f"10.{i >> 8}.{i & 255}.1", f"172.16.{i >> 8}.{i & 255}") for i in range(n)]
    endpoints += [(f"2001:db8::{i:x}", "2001:db8:1::1") for i in range(n)]
    expected = [(str(ipaddress.ip_address(src)), str(ipaddress.ip_address(dst)))
                for src, dst in endpoints]
    assert len({addr for pair in expected for addr in pair}) > maxsize
    path = write(tmp_path, pb.pcap(
        [pb.record(i, address_frame(src, dst)) for i, (src, dst) in enumerate(endpoints)],
        linktype=pb.LINKTYPE_RAW_IP))
    for _ in range(2):  # the second pass decodes addresses evicted in the first
        packets = decoded(path)
        assert [(p.src_addr, p.dst_addr) for p in packets] == expected
        info = address_text.cache_info()
        assert info.currsize <= info.maxsize == 4096


# -- IPv4 fragments and other transports ---------------------------------


def test_ipv4_later_fragment_has_zero_ports(tmp_path):
    frame = pb.ethernet(
        pb.ipv4("10.0.0.1", "10.0.0.2", 17, b"\xbb" * 30, flags_frag=185),
        pb.ETHERTYPE_IPV4,
    )
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert pkt.is_fragment
    assert (pkt.src_port, pkt.dst_port) == (0, 0)
    assert pkt.proto == "udp"


def test_icmp_echo_decode(tmp_path):
    frame = pb.icmp4_frame("10.0.0.1", "10.0.0.9", 8, 0, payload=b"ping")
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert pkt.proto == "icmp"
    assert (pkt.src_port, pkt.dst_port) == (8, 0)
    assert pkt.tcp_flags is None


def test_icmpv6_maps_to_icmp(tmp_path):
    body = struct.pack("!BBH", 128, 0, 0) + b"\x00" * 4
    frame = pb.ethernet(pb.ipv6("2001:db8::1", "2001:db8::2", 58, body), pb.ETHERTYPE_IPV6)
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert pkt.proto == "icmp"
    assert (pkt.src_port, pkt.dst_port) == (128, 0)


def test_other_protocol_named_by_number(tmp_path):
    frame = pb.ethernet(pb.ipv4("10.0.0.1", "10.0.0.2", 47, b"\x00" * 8), pb.ETHERTYPE_IPV4)
    pkt = first_packet(write(tmp_path, pb.pcap([pb.record(0, frame)])))
    assert pkt.proto == "47"
    assert (pkt.src_port, pkt.dst_port) == (0, 0)
    assert pkt.tcp_flags is None


# -- record-level failure modes ------------------------------------------


def test_truncated_record_aborts_with_index(tmp_path):
    good = pb.record(0, syn_frame_54())
    bad = struct.pack("<IIII", 1, 0, 100, 100) + b"\x00" * 20
    path = write(tmp_path, pb.pcap([good, bad]))
    with open_capture(path) as reader:
        assert isinstance(reader.next_packet(), DecodedPacket)
        with pytest.raises(HeraError) as err:
            reader.next_packet()
        assert str(err.value) == f"{path}: record 1 truncated at end of file"


class ReadSizes(io.BytesIO):
    """A capture file that records the size of every read asked of it."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


@pytest.mark.parametrize("snaplen", [65535, 2 * MAX_RECORD_BYTES])
def test_oversized_record_is_rejected_before_reading_it(tmp_path, snaplen, capsys):
    good = pb.record(0, syn_frame_54())
    limit = max(snaplen, MAX_RECORD_BYTES)
    bad = struct.pack("<IIII", 1, 0, 0xFFFFFFF0, 60) + b"\x00" * 60
    data = pb.pcap([good, good, bad], snaplen=snaplen)
    fp = ReadSizes(data)
    reader = CaptureReader(fp, name="crafted.pcap")
    assert isinstance(reader.next_packet(), DecodedPacket)
    assert isinstance(reader.next_packet(), DecodedPacket)
    with pytest.raises(HeraError) as err:
        reader.next_packet()
    assert max(fp.sizes) <= limit
    assert str(err.value) == (f"crafted.pcap: record 2 claims {0xFFFFFFF0} bytes, "
                              f"more than the {limit}-byte limit")

    path = write(tmp_path, data)
    assert main(["export", "--pcap", str(path), "--out", str(tmp_path / "flows")]) == 2
    assert "record 2 claims" in capsys.readouterr().err


def test_record_at_the_limit_is_read(tmp_path):
    frame = syn_frame_54() + b"\x00" * (MAX_RECORD_BYTES - 54)
    fp = ReadSizes(pb.pcap([pb.record(0, frame)]))
    assert isinstance(CaptureReader(fp).next_packet(), DecodedPacket)
    assert fp.sizes == [24, 16, MAX_RECORD_BYTES]


def test_record_over_the_limit_is_read_in_chunks_of_it():
    frame = syn_frame_54() + b"\x00" * (2 * MAX_RECORD_BYTES + 100 - 54)
    fp = ReadSizes(pb.pcap([pb.record(0, frame)], snaplen=4 * MAX_RECORD_BYTES))
    packet = CaptureReader(fp).next_packet()
    assert isinstance(packet, DecodedPacket) and packet.proto == "tcp"
    assert fp.sizes == [24, 16, MAX_RECORD_BYTES, MAX_RECORD_BYTES, 100]


# A 104-byte capture whose snaplen lets its one record claim 10^9 bytes.
HUGE_CLAIM = pb.pcap([struct.pack("<IIII", 1, 0, 10**9, 60) + b"\x00" * 64],
                     snaplen=0xFFFFFFFF)


def test_record_claiming_more_than_the_file_stops_at_the_first_short_chunk():
    assert len(HUGE_CLAIM) == 104
    fp = ReadSizes(HUGE_CLAIM)
    with pytest.raises(HeraError) as err:
        CaptureReader(fp, name="huge.pcap").next_packet()
    assert str(err.value) == "huge.pcap: record 0 truncated at end of file"
    assert fp.sizes == [24, 16, MAX_RECORD_BYTES]


def test_record_claiming_more_than_the_file_exits_2_under_a_memory_limit(tmp_path):
    pytest.importorskip("resource")
    limit = 600 * 2**20  # address space, for the child process only
    path = write(tmp_path, HUGE_CLAIM)
    argv = ["export", "--pcap", str(path), "--out", str(tmp_path / "flows")]
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
              "from hera.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("HERA_WORKSPACE", None)
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=120)
    assert (child.returncode, child.stderr) == (
        2, f"hera: {path}: record 0 truncated at end of file\n")
    assert not (tmp_path / "flows").exists()


def test_prefix_cut_at_record_boundary_is_fine(tmp_path):
    recs = [pb.record(i, syn_frame_54()) for i in range(3)]
    data = pb.pcap(recs)
    prefix = data[: 24 + 2 * (16 + 54)]
    with open_capture(write(tmp_path, prefix)) as reader:
        out = list(reader)
        assert len(out) == 2


def test_truncated_transport_is_skipped_not_fatal(tmp_path):
    frame = pb.tcp4_frame("10.0.0.1", "10.0.0.2", 1, 2, pb.SYN)
    cut = frame[: 14 + 20 + 10]  # TCP header cut short
    with open_capture(write(tmp_path, pb.pcap([pb.record(0, cut), pb.record(1, syn_frame_54())]))) as reader:
        packet = reader.next_packet()
        assert isinstance(packet, DecodedPacket) and packet.ts_us == 1
        assert reader.skipped == {"truncated-frame": 1}
        assert reader.record_index == 2


def test_totality_decoded_plus_skipped_equals_records(tmp_path):
    recs = [
        pb.record(0, syn_frame_54()),
        pb.record(1, pb.ethernet(b"\x00" * 28, 0x0806)),
        pb.record(2, pb.udp4_frame("1.1.1.1", "2.2.2.2", 5, 6)),
    ]
    with open_capture(write(tmp_path, pb.pcap(recs))) as reader:
        decoded = len(list(reader))
        assert decoded + sum(reader.skipped.values()) == reader.record_index == 3
        assert reader.skipped == {"non-ip": 1}


def test_decode_twice_is_identical(tmp_path):
    recs = [pb.record(i * 1000, pb.udp4_frame("1.1.1.1", "2.2.2.2", 5, 6, payload=bytes([i]))) for i in range(10)]
    path = write(tmp_path, pb.pcap(recs))
    assert decoded(path) == decoded(path)


# -- the decoder against the per-layer oracle ---------------------------------

_V6_EXTENSION_TYPES = (0, 43, 60, 51, 44)  # hop-by-hop, routing, dest-opts, AH, fragment


@st.composite
def _transports(draw, v6: bool) -> tuple[int, bytes]:
    """(protocol number, transport bytes) of TCP, UDP, ICMP, ICMPv6 or
    another protocol."""
    payload = draw(st.binary(max_size=24))
    kind = draw(st.sampled_from(("tcp", "udp", "icmp", "other")))
    if kind == "tcp":
        return 6, pb.tcp(draw(st.integers(0, 65535)), draw(st.integers(0, 65535)),
                         draw(st.integers(0, 0x1FF)), seq=draw(st.integers(0, 2**32 - 1)),
                         window=draw(st.integers(0, 65535)), payload=payload,
                         data_offset_words=draw(st.integers(0, 15)))
    if kind == "udp":
        return 17, pb.udp(draw(st.integers(0, 65535)), draw(st.integers(0, 65535)), payload)
    if kind == "icmp":
        number = draw(st.sampled_from((1, 58)) if v6 else st.just(1))
        return number, pb.icmp(draw(st.integers(0, 255)), draw(st.integers(0, 255)), payload)
    return draw(st.integers(0, 255)), payload


@st.composite
def _ip_packets(draw) -> tuple[int, bytes]:
    """(IP version, packet): IPv4 with options and any fragment word, or
    IPv6 behind a chain of extension headers."""
    if draw(st.booleans()):
        proto, transport = draw(_transports(v6=False))
        ihl_words = draw(st.integers(5, 15))
        return 4, pb.ipv4(
            "10.0.0.1", draw(st.sampled_from(("10.0.0.2", "192.168.1.254", "0.0.0.0"))),
            proto, transport, ttl=draw(st.integers(0, 255)), tos=draw(st.integers(0, 255)),
            flags_frag=draw(st.sampled_from((0, 0x4000, 0x2000, 1, 0x1FFF)) | st.integers(0, 65535)),
            total_length=draw(st.none() | st.integers(0, 65535)), ihl_words=ihl_words,
            options=draw(st.binary(min_size=(ihl_words - 5) * 4, max_size=(ihl_words - 5) * 4)))
    proto, transport = draw(_transports(v6=True))
    # A fragment header's body starts with its fragment word: an offset in
    # 8-byte units, then three flag bits.
    fragment = st.builds(struct.pack, st.just("!HI"),
                         st.sampled_from((0, 1, 7, 8, 9, 15, 16, 0xFFF8)) | st.integers(0, 65535),
                         st.integers(0, 2**32 - 1))
    extensions = draw(st.lists(st.sampled_from(_V6_EXTENSION_TYPES).flatmap(
        lambda kind: st.tuples(st.just(kind), fragment if kind == 44 else st.binary(max_size=14))),
        max_size=4))
    return 6, pb.ipv6("2001:db8::1", draw(st.sampled_from(("2001:db8::2", "::1", "::ffff:1.2.3.4"))),
                      proto, transport, hop_limit=draw(st.integers(0, 255)),
                      traffic_class=draw(st.integers(0, 255)), ext_headers=extensions)


@st.composite
def _frames(draw) -> tuple[bool, bytes, int]:
    """(Ethernet link, frame, orig_len): an IP packet as raw IP or behind
    Ethernet with no, one or two 802.1Q/QinQ tags, then cut short and
    overwritten at random."""
    version, packet = draw(_ip_packets())
    ethernet = draw(st.booleans())
    if ethernet:
        ethertype = draw(st.sampled_from(
            (pb.ETHERTYPE_IPV4 if version == 4 else pb.ETHERTYPE_IPV6, pb.ETHERTYPE_IPV4,
             pb.ETHERTYPE_IPV6, 0x0806)))
        for _ in range(draw(st.integers(0, 2))):
            ethertype, packet = pb.vlan_tag(
                ethertype, packet, vlan_id=draw(st.integers(0, 0xFFFF)),
                tpid=draw(st.sampled_from((pb.ETHERTYPE_VLAN, pb.ETHERTYPE_QINQ))))
        packet = pb.ethernet(packet, ethertype)
    frame = bytearray(packet[:draw(st.integers(0, len(packet)))] if draw(st.booleans()) else packet)
    for position, value in draw(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)),
                                         max_size=3)):
        if position < len(frame):
            frame[position] = value
    orig_len = draw(st.sampled_from((len(frame), len(packet), 0, 2**32 - 1))
                    | st.integers(0, 2**32 - 1))
    return ethernet, bytes(frame), orig_len


def _assert_decodes_as_the_oracle(ethernet: bool, frame: bytes, orig_len: int) -> None:
    linktype = pb.LINKTYPE_ETHERNET if ethernet else pb.LINKTYPE_RAW_IP
    reader = CaptureReader(io.BytesIO(pb.global_header(linktype=linktype)))
    got = reader._decode(1_500_000, frame, orig_len)
    want = decode_frame(ethernet, 1_500_000, frame, orig_len)
    assert got == want
    assert type(got) is type(want)
    if isinstance(want, DecodedPacket):
        assert [type(value) for value in got] == [type(value) for value in want]


@settings(max_examples=1000, deadline=None)
@given(_frames())
def test_the_decoder_returns_what_the_per_layer_oracle_returns(case):
    _assert_decodes_as_the_oracle(*case)


def test_every_prefix_of_every_header_chain_decodes_as_the_oracle():
    tagged_type, tagged = pb.vlan_tag(pb.ETHERTYPE_IPV4, pb.ipv4(
        "10.0.0.1", "10.0.0.2", 6, pb.tcp(1, 2, pb.ACK), ihl_words=6, options=b"\x01" * 4))
    outer_type, double = pb.vlan_tag(tagged_type, tagged, tpid=pb.ETHERTYPE_QINQ)
    extensions = [(0, b"\x00" * 4), (43, b"\x00" * 6), (60, b"\x00" * 4),
                  (44, b"\x00\x09\x00\x00\x00\x01"), (51, b"\x00" * 10)]
    packets = [
        pb.ipv4("10.0.0.1", "10.0.0.2", 17, pb.udp(53, 5353, b"dns")),
        pb.ipv4("10.0.0.1", "10.0.0.2", 17, b"\x00" * 8, flags_frag=0x2003),
        pb.ipv6("2001:db8::1", "2001:db8::2", 58, pb.icmp(128, 0, b"ping"), ext_headers=extensions),
        pb.ipv6("2001:db8::1", "2001:db8::2", 6, pb.tcp(1, 2, pb.SYN), ext_headers=extensions[:3]),
        pb.ipv4("10.0.0.1", "10.0.0.2", 47, b"gre!"),
    ]
    frames = [(True, pb.ethernet(tagged, tagged_type)), (True, pb.ethernet(double, outer_type))]
    for packet in packets:
        frames += [(False, packet), (True, pb.ethernet(packet, pb.ETHERTYPE_IPV4
                                                       if packet[0] >> 4 == 4 else pb.ETHERTYPE_IPV6))]
    for ethernet, frame in frames:
        for length in range(len(frame) + 1):
            _assert_decodes_as_the_oracle(ethernet, frame[:length], len(frame))
