"""Golden hashes: `hera run` over captures that reach every decoder branch.

Four small captures, one per magic number (both byte orders, micro- and
nanosecond resolution), over Ethernet and raw IP, carry 802.1Q and
802.1ad tags, IPv4 options, IPv4 fragments, IPv6 extension and fragment
headers, TCP, UDP, ICMP, ICMPv6 and another protocol, and one record of
every skip reason. `hera run --features all --gt` runs over them in `ra`
and `racluster` mode, and the sha256 of every output is pinned. A change
to any output byte fails here; a deliberate format change must update
the hashes and say why.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

import pcap_builder as pb
from hera.cli import main

SEC = 1_000_000
T0 = 1_600_000_000 * SEC

A4, B4, C4 = "10.0.0.1", "10.0.0.2", "192.168.7.9"
A6, B6 = "2001:db8::1", "2001:db8::2"

GT = (
    "StartTime,LastTime,Proto,SrcAddr,Sport,DstAddr,Dport,Label\n"
    f"{T0 // SEC},{T0 // SEC + 30},tcp,{A4},40000,{B4},80,Exploit\n"
    f",,udp,,,{B4},53,DNS\n"
    f",,icmp,,,,,Probe\n"
    f",,,{A6},,,,Recon\n"
)


def _raw_record(endian: str, nano: bool, ts_us: int, frame: bytes, *,
                sub_us: int = 0, orig_len: int | None = None) -> bytes:
    """A record header with an odd nanosecond remainder, which the reader
    truncates to the microsecond."""
    sec, rem = divmod(ts_us, SEC)
    frac = rem * 1000 + sub_us if nano else rem
    wire = len(frame) if orig_len is None else orig_len
    return struct.pack(endian + "IIII", sec, frac, len(frame), wire) + frame


def _eth4(ip: bytes) -> bytes:
    return pb.ethernet(ip, pb.ETHERTYPE_IPV4)


def _eth6(ip: bytes) -> bytes:
    return pb.ethernet(ip, pb.ETHERTYPE_IPV6)


def _tcp4(src, dst, sport, dport, flags, payload=b"", **ip) -> bytes:
    return pb.ipv4(src, dst, 6, pb.tcp(sport, dport, flags, payload=payload,
                                       seq=7000 + sport), **ip)


def _ethernet_frames() -> list[tuple[int, bytes, int | None]]:
    """(offset in µs, frame, orig_len or None) for an Ethernet capture."""
    S, A, F, R, P, U = pb.SYN, pb.ACK, pb.FIN, pb.RST, pb.PSH, pb.URG
    vlan_type, vlan_body = pb.vlan_tag(pb.ETHERTYPE_IPV4,
                                       pb.ipv4(A4, C4, 17, pb.udp(5000, 53, b"q" * 12)),
                                       vlan_id=42)
    qinq_type, qinq_body = pb.vlan_tag(pb.ETHERTYPE_IPV4,
                                       _tcp4(C4, A4, 2222, 22, S), vlan_id=9,
                                       tpid=pb.ETHERTYPE_QINQ)
    double_type, double_body = pb.vlan_tag(pb.ETHERTYPE_VLAN, b"\x00" * 30)
    frag_payload = pb.udp(6000, 53, b"f" * 40)
    big_tcp = _tcp4(A4, B4, 40000, 80, P | A, b"x" * 400)
    ext = [(0, b"\x00" * 4), (43, b"\x00" * 6), (60, b"\x00" * 12)]
    return [
        # a full TCP lifecycle with payload, every flag, and a handshake
        (0, _eth4(_tcp4(A4, B4, 40000, 80, S, ttl=61, tos=8)), None),
        (1_200, _eth4(_tcp4(B4, A4, 80, 40000, S | A, ttl=55)), None),
        (2_500, _eth4(_tcp4(A4, B4, 40000, 80, A)), None),
        (3_000, _eth4(_tcp4(A4, B4, 40000, 80, P | A | U, b"GET / HTTP/1.0\r\n\r\n")), None),
        (4_100, _eth4(_tcp4(B4, A4, 80, 40000, P | A, b"y" * 300)), None),
        # cut short by the snap length: the IP header keeps the true size
        (4_900, _eth4(big_tcp)[:80], len(_eth4(big_tcp))),
        (6_000, _eth4(_tcp4(A4, B4, 40000, 80, F | A)), None),
        (7_000, _eth4(_tcp4(B4, A4, 80, 40000, F | A)), None),
        (7_500, _eth4(_tcp4(A4, B4, 40000, 80, A)), None),
        # a reset flow, IPv4 options, and a TCP header with options
        (8_000, _eth4(_tcp4(C4, B4, 51000, 443, S, options=b"\x01\x01\x01\x00",
                            ihl_words=6)), None),
        (9_000, _eth4(pb.ipv4(B4, C4, 6, pb.tcp(443, 51000, R | A, data_offset_words=6,
                                                options=b"\x01\x01\x01\x00"))), None),
        # UDP, ICMP echo, and a protocol with no ports (GRE)
        (10_000, _eth4(pb.ipv4(A4, B4, 17, pb.udp(5353, 53, b"d" * 20))), None),
        (11_000, _eth4(pb.ipv4(B4, A4, 17, pb.udp(53, 5353, b"r" * 60))), None),
        (12_000, _eth4(pb.ipv4(A4, B4, 1, pb.icmp(8, 0, b"ping"))), None),
        (13_000, _eth4(pb.ipv4(B4, A4, 1, pb.icmp(0, 0, b"ping"))), None),
        (14_000, _eth4(pb.ipv4(A4, B4, 47, b"\x00" * 24)), None),
        # a header whose total length is below its own header length
        (15_000, _eth4(pb.ipv4(A4, B4, 47, b"\x00" * 8, total_length=4)), None),
        # IPv4 fragments: the first keeps its ports, a later one has none
        (16_000, _eth4(pb.ipv4(A4, B4, 17, frag_payload[:24], ident=77,
                               flags_frag=0x2000, total_length=44)), None),
        (16_500, _eth4(pb.ipv4(A4, B4, 17, frag_payload[24:], ident=77,
                               flags_frag=3)), None),
        # 802.1Q and 802.1ad single tags
        (17_000, pb.ethernet(vlan_body, vlan_type), None),
        (18_000, pb.ethernet(qinq_body, qinq_type), None),
        # IPv6: TCP, UDP through extension headers, ICMPv6, fragments
        (19_000, _eth6(pb.ipv6(A6, B6, 6, pb.tcp(41000, 443, S), traffic_class=4)), None),
        (19_400, _eth6(pb.ipv6(B6, A6, 6, pb.tcp(443, 41000, S | A))), None),
        (20_000, _eth6(pb.ipv6(A6, B6, 17, pb.udp(7000, 53, b"six"), ext_headers=ext)),
         None),
        (21_000, _eth6(pb.ipv6(A6, B6, 58, pb.icmp(128, 0, b"echo"))), None),
        (22_000, _eth6(pb.ipv6(A6, B6, 17, pb.udp(7001, 53, b"a" * 16),
                               ext_headers=[(44, struct.pack("!HI", 0x0001, 5))])), None),
        (22_500, _eth6(pb.ipv6(A6, B6, 17, b"b" * 16,
                               ext_headers=[(44, struct.pack("!HI", 0x0018, 5))])), None),
        # an authentication header, whose length counts 4-byte words
        (23_000, _eth6(pb.ipv6(A6, B6, 51, struct.pack("!BBH", 17, 2, 0) + b"\x00" * 12
                               + pb.udp(7002, 53, b"ah"))), None),
        # one record for each skip reason
        (24_000, pb.ethernet(b"\x00" * 28, 0x0806), None),  # ARP: non-ip
        (24_100, b"\x00" * 10, None),  # shorter than an Ethernet header
        (24_200, pb.ethernet(b"\x00\x07", pb.ETHERTYPE_VLAN), None),  # cut-off tag
        (24_300, pb.ethernet(double_body, double_type), None),  # two tags
        (24_400, _eth4(b"\x45" + b"\x00" * 10), None),  # IPv4 under 20 bytes
        (24_500, _eth4(b"\x65" + b"\x00" * 19), None),  # version 6 in an IPv4 frame
        (24_600, _eth4(pb.ipv4(A4, B4, 6, b"", ihl_words=4)[:20]), None),  # IHL < 5
        (24_700, _eth4(pb.ipv4(A4, B4, 6, b"\x00" * 12)), None),  # short TCP
        (24_800, _eth4(pb.ipv4(A4, B4, 17, b"\x00" * 4)), None),  # short UDP
        (24_900, _eth4(pb.ipv4(A4, B4, 1, b"\x00" * 2)), None),  # short ICMP
        (25_000, _eth6(b"\x60" + b"\x00" * 30), None),  # IPv6 under 40 bytes
        (25_100, _eth6(b"\x40" + b"\x00" * 39), None),  # version 4 in an IPv6 frame
        (25_200, _eth6(pb.ipv6(A6, B6, 0, b"")), None),  # extension header cut off
        (25_300, _eth6(pb.ipv6(A6, B6, 44, b"\x11\x00\x00")), None),  # fragment cut off
        # a second slice of the UDP flow, an idle gap, then a packet
        # further back than the slack
        (5_200_000, _eth4(pb.ipv4(A4, B4, 17, pb.udp(5353, 53, b"late"))), None),
        (12 * SEC, _eth4(pb.ipv4(B4, A4, 17, pb.udp(53, 5353, b"later"))), None),
        (9 * SEC, _eth4(pb.ipv4(A4, B4, 17, pb.udp(5353, 53, b"stale"))), None),
    ]


def _raw_frames() -> list[tuple[int, bytes, int | None]]:
    """(offset in µs, frame, orig_len or None) for a raw-IP capture."""
    return [
        (0, _tcp4(A4, B4, 40001, 8080, pb.SYN), None),
        (900, _tcp4(B4, A4, 8080, 40001, pb.SYN | pb.ACK), None),
        (1_700, _tcp4(A4, B4, 40001, 8080, pb.ACK | pb.PSH, b"raw"), None),
        (2_000, pb.ipv6(A6, B6, 17, pb.udp(7100, 53, b"v6raw")), None),
        (3_000, pb.ipv4(C4, B4, 1, pb.icmp(3, 1, b"\x00" * 28)), None),
        (4_000, b"", None),  # empty frame: truncated
        (4_100, b"\x50" + b"\x00" * 30, None),  # version 5: non-ip
        (5_000, pb.ipv6(A6, B6, 99, b"\x00" * 10), None),  # other protocol over IPv6
    ]


CAPTURES = {
    # stem: (endian, nano, linktype, frames)
    "le_micro_eth": ("<", False, pb.LINKTYPE_ETHERNET, _ethernet_frames),
    "be_nano_eth": (">", True, pb.LINKTYPE_ETHERNET, _ethernet_frames),
    "be_micro_raw": (">", False, pb.LINKTYPE_RAW_IP, _raw_frames),
    "le_nano_raw": ("<", True, pb.LINKTYPE_RAW_IP, _raw_frames),
}


def _write_captures(directory) -> None:
    for offset, (stem, (endian, nano, linktype, frames)) in enumerate(CAPTURES.items()):
        magic = pb.MAGIC_NANO if nano else pb.MAGIC_MICRO
        records = [
            _raw_record(endian, nano, T0 + offset * 40 * SEC + at, frame,
                        sub_us=(i * 137) % 1000, orig_len=orig_len)
            for i, (at, frame, orig_len) in enumerate(frames())
        ]
        pb.write(directory / f"{stem}.pcap", records, endian=endian, magic=magic,
                 linktype=linktype, snaplen=200)


GOLDEN = {
    "ra": {
        "flows/be_micro_raw.hera":
            "c7b085a0db7d9af65210d36cbc8474393e6bc8f1fc94f534f37a09d84883b2dc",
        "flows/be_micro_raw.stats.txt":
            "fa09fd007b7eb676ec833aedc38b9f94747aa922e8ca40c1f7404e9b920f72a4",
        "flows/be_nano_eth.hera":
            "0cf3ddd2210d5067f8bbfe12d5b41227c0df3530da170788e80b5f01791576df",
        "flows/be_nano_eth.stats.txt":
            "a3548f8e3e0781a9891e18b8ef6ab234db01fe905d11ac41a3f529bd045391e8",
        "flows/le_micro_eth.hera":
            "e420516c677c8829f5238dc1b01ff7302cb82683922676bcc4f4302a75442ed9",
        "flows/le_micro_eth.stats.txt":
            "a3548f8e3e0781a9891e18b8ef6ab234db01fe905d11ac41a3f529bd045391e8",
        "flows/le_nano_raw.hera":
            "cd554044418960f2279cf5ed16d282ae4453264f52982e7abec7c7610565636b",
        "flows/le_nano_raw.stats.txt":
            "fa09fd007b7eb676ec833aedc38b9f94747aa922e8ca40c1f7404e9b920f72a4",
        "csv/be_micro_raw.csv":
            "a3f0bff7bf4e94891c0334df6a9654b9eb9273c069c7f065b10c995fb2c8e923",
        "csv/be_micro_raw.labelled.csv":
            "38fefd30185a9d336a234c906432d918037dc315f394a3731c68b11b58ed3cfe",
        "csv/be_micro_raw.labels.txt":
            "dfebcf9a68dc98ef008b42d6a49cf414f0d52132f36597ba4f5d3fef2e157a46",
        "csv/be_micro_raw.stats.txt":
            "fa09fd007b7eb676ec833aedc38b9f94747aa922e8ca40c1f7404e9b920f72a4",
        "csv/be_nano_eth.csv":
            "7a5ee16adb20775123e114c315a4d8d3b7288b72a65f2ddc10cd5332ada1ada4",
        "csv/be_nano_eth.labelled.csv":
            "cff61cf388ef125857f66898ca72404457fb11021fdef2c8d54507b727689ba3",
        "csv/be_nano_eth.labels.txt":
            "e3423d91e612985e7282ab141e9653e74734ad1af40eed88f623006788fff237",
        "csv/be_nano_eth.stats.txt":
            "a3548f8e3e0781a9891e18b8ef6ab234db01fe905d11ac41a3f529bd045391e8",
        "csv/le_micro_eth.csv":
            "bc5d1c7dc5469c0e97d59722a49722c09f82690889b0002a0e6867df55e983d2",
        "csv/le_micro_eth.labelled.csv":
            "07d957047bc1818180fe9e7ef0a27f5540b4081e8ff19417585e6051b1fe8601",
        "csv/le_micro_eth.labels.txt":
            "2d93f7b814c26d55fef2e806e649f9fe070a3d88d1fe0e745bd7601b733174ca",
        "csv/le_micro_eth.stats.txt":
            "a3548f8e3e0781a9891e18b8ef6ab234db01fe905d11ac41a3f529bd045391e8",
        "csv/le_nano_raw.csv":
            "eb8d59f260b5b4024f6a16cc1b61e9533d93c587883a51033aeb22fb6a4ef86e",
        "csv/le_nano_raw.labelled.csv":
            "a42f6c1d72768895d9b23139c84aff148bb7733350a79da42ae12dd8bad1bdf0",
        "csv/le_nano_raw.labels.txt":
            "dfebcf9a68dc98ef008b42d6a49cf414f0d52132f36597ba4f5d3fef2e157a46",
        "csv/le_nano_raw.stats.txt":
            "fa09fd007b7eb676ec833aedc38b9f94747aa922e8ca40c1f7404e9b920f72a4",
    },
    "racluster": {
        "flows/be_micro_raw.hera":
            "c7b085a0db7d9af65210d36cbc8474393e6bc8f1fc94f534f37a09d84883b2dc",
        "flows/be_micro_raw.stats.txt":
            "fa09fd007b7eb676ec833aedc38b9f94747aa922e8ca40c1f7404e9b920f72a4",
        "flows/be_nano_eth.hera":
            "0cf3ddd2210d5067f8bbfe12d5b41227c0df3530da170788e80b5f01791576df",
        "flows/be_nano_eth.stats.txt":
            "a3548f8e3e0781a9891e18b8ef6ab234db01fe905d11ac41a3f529bd045391e8",
        "flows/le_micro_eth.hera":
            "e420516c677c8829f5238dc1b01ff7302cb82683922676bcc4f4302a75442ed9",
        "flows/le_micro_eth.stats.txt":
            "a3548f8e3e0781a9891e18b8ef6ab234db01fe905d11ac41a3f529bd045391e8",
        "flows/le_nano_raw.hera":
            "cd554044418960f2279cf5ed16d282ae4453264f52982e7abec7c7610565636b",
        "flows/le_nano_raw.stats.txt":
            "fa09fd007b7eb676ec833aedc38b9f94747aa922e8ca40c1f7404e9b920f72a4",
        "csv/be_micro_raw.csv":
            "96da8797e79a6559a6cd6c0d2f0f171f9f25a57e0b39c2eff8bd1535f91ba0a6",
        "csv/be_micro_raw.labelled.csv":
            "6ebb9d9e82cf41a00cece8167bdd3782e2baaf15dc15cf35bf35a139d142b9df",
        "csv/be_micro_raw.labels.txt":
            "a5b1858a47a50b3e6e878ea440c5e3d4e077a6e7f061ddfa482996e354564f2e",
        "csv/be_micro_raw.stats.txt":
            "07b7e4135c93335813ea49555586fe426130517c8994a27e5ff78f697eda57f0",
        "csv/be_nano_eth.csv":
            "cdbbc703b31d1c2d0476d987623eacd91d402e74be0d1e751a5ad6b3117b5354",
        "csv/be_nano_eth.labelled.csv":
            "a04a78164ff3c320c821b28d4f541cbeaeb2841d535a23d7d668303902a45531",
        "csv/be_nano_eth.labels.txt":
            "82d04c94e7811937f778fdfcb7dbf21a9fddf35aa4fa25b2ea1435709fa6552c",
        "csv/be_nano_eth.stats.txt":
            "5ee1e7400a256bfb124ec3e7943491277d095bda1823fbe8a72ed776516f4824",
        "csv/le_micro_eth.csv":
            "e0fc147f2fc5f661479b58d1dfe2071477f1ec5c94a48ddd58a89a1abf35e9ac",
        "csv/le_micro_eth.labelled.csv":
            "46c994a94cdfeadfb936dc73c4b661e25f57b1c2806c9963ecca7d1a1c09d732",
        "csv/le_micro_eth.labels.txt":
            "477f339e7acbde5f983e1a047a8abe7a37ff095ff0b3ebc210ad5525aee629e2",
        "csv/le_micro_eth.stats.txt":
            "5ee1e7400a256bfb124ec3e7943491277d095bda1823fbe8a72ed776516f4824",
        "csv/le_nano_raw.csv":
            "bab60a084f6fc2f6defc3a1064eefaa2ca09a03a9d73efcb0c5e3ef1b0777ad2",
        "csv/le_nano_raw.labelled.csv":
            "9b6c5f395cc6bae7cc7099ba9a0dd8808eafbde644350ed08140a7989c287c49",
        "csv/le_nano_raw.labels.txt":
            "a5b1858a47a50b3e6e878ea440c5e3d4e077a6e7f061ddfa482996e354564f2e",
        "csv/le_nano_raw.stats.txt":
            "07b7e4135c93335813ea49555586fe426130517c8994a27e5ff78f697eda57f0",
    },
}


def _run_hashes(tmp_path, monkeypatch, mode: str) -> dict[str, str]:
    monkeypatch.delenv("HERA_WORKSPACE", raising=False)
    inputs = tmp_path / "in"
    inputs.mkdir()
    _write_captures(inputs)
    (inputs / "gt.csv").write_text(GT)
    argv = ["run", "--pcap", str(inputs / "*.pcap"), "--gt", str(inputs / "gt.csv"),
            "--features", "all", "--mode", mode, "--interval", "5", "--idle-timeout", "5.5", "--slack", "0.5",
            "--flows-dir", str(tmp_path / "flows"), "--csv-dir", str(tmp_path / "csv")]
    if mode == "ra":
        argv.append("--keep-management")
    assert main(argv) == 0
    return {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "flows").iterdir()) + sorted((tmp_path / "csv").iterdir())
    }


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_run_outputs_match_golden_hashes(tmp_path, monkeypatch, mode):
    assert _run_hashes(tmp_path, monkeypatch, mode) == GOLDEN[mode]
