"""Reference frame decoder: the chain of one function per layer that
`CaptureReader` used before its decoder became one function.

`decode_frame` slices out each layer and hands it to the next layer's
function. It shares only the packet type, the skip reasons and the
address text with the package, so a disagreement with
`CaptureReader._decode` points at the one-function decoder.
"""

from __future__ import annotations

import struct

from hera.pcap import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_QINQ,
    ETHERTYPE_VLAN,
    PROTO_NAMES,
    SKIP_ENCAPSULATION,
    SKIP_NON_IP,
    SKIP_TRUNCATED_FRAME,
    DecodedPacket,
    address_text,
)

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_TCP = struct.Struct(">HHIIBBH")
_PORTS = struct.Struct(">HH")

_V6_EXTENSIONS = {0, 43, 60}
_V6_FRAGMENT = 44
_V6_AUTH = 51


def decode_frame(ethernet: bool, ts_us: int, data: bytes, orig_len: int):
    """The DecodedPacket of one frame, or the reason it is skipped."""
    vlan_id = None
    if ethernet:
        if len(data) < 14:
            return SKIP_TRUNCATED_FRAME
        ethertype = _U16.unpack_from(data, 12)[0]
        offset = 14
        if ethertype in (ETHERTYPE_VLAN, ETHERTYPE_QINQ):
            if len(data) < 18:
                return SKIP_TRUNCATED_FRAME
            vlan_id = _U16.unpack_from(data, 14)[0] & 0x0FFF
            ethertype = _U16.unpack_from(data, 16)[0]
            offset = 18
            if ethertype in (ETHERTYPE_VLAN, ETHERTYPE_QINQ):
                return SKIP_ENCAPSULATION
        if ethertype == ETHERTYPE_IPV4:
            version = 4
        elif ethertype == ETHERTYPE_IPV6:
            version = 6
        else:
            return SKIP_NON_IP
    else:  # raw IP: the IP version nibble picks the parser
        if not data:
            return SKIP_TRUNCATED_FRAME
        version = data[0] >> 4
        offset = 0
        if version not in (4, 6):
            return SKIP_NON_IP
    wire_ip_len = max(orig_len - offset, 0)
    if version == 4:
        return decode_ipv4(ts_us, data[offset:], wire_ip_len, vlan_id)
    return decode_ipv6(ts_us, data[offset:], wire_ip_len, vlan_id)


def decode_ipv4(ts_us, ip, wire_ip_len, vlan_id):
    if len(ip) < 20:
        return SKIP_TRUNCATED_FRAME
    ver_ihl = ip[0]
    if ver_ihl >> 4 != 4:
        return SKIP_NON_IP
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        return SKIP_TRUNCATED_FRAME
    tos = ip[1]
    total_len = _U16.unpack_from(ip, 2)[0]
    frag_offset = _U16.unpack_from(ip, 6)[0] & 0x1FFF  # in 8-byte units
    ttl = ip[8]
    proto_num = ip[9]
    src = address_text(ip[12:16])
    dst = address_text(ip[16:20])
    ip_bytes = total_len if total_len >= ihl else wire_ip_len
    return decode_transport(
        ts_us, 4, src, dst, proto_num, ip[ihl:], ip_bytes, ihl,
        frag_offset > 0, ttl, tos, vlan_id,
    )


def decode_ipv6(ts_us, ip, wire_ip_len, vlan_id):
    if len(ip) < 40:
        return SKIP_TRUNCATED_FRAME
    first_word = _U32.unpack_from(ip)[0]
    if first_word >> 28 != 6:
        return SKIP_NON_IP
    tos = (first_word >> 20) & 0xFF
    payload_len = _U16.unpack_from(ip, 4)[0]
    next_header = ip[6]
    ttl = ip[7]
    src = address_text(ip[8:24])
    dst = address_text(ip[24:40])
    ip_bytes = 40 + payload_len if payload_len else wire_ip_len
    offset = 40
    is_fragment = False
    while True:
        if next_header in _V6_EXTENSIONS or next_header == _V6_AUTH:
            if len(ip) < offset + 2:
                return SKIP_TRUNCATED_FRAME
            ext_len = (
                (ip[offset + 1] + 2) * 4
                if next_header == _V6_AUTH
                else (ip[offset + 1] + 1) * 8
            )
            next_header = ip[offset]
            offset += ext_len
        elif next_header == _V6_FRAGMENT:
            if len(ip) < offset + 8:
                return SKIP_TRUNCATED_FRAME
            frag_word = _U16.unpack_from(ip, offset + 2)[0]
            is_fragment = is_fragment or (frag_word >> 3) > 0
            next_header = ip[offset]
            offset += 8
        else:
            break
        if len(ip) < offset:
            return SKIP_TRUNCATED_FRAME
    return decode_transport(
        ts_us, 6, src, dst, next_header, ip[offset:], ip_bytes, offset,
        is_fragment, ttl, tos, vlan_id,
    )


def decode_transport(
    ts_us, version, src, dst, proto_num, transport, ip_bytes,
    header_len, is_fragment, ttl, tos, vlan_id,
):
    proto = PROTO_NAMES.get(proto_num) or str(proto_num)
    sport = dport = 0
    flags = window = seq = None
    if is_fragment:
        # Later fragments carry no transport header; they flow-key on
        # addresses and protocol with zeroed ports.
        if proto == "tcp":
            flags = 0
    elif proto == "tcp":
        if len(transport) < 20:
            return SKIP_TRUNCATED_FRAME
        sport, dport, seq, _, data_off, flag_bits, window = _TCP.unpack_from(transport)
        header_len += (data_off >> 4) * 4
        flags = flag_bits & 0x3F
    elif proto == "udp":
        if len(transport) < 8:
            return SKIP_TRUNCATED_FRAME
        sport, dport = _PORTS.unpack_from(transport)
        header_len += 8
    elif proto == "icmp":  # no ports: type and code stand in for them
        if len(transport) < 4:
            return SKIP_TRUNCATED_FRAME
        sport, dport = transport[0], transport[1]
        header_len += 8
    return DecodedPacket(
        ts_us, src, dst, sport, dport, proto, ip_bytes,
        max(ip_bytes - header_len, 0), ttl, tos, version,
        is_fragment, flags, window, seq, vlan_id,
    )
