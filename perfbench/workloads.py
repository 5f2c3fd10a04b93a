"""Seeded synthetic captures and ground truths for the benchmark.

Frames are assembled with `tests/pcap_builder.py`, so the inputs never
depend on the code under test. The same (workload, seed, scale) always
gives byte-identical files.

A capture mixes ordinary flows with a few records hera must skip
(ARP frames, truncated frames, packets older than the reorder slack).
The generator counts those, so the benchmark can check that every
generated packet is either in a flow or accounted for as a skip. The
ground truth holds exact 5-tuples of real TCP/UDP flows, entries whose
window lies outside the capture, and entries naming absent hosts, so
the expected label of every dataset row is known without running hera.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BASE_US = 1_700_000_000_000_000
SLACK_JUMP_US = 5_000_000  # well beyond hera's default 1 s reorder slack
ATTACK_LABELS = ("Exploits", "DoS", "Reconnaissance", "Fuzzers", "Generic")
DNS_PORT = 53
SERVICE_PORTS = (80, 443, 22, 25, 8080)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "short" or "long": the traffic shape
    flows: int  # ordinary flows at scale 1
    gt_rows: int
    span_s: int  # time span of the capture
    interval_s: int = 60
    features: str = "default"  # a preset, named as `hera dataset --features` takes it
    mode: str = "ra"
    bidirectional: bool = False

    def export_args(self) -> tuple[str, ...]:
        return ("--interval", str(self.interval_s))

    def dataset_args(self) -> tuple[str, ...]:
        return ("--features", self.features, "--mode", self.mode)

    def label_args(self) -> tuple[str, ...]:
        return ("--bidirectional",) if self.bidirectional else ()


WORKLOADS = {
    w.name: w
    for w in (
        # Export-bound: per-packet decode and new-flow/close handling.
        Workload("short-flows", kind="short", flows=1800, gt_rows=200, span_s=600),
        # Dataset-bound: long flows cut into many 10 s slices load the
        # update/slice path, .hera write and read, and 130-column rows.
        Workload("long-flows", kind="long", flows=90, gt_rows=30, span_s=450,
                 interval_s=10, features="all"),
        # Label-bound: mostly benign rows walk a 5,000-entry ground truth.
        # Also the racluster use of the dataset layer.
        Workload("big-ground-truth", kind="short", flows=1000, gt_rows=5000, span_s=600,
                 features="unsw-nb15", mode="racluster", bidirectional=True),
    )
}

SMOKE_SCALE = 0.05


@dataclass
class Inputs:
    """Generated files plus what the generator knows about them."""

    pcap: Path
    ground_truth: Path
    packets: int  # records written to the capture
    skipped: int  # records hera must skip: non-IP, truncated, beyond slack
    expected_labels: dict = field(default_factory=dict)  # 5-tuple -> label


def _pcap_builder():
    """The checkout's tests/pcap_builder.py, imported on first use so that
    importing this module works without it."""
    sys.path.insert(0, str(ROOT / "tests"))
    import pcap_builder

    return pcap_builder


class _Gen:
    def __init__(self, rng: random.Random):
        self.pb = _pcap_builder()
        self.rng = rng
        self.used_keys: set = set()
        self.events: list = []  # (ts_us, order, frame)
        self.attack_candidates: list = []  # (proto, saddr, sport, daddr, dport, start, end)
        self.hosts_v4 = [f"10.{1 + i // 250}.{i % 250}.{1 + (i * 7) % 250}" for i in range(600)]
        self.servers_v4 = [f"192.168.{i // 200}.{1 + i % 200}" for i in range(120)]
        self.hosts_v6 = [f"2001:db8::{i + 1:x}" for i in range(60)]

    def _emit(self, ts, frame):
        self.events.append((ts, len(self.events), frame))

    def _endpoints(self, v6=False, proto="tcp"):
        """(client, sport, server, dport) of a flow key not used before, so
        each flow's 5-tuple names that flow only."""
        while True:
            if v6:
                client, server = self.rng.sample(self.hosts_v6, 2)
            else:
                client = self.rng.choice(self.hosts_v4)
                server = self.rng.choice(self.servers_v4)
            sport = self.rng.randrange(1024, 65536)
            dport = DNS_PORT if proto == "udp-dns" else self.rng.choice(SERVICE_PORTS)
            key = (proto[:3],) + tuple(sorted(((client, sport), (server, dport))))
            if key not in self.used_keys:
                self.used_keys.add(key)
                return client, sport, server, dport

    # -- frame helpers -------------------------------------------------

    def _tcp_frame(self, v6, src, dst, sport, dport, flags, payload_len, vlan):
        seg = self.pb.tcp(sport, dport, flags, payload=b"\x00" * payload_len)
        if v6:
            ip, etype = self.pb.ipv6(src, dst, 6, seg), self.pb.ETHERTYPE_IPV6
        else:
            ip, etype = self.pb.ipv4(src, dst, 6, seg), self.pb.ETHERTYPE_IPV4
        return self._l2(ip, etype, vlan)

    def _udp_frame(self, v6, src, dst, sport, dport, payload_len, vlan):
        dgram = self.pb.udp(sport, dport, b"\x00" * payload_len)
        if v6:
            ip, etype = self.pb.ipv6(src, dst, 17, dgram), self.pb.ETHERTYPE_IPV6
        else:
            ip, etype = self.pb.ipv4(src, dst, 17, dgram), self.pb.ETHERTYPE_IPV4
        return self._l2(ip, etype, vlan)

    def _l2(self, ip, etype, vlan):
        if vlan:
            etype, ip = self.pb.vlan_tag(etype, ip, vlan_id=vlan)
        return self.pb.ethernet(ip, etype)

    # -- short flows ---------------------------------------------------

    def tcp_session(self, start, exchanges, rst, v6=False, vlan=None):
        c, cp, s, sp = self._endpoints(v6)
        pb, rng = self.pb, self.rng
        ts = start
        pkts = [(c, s, cp, sp, pb.SYN, 0), (s, c, sp, cp, pb.SYN | pb.ACK, 0),
                (c, s, cp, sp, pb.ACK, 0)]
        for _ in range(exchanges):
            pkts.append((c, s, cp, sp, pb.PSH | pb.ACK, rng.randint(40, 600)))
            pkts.append((s, c, sp, cp, pb.PSH | pb.ACK, rng.randint(40, 1400)))
        if rst:
            pkts.append((c, s, cp, sp, pb.RST, 0))
        else:
            pkts += [(c, s, cp, sp, pb.FIN | pb.ACK, 0), (s, c, sp, cp, pb.FIN | pb.ACK, 0),
                     (c, s, cp, sp, pb.ACK, 0)]
        for src, dst, a, b, flags, n in pkts:
            self._emit(ts, self._tcp_frame(v6, src, dst, a, b, flags, n, vlan))
            ts += rng.randint(200, 40_000)
        if not v6:
            self.attack_candidates.append(("tcp", c, cp, s, sp, start, ts))

    def dns_pair(self, start, v6=False, vlan=None):
        c, cp, s, sp = self._endpoints(v6, "udp-dns")
        rtt = self.rng.randint(500, 30_000)
        self._emit(start, self._udp_frame(v6, c, s, cp, sp, self.rng.randint(20, 60), vlan))
        self._emit(start + rtt, self._udp_frame(v6, s, c, sp, cp, self.rng.randint(40, 300), vlan))
        if not v6:
            self.attack_candidates.append(("udp", c, cp, s, sp, start, start + rtt))

    def icmp_echo(self, start):
        c = self.rng.choice(self.hosts_v4)
        s = self.rng.choice(self.servers_v4)
        payload = b"\x00" * 56
        self._emit(start, self.pb.icmp4_frame(c, s, 8, 0, payload))
        self._emit(start + self.rng.randint(200, 20_000), self.pb.icmp4_frame(s, c, 0, 0, payload))

    def fragmented_udp(self, start):
        """A 1,680-byte UDP datagram in two IPv4 fragments (MF set, then
        offset 1480); the second carries no ports."""
        c, cp, s, sp = self._endpoints(False, "udp")
        pb = self.pb
        first = pb.ipv4(c, s, 17, pb.udp(cp, sp, b"\x00" * 1472), ident=7, flags_frag=0x2000)
        rest = pb.ipv4(c, s, 17, b"\x00" * 200, ident=7, flags_frag=1480 // 8)
        self._emit(start, pb.ethernet(first, pb.ETHERTYPE_IPV4))
        self._emit(start + 50, pb.ethernet(rest, pb.ETHERTYPE_IPV4))

    def short_mix(self, flows, span_us):
        """70% TCP, 20% UDP DNS, 5% ICMP echo and 5% IPv6 TCP/UDP, with a
        few VLAN-tagged flows and fragmented datagrams. The mix is fixed
        by position, so every seed does the same amount of each kind of
        work; the seed picks addresses, ports, sizes and times."""
        rng = self.rng
        for i in range(flows):
            start = BASE_US + rng.randrange(span_us)
            vlan = 100 + i % 7 if i % 50 == 0 else None
            slot = i % 40
            if i % 97 == 0:
                self.fragmented_udp(start)
            elif slot < 28:
                self.tcp_session(start, exchanges=1 + i % 4, rst=i % 20 < 3, vlan=vlan)
            elif slot < 36:
                self.dns_pair(start, vlan=vlan)
            elif slot < 38:
                self.icmp_echo(start)
            elif slot < 39:
                self.tcp_session(start, exchanges=1 + i % 4, rst=False, v6=True)
            else:
                self.dns_pair(start, v6=True)

    # -- long flows ----------------------------------------------------

    def long_flow(self, start, end, is_tcp):
        """A long-lived TCP or UDP conversation with MTU-sized payloads.

        Gaps stay below the 10 s idle timeout, so the flow is one
        episode that the 10 s interval cuts into many slices."""
        pb, rng = self.pb, self.rng
        c, cp, s, sp = self._endpoints(False, "tcp" if is_tcp else "udp")
        handshake = ((c, s, cp, sp, pb.SYN), (s, c, sp, cp, pb.SYN | pb.ACK), (c, s, cp, sp, pb.ACK))
        close = ((c, s, cp, sp, pb.FIN | pb.ACK), (s, c, sp, cp, pb.FIN | pb.ACK),
                 (c, s, cp, sp, pb.ACK))
        ts = start
        for src, dst, a, b, flags in handshake if is_tcp else ():
            self._emit(ts, self._tcp_frame(False, src, dst, a, b, flags, 0, None))
            ts += rng.randint(1_000, 50_000)
        while ts < end:
            src, dst, a, b = (c, s, cp, sp) if rng.random() < 0.5 else (s, c, sp, cp)
            if is_tcp:
                n = rng.choice((0, 64, 512, 1460, 1460))
                frame = self._tcp_frame(False, src, dst, a, b, pb.PSH | pb.ACK, n, None)
            else:
                frame = self._udp_frame(False, src, dst, a, b, rng.randint(64, 1472), None)
            self._emit(ts, frame)
            ts += rng.randint(2_000_000, 9_000_000)
        for src, dst, a, b, flags in close if is_tcp else ():
            self._emit(ts, self._tcp_frame(False, src, dst, a, b, flags, 0, None))
            ts += rng.randint(1_000, 50_000)
        self.attack_candidates.append(("tcp" if is_tcp else "udp", c, cp, s, sp, start, ts))

    def long_mix(self, flows, span_us):
        """70% TCP; flows last between a third and two thirds of the span,
        spread evenly, so every seed gives about the same packet count."""
        rng = self.rng
        third = span_us // 3
        for i in range(flows):
            start = BASE_US + rng.randrange(third)
            length = third + int(third * (i + rng.random()) / flows)
            self.long_flow(start, start + length, is_tcp=i % 10 < 7)

    # -- records hera skips --------------------------------------------

    def capture_records(self):
        """Sorted records with a few skips spliced in after ordinary
        packets; returns (records, packets, skipped)."""
        self.events.sort()
        rng = self.rng
        n = len(self.events)
        spots = set(rng.sample(range(n), max(3, n // 500)))
        records = []
        skipped = 0
        arp = self.pb.ethernet(b"\x00\x01\x08\x00\x06\x04\x00\x01" + b"\x00" * 20, 0x0806)
        for i, (ts, _, frame) in enumerate(self.events):
            records.append(self.pb.record(ts, frame))
            if i in spots:
                kind = rng.randrange(3)
                if kind == 0:
                    records.append(self.pb.record(ts, arp))
                elif kind == 1:
                    records.append(self.pb.record(ts, frame[:10]))
                else:  # older than the previous accepted packet by more than the slack
                    records.append(self.pb.record(ts - SLACK_JUMP_US, frame))
                skipped += 1
        return records, len(records), skipped

    # -- ground truth --------------------------------------------------

    def ground_truth(self, rows, span_us, end_us):
        """~10% exact 5-tuples of real flows, ~40% outside the capture's
        span, the rest naming absent hosts inside the span."""
        rng = self.rng
        exact_n = max(1, rows // 10)
        # Attacks hit about one flow in twelve; a flow may be listed more
        # than once, as in a real attack schedule, and then the first
        # entry in file order gives its label.
        attacked = rng.sample(self.attack_candidates,
                              min(exact_n, max(1, len(self.attack_candidates) // 12)))
        exact = attacked + [rng.choice(attacked) for _ in range(exact_n - len(attacked))]
        out_n = (rows * 4) // 10
        entries = []
        for proto, c, cp, s, sp, start, end in exact:
            entries.append((start - 1_000_000, end + 1_000_000, proto, c, cp, s, sp,
                            rng.choice(ATTACK_LABELS), True))
        for _ in range(out_n):
            proto, c, cp, s, sp, _, _ = rng.choice(self.attack_candidates)
            duration = rng.randrange(1_000_000, 60_000_000)
            if rng.random() < 0.5:  # ends before the first packet
                t0 = BASE_US - rng.randrange(10_000_000, 3_600_000_000) - duration
            else:  # starts after the last packet
                t0 = end_us + rng.randrange(10_000_000, 3_600_000_000)
            entries.append((t0, t0 + duration, proto, c, cp, s, sp,
                            rng.choice(ATTACK_LABELS), False))
        while len(entries) < rows:
            t0 = BASE_US + rng.randrange(span_us)
            entries.append((t0, t0 + rng.randrange(1_000_000, 120_000_000),
                            rng.choice(("tcp", "udp")),
                            f"172.16.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                            rng.randrange(1024, 65536),
                            f"172.31.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                            rng.choice(SERVICE_PORTS), rng.choice(ATTACK_LABELS), False))
        rng.shuffle(entries)
        lines = [["StartTime", "LastTime", "Proto", "SrcAddr", "Sport", "DstAddr", "Dport", "Label"]]
        expected = {}
        for t0, t1, proto, c, cp, s, sp, label, matches in entries:
            lines.append([_secs(t0), _secs(t1), proto, c, str(cp), s, str(sp), label])
            if matches:
                expected.setdefault((proto, c, cp, s, sp), label)
        return lines, expected


def _secs(us: int) -> str:
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def generate(workload: Workload, seed: int, out_dir: Path, scale: float = 1.0) -> Inputs:
    """Write `<out_dir>/capture.pcap` and `<out_dir>/gt.csv` for one seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    gen = _Gen(rng)
    flows = max(20, round(workload.flows * scale))
    span_us = workload.span_s * 1_000_000
    if workload.kind == "short":
        gen.short_mix(flows, span_us)
    else:
        gen.long_mix(flows, span_us)
    records, packets, skipped = gen.capture_records()
    end_us = max(ts for ts, _, _ in gen.events)
    gt_rows, expected = gen.ground_truth(max(10, round(workload.gt_rows * scale)), span_us, end_us)
    out_dir.mkdir(parents=True, exist_ok=True)
    pcap_path = out_dir / "capture.pcap"
    gen.pb.write(pcap_path, records)
    gt_path = out_dir / "gt.csv"
    with open(gt_path, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(gt_rows)
    return Inputs(pcap_path, gt_path, packets, skipped, expected)


def save(inputs: Inputs) -> None:
    """Write what the generator knows beside the files, as inputs.json."""
    facts = {
        "packets": inputs.packets,
        "skipped": inputs.skipped,
        "expected_labels": [[*key, label] for key, label in inputs.expected_labels.items()],
    }
    (inputs.pcap.parent / "inputs.json").write_text(json.dumps(facts), encoding="utf-8")


def load(out_dir: Path) -> Inputs:
    facts = json.loads((out_dir / "inputs.json").read_text(encoding="utf-8"))
    expected = {tuple(item[:5]): item[5] for item in facts["expected_labels"]}
    return Inputs(out_dir / "capture.pcap", out_dir / "gt.csv",
                  facts["packets"], facts["skipped"], expected)


if __name__ == "__main__":
    # python3 perfbench/workloads.py WORKLOAD SEED OUT_DIR SCALE
    name, seed, out, scale = sys.argv[1:]
    save(generate(WORKLOADS[name], int(seed), Path(out), float(scale)))
