"""A fixed reference program that measures how fast the machine runs now.

    python3 perfbench/calibrate.py [ROUNDS]

The host this benchmark runs on is shared: the same process can take
40-70% longer for minutes at a time while other tenants are busy. The
runner starts this program, in a fresh interpreter as it starts hera,
before every measured process, and scales every end-to-end time by
REFERENCE_S / (this program's wall time in the same run). A slow phase
of the machine slows both and cancels out, while a slower hera still
reads slower.

It does the same kinds of work as a hera invocation and depends on
nothing in the repository: start an interpreter, import the standard
modules hera imports and build an argument parser, then unpack
fixed-format records from a byte buffer, keep flows in a dict keyed by
tuples, update counters and float statistics on small objects, and
format the flows as CSV text.
"""

import argparse
import collections  # noqa: F401
import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import glob  # noqa: F401
import ipaddress  # noqa: F401
import logging  # noqa: F401
import math  # noqa: F401
import pathlib  # noqa: F401
import random
import struct
import sys
import typing  # noqa: F401

# Wall seconds of one run of this program, with ROUNDS rounds, on the
# machine the baseline was recorded on when other tenants did not slow
# it. Only a scale: changing it scales every reported time alike.
REFERENCE_S = 0.116
ROUNDS = 1

RECORD = struct.Struct("!IIHHBxH")


class _Flow:
    __slots__ = ("packets", "bytes", "first", "last", "mean", "m2")

    def __init__(self, ts: float):
        self.packets = 0
        self.bytes = 0
        self.first = self.last = ts
        self.mean = self.m2 = 0.0

    def update(self, ts: float, size: int) -> None:
        self.packets += 1
        self.bytes += size
        self.last = ts
        delta = size - self.mean
        self.mean += delta / self.packets
        self.m2 += delta * (size - self.mean)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in ("export", "dataset", "label", "run"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--in", dest="src")
        cmd.add_argument("--out")
        cmd.add_argument("--interval", type=float, default=60.0)
    return parser


def one_round(buffer: bytes) -> int:
    flows: dict = {}
    ts = 0.0
    for src, dst, sport, dport, proto, size in RECORD.iter_unpack(buffer):
        ts += 0.001
        key = (proto, src, sport, dst, dport)
        flow = flows.get(key)
        if flow is None:
            flow = flows[key] = _Flow(ts)
        flow.update(ts, size)
    rows = [
        f"{key[0]},{key[1]},{key[2]},{key[3]},{key[4]},{f.packets},{f.bytes},"
        f"{f.last - f.first:.6f},{f.mean:.3f},{(f.m2 / f.packets) ** 0.5:.3f}"
        for key, f in sorted(flows.items())
    ]
    return len("\n".join(rows))


def main(rounds: int) -> None:
    build_parser()
    rng = random.Random(20250113)
    buffer = b"".join(
        RECORD.pack(rng.getrandbits(12), rng.getrandbits(8), rng.randrange(1024, 1124),
                    rng.choice((53, 80, 443)), rng.choice((6, 17)), rng.randrange(40, 1500))
        for _ in range(6000)
    )
    for _ in range(rounds):
        one_round(buffer)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else ROUNDS)
