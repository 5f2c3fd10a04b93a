"""PCAP to labelled flow-dataset toolkit.

Pipeline: classic PCAP captures -> bidirectional flow records (.hera
files) -> feature CSV datasets -> ground-truth labelled datasets. Each
stage is importable on its own; the `hera` console script chains them.
"""

__version__ = "0.1.0"
