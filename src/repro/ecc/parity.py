"""Parity coding — reference model and gate-level generator.

Used by the improved §6 design for the write buffer ("adding parity bits
to the write buffer") and as the lowest-coverage diagnostic technique of
the IEC 61508 Annex A catalog.
"""

from __future__ import annotations

from ..hdl.builder import Module, Vec


def parity_of(value: int) -> int:
    """Even-parity bit of an integer (1 if an odd number of ones)."""
    return bin(value).count("1") & 1


def encode_parity(value: int, odd: bool = False) -> int:
    """Parity bit making the total (value + parity) even (or odd)."""
    p = parity_of(value)
    return p ^ 1 if odd else p


def check_parity(value: int, parity_bit: int, odd: bool = False) -> bool:
    """True when the stored parity matches the data."""
    return encode_parity(value, odd) == parity_bit


def build_parity(m: Module, data: Vec) -> Vec:
    """Gate-level even-parity generator (balanced XOR tree)."""
    return data.reduce_xor()


def build_parity_checker(m: Module, data: Vec, parity_bit: Vec) -> Vec:
    """Gate-level checker: output is 1 on a parity violation."""
    return build_parity(m, data) ^ parity_bit


def interleaved_parity(value: int, width: int, lanes: int) -> int:
    """Per-lane parity (bit i of result = parity of lane i).

    Interleaving makes adjacent multi-bit upsets land in different
    lanes, a standard memory-protection trick.
    """
    out = 0
    for lane in range(lanes):
        bits = 0
        for i in range(lane, width, lanes):
            bits ^= (value >> i) & 1
        out |= bits << lane
    return out
