"""Rank sets as bitmasks.

A rank set is a subset of [1, n].  Throughout the package it is stored as an
int bitmask where bit (i - 1) stands for the rank i, so the full set [1, n]
is (1 << n) - 1 and the empty set is 0.  Coordinate vectors indexed by rank
sets always run over masks 0, 1, ..., 2**n - 1 in ascending order.
"""

from __future__ import annotations

import re
from typing import Iterator


class RankSetOutOfRange(ValueError):
    """A rank set mask has bits outside the ambient [1, n]."""


def check_mask(mask: int, n: int) -> None:
    """Refuse a mask with bits outside [1, n].  The message lists at most
    eight ranks, so it costs time linear in the mask's width."""
    if mask < 0 or mask >> n:
        shown = (str(mask) if mask < 0 else to_string(mask) if mask.bit_count() <= 8
                 else f"of {mask.bit_count()} ranks up to {mask.bit_length()}")
        raise RankSetOutOfRange(f"rank set {shown} not within [1,{n}]")


def mask_of(elems) -> int:
    """Bitmask of an iterable of ranks (each >= 1)."""
    m = 0
    for e in elems:
        if e < 1:
            raise ValueError(f"rank {e} is not >= 1")
        m |= 1 << (e - 1)
    return m


def elems_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of ranks in a mask, one step per rank in it."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def interval_mask(lo: int, hi: int) -> int:
    """Bitmask of the integer interval [lo, hi], 1 <= lo <= hi."""
    return ((1 << hi) - 1) ^ ((1 << (lo - 1)) - 1)


def to_string(mask: int) -> str:
    """Set literal for a mask: 0 -> "{}", 0b101 -> "{1,3}"."""
    return "{" + ",".join(str(e) for e in elems_of(mask)) + "}"


def parse(text: str, n: int) -> int:
    """Parse a set literal like "{1,3}" or "{}" back to a mask over [1, n].

    Each element must be ASCII digits, spaces around them allowed, named
    once: "{1,1}", "{1,}", "{1;2}", "{1_0}" and "{+2}" are bad rank-set
    literals.  An element above n raises RankSetOutOfRange before any mask
    is built, so a literal like "{100000000}" costs no more than its text.
    """
    s = text.strip()
    if s.startswith('"') and s.endswith('"'):
        s = s[1:-1]
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"not a rank-set literal: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return 0
    parts = [part.strip() for part in body.split(",")]
    ranks = {int(part) for part in parts if part.isascii() and part.isdigit()}
    if len(ranks) != len(parts):
        raise ValueError(f"bad rank-set literal {text!r}")
    if max(ranks) > n:
        listed = ",".join(map(str, sorted(ranks)))
        raise RankSetOutOfRange(f"rank set {{{listed}}} not within [1,{n}]")
    return mask_of(ranks)


def _read_records(text: str, kind: str) -> tuple[int, list[tuple[list[str], str]]]:
    """R of the `KIND rank=R` header, which must come first and once, and
    each later line split into words, with its raw text for messages; '#'
    starts a comment and blank lines are skipped.  R is in ASCII digits."""
    rank = None
    records = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == kind:
            if rank is not None:
                raise ValueError(f"repeated {kind} header")
            header = re.fullmatch(r"rank=([0-9]+)", " ".join(parts[1:]))
            if header is None:
                raise ValueError(f"bad header {raw!r}")
            rank = int(header[1])
        elif rank is None:
            raise ValueError(f"line {raw!r} before {kind} header")
        else:
            records.append((parts, raw))
    if rank is None:
        raise ValueError(f"missing {kind} header")
    return rank, records


def subsets(n: int) -> Iterator[int]:
    """All masks over [1, n] in ascending order."""
    return iter(range(1 << n))


def labels(n: int) -> list[str]:
    """Column labels for vectors indexed by subsets of [1, n]."""
    return [to_string(m) for m in range(1 << n)]
