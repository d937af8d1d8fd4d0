"""Size and time units used throughout the reproduction.

All sizes are plain integers in **bytes** and all times are floats in
**seconds**.  The paper reports sizes in KB (meaning KiB: the 64KB PVFS2
striping unit is 65536 bytes) and block-level request sizes in 512-byte
sectors; these constants keep call sites readable.
"""

from __future__ import annotations

#: Bytes per kibibyte.  The paper's "KB" is binary (64KB stripe = 65536 B).
KiB: int = 1024
#: Bytes per mebibyte.
MiB: int = 1024 * KiB
#: Bytes per gibibyte.
GiB: int = 1024 * MiB

#: Disk sector size: the unit of the dispatch-size histograms in the
#: paper's Figs. 2(c)-(e) and 5 (0.5 KB).
SECTOR: int = 512

#: One millisecond / microsecond, in seconds.
MS: float = 1e-3
US: float = 1e-6


def to_sectors(nbytes: int) -> int:
    """Convert a byte count to whole 512-byte sectors (rounding up)."""
    return -(-int(nbytes) // SECTOR)


def mib_per_s(nbytes: float, seconds: float) -> float:
    """Throughput in MiB/s for ``nbytes`` moved in ``seconds``.

    Returns 0.0 for a degenerate (zero or negative) duration so that
    report code never divides by zero on empty runs.
    """
    if seconds <= 0.0:
        return 0.0
    return nbytes / float(MiB) / seconds


def fmt_size(nbytes: int) -> str:
    """Human-readable size string (binary units), e.g. ``'64KiB'``."""
    n = float(nbytes)
    for suffix, unit in (("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if abs(n) >= unit:
            value = n / unit
            if value == int(value):
                return f"{int(value)}{suffix}"
            return f"{value:.1f}{suffix}"
    return f"{int(n)}B"
