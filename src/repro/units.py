"""Size and time units used throughout the simulator.

All simulated time in the repository is expressed as *integer
nanoseconds* on a :class:`repro.hw.clock.SimClock`.  Integer time keeps
the simulation deterministic: there is no floating point drift, so the
same seed always produces the same checkpoint boundaries, the same
latency histograms and the same on-disk images.

Sizes are plain integers in bytes.  The constants below exist so that
cost-model code reads like the paper ("a 64 KiB stripe", "a 4 KiB
journal write") instead of like arithmetic.
"""

from __future__ import annotations

# --- sizes ----------------------------------------------------------------

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: Page size of the simulated MMU (x86-64 base pages, as in the paper).
PAGE_SIZE = 4 * KiB

#: Stripe unit of the simulated NVMe array (paper: "four Intel Optane
#: 900P PCIe NVMe devices striped at 64 KiB").
STRIPE_SIZE = 64 * KiB

#: Filesystem block, the paper's 64 KiB for every Figure 3 filesystem:
#: the unit of a write's block allocation and mapping update.
FS_BLOCK = 64 * KiB

# --- time -----------------------------------------------------------------

NSEC = 1
USEC = 1000 * NSEC
MSEC = 1000 * USEC
SEC = 1000 * MSEC


def pages_of(nbytes: int) -> int:
    """Number of pages needed to hold ``nbytes`` (rounded up)."""
    if nbytes < 0:
        raise ValueError("byte count must be non-negative")
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE


def fmt_size(nbytes: int) -> str:
    """Human readable size, e.g. ``fmt_size(5 * MiB) == '5.0 MiB'``."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def fmt_time(ns: int) -> str:
    """Human readable duration, e.g. ``fmt_time(4_000_000) == '4.00 ms'``."""
    if ns < USEC:
        return f"{ns} ns"
    if ns < MSEC:
        return f"{ns / USEC:.2f} us"
    if ns < SEC:
        return f"{ns / MSEC:.2f} ms"
    return f"{ns / SEC:.3f} s"
