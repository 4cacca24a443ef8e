"""Correctness checks the benchmark applies to every output.

Each check returns ``None`` when the output is right and a short reason
string when it is not; the caller counts a reason as one failed op and
keeps running.  The oracles are independent of the program where one
exists: DEFLATE and zlib streams must also inflate with the standard
library's ``zlib``.
"""

from __future__ import annotations

import zlib

import numpy as np

# Float32 rounding slack on SZ3 reconstructions: at an absolute bound
# near eps scale the reconstruction rounds to the nearest float32, so
# the error may exceed the bound by a few ulps of the largest value.
# Same slack as the program's own round-trip property tests.
SZ3_ULPS = 4

RAW_DEFLATE_WBITS = -15
ZLIB_WBITS = 15


def same_bytes(expected: bytes, got) -> "str | None":
    """Lossless round trip: byte-identical output."""
    if not isinstance(got, (bytes, bytearray, memoryview)):
        return f"expected bytes, got {type(got).__name__}"
    if bytes(got) != expected:
        return f"round trip differs ({len(got)} vs {len(expected)} bytes)"
    return None


def inflates_to(stream: bytes, expected: bytes, wbits: int) -> "str | None":
    """The stdlib-zlib oracle: ``stream`` decodes to ``expected``."""
    inflater = zlib.decompressobj(wbits)
    try:
        out = inflater.decompress(stream) + inflater.flush()
    except zlib.error as exc:
        return f"stdlib zlib rejects the stream: {exc}"
    if not inflater.eof:
        return "stdlib zlib: stream has no final block"
    if inflater.unused_data:
        return f"stdlib zlib: {len(inflater.unused_data)} trailing bytes"
    if out != expected:
        return f"stdlib zlib decodes {len(out)} bytes that differ from the input"
    return None


def sz3_within_bound(original: np.ndarray, recon, error_bound: float) -> "str | None":
    """SZ3 reconstruction within ``eb + 4 * eps_f32 * max|x|``."""
    if not isinstance(recon, np.ndarray):
        return f"expected an ndarray, got {type(recon).__name__}"
    if recon.shape != original.shape:
        return f"shape {recon.shape} != {original.shape}"
    x = original.astype(np.float64)
    y = recon.astype(np.float64)
    if not np.all(np.isfinite(y)):
        return "non-finite values in the reconstruction"
    slack = SZ3_ULPS * float(np.finfo(np.float32).eps) * float(np.abs(x).max())
    err = float(np.abs(x - y).max()) if x.size else 0.0
    if err > error_bound + slack:
        return f"max error {err:.6g} > bound {error_bound:g} + slack {slack:.3g}"
    return None


def binomial_parent(rank: int, root: int, size: int) -> int:
    """The rank a binomial-tree broadcast delivers ``rank``'s copy from."""
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            return (rank - mask) % size
        mask <<= 1
    raise ValueError("the root has no parent")


class Tally:
    """Counts attempted and failed ops; keeps the first few reasons."""

    def __init__(self, keep: int = 20) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: "list[str]" = []
        self._keep = keep

    def record(self, op_label: str, reasons) -> bool:
        """Count one op; ``reasons`` lists its failed checks (None = pass)."""
        self.attempted += 1
        bad = [r for r in reasons if r is not None]
        if bad:
            self.failed += 1
            if len(self.reasons) < self._keep:
                self.reasons.append(f"{op_label}: {'; '.join(bad)}")
        return not bad

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
