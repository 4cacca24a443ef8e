"""Real-codec dispatch shared by the PEDAL context and the naive baseline.

Separates *what bytes are produced* (this module — always real
compression of real data) from *what simulated time it costs* (the
callers charge the hardware model).  The C-Engine variants of zlib/SZ3
produce different real bytes than their SoC variants only where the
paper's designs do (SZ3's backend codec switches to DEFLATE; zlib output
is byte-identical by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.algorithms.ac import ACConfig, ac_compress, ac_decompress
from repro.algorithms.deflate import DeflateConfig, deflate_compress, deflate_decompress
from repro.algorithms.lz4 import lz4_compress, lz4_decompress
from repro.algorithms.sz3 import SZ3Compressor, SZ3Config
from repro.core.designs import CompressionDesign, Placement
from repro.core.sz3_hybrid import hybrid_sz3_compress
from repro.core.zlib_hybrid import hybrid_zlib_compress, hybrid_zlib_decompress
from repro.dpu.specs import Algo
from repro.errors import OutputOverflowError, UnsupportedDataError
from repro.util.kernels import kernel_mode

__all__ = [
    "CodecConfig",
    "RealCompression",
    "real_compress",
    "real_decompress",
    "clear_codec_cache",
]


@dataclass(frozen=True)
class CodecConfig:
    """Codec tuning shared across designs."""

    deflate: DeflateConfig | None = None
    sz3: SZ3Config = SZ3Config(error_bound=1e-4)  # the paper's bound
    ac: ACConfig = ACConfig()  # adaptive-context range coder defaults


@dataclass(frozen=True)
class RealCompression:
    """Output of a real compression run."""

    payload: bytes  # compressed bytes (no PEDAL header)
    original_bytes: int
    # For hybrid designs: size of the intermediate handed to the
    # C-Engine stage (DEFLATE payload for zlib, entropy payload for
    # SZ3); None for single-stage designs.
    cengine_stage_bytes: int | None = None


def _as_bytes(data: Any) -> bytes:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    if isinstance(data, np.ndarray):
        return data.tobytes()
    raise UnsupportedDataError(
        f"lossless designs take bytes-like or ndarray input, got {type(data)!r}"
    )


def _as_array(data: Any) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return data
    raise UnsupportedDataError(
        f"the SZ3 design takes a numpy float array, got {type(data)!r}"
    )


# Memoisation of real codec runs: the MPI benches send the same payload
# through the same design many times (ping-pong echoes, broadcast
# relays), and pure-Python compression dominates their wall-clock.  The
# simulated-time accounting is unaffected — only the byte-production is
# cached.  Keys fingerprint the content (sha1) rather than object
# identity, so logically equal payloads share entries.
_COMPRESS_CACHE: dict[tuple, RealCompression] = {}
_DECOMPRESS_CACHE: dict[tuple, tuple] = {}
_CACHE_LIMIT = 256


def clear_codec_cache() -> None:
    """Drop memoised codec runs (tests use this for isolation)."""
    _COMPRESS_CACHE.clear()
    _DECOMPRESS_CACHE.clear()


def _fingerprint(data: Any) -> tuple:
    import hashlib

    if isinstance(data, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(data).tobytes()).hexdigest()
        return ("nd", str(data.dtype), data.shape, digest)
    blob = bytes(data)
    return ("b", len(blob), hashlib.sha1(blob).hexdigest())


def real_compress(
    design: CompressionDesign, data: Any, config: CodecConfig
) -> RealCompression:
    """Run the design's real compressor over ``data`` (memoised)."""
    # kernel_mode is in the key for *timing* isolation, not correctness:
    # scalar and vectorized kernels are byte-identical, but a wall-clock
    # comparison must not serve one mode's work from the other's cache.
    key = (
        design.algo, design.placement, config.deflate, config.sz3, config.ac,
        kernel_mode(), _fingerprint(data),
    )
    cached = _COMPRESS_CACHE.get(key)
    if cached is not None:
        return cached
    result = _real_compress_uncached(design, data, config)
    if len(_COMPRESS_CACHE) >= _CACHE_LIMIT:
        _COMPRESS_CACHE.clear()
    _COMPRESS_CACHE[key] = result
    return result


def _real_compress_uncached(
    design: CompressionDesign, data: Any, config: CodecConfig
) -> RealCompression:
    algo = design.algo
    if algo is Algo.DEFLATE:
        raw = _as_bytes(data)
        return RealCompression(deflate_compress(raw, config.deflate), len(raw))
    if algo is Algo.LZ4:
        raw = _as_bytes(data)
        return RealCompression(lz4_compress(raw), len(raw))
    if algo is Algo.AC:
        raw = _as_bytes(data)
        # Single-stage on every placement: no C-Engine generation
        # accelerates the range coder, so there is no hybrid variant.
        return RealCompression(ac_compress(raw, config.ac), len(raw))
    if algo is Algo.ZLIB:
        raw = _as_bytes(data)
        stream, sizes = hybrid_zlib_compress(raw, config.deflate)
        return RealCompression(stream, len(raw), sizes.deflate_payload_bytes)
    if algo is Algo.SZ3:
        array = _as_array(data)
        if design.placement is Placement.CENGINE:
            result = hybrid_sz3_compress(array, config.sz3)
            return RealCompression(
                result.stream,
                result.sizes.input_bytes,
                result.sizes.entropy_payload_bytes,
            )
        compressor = SZ3Compressor(config.sz3)
        stream = compressor.compress(array)
        return RealCompression(
            stream,
            compressor.last_stage_sizes.input_bytes,
            compressor.last_stage_sizes.entropy_payload_bytes,
        )
    raise UnsupportedDataError(f"no real codec for algorithm {algo}")


def real_decompress(
    algo: Algo, payload: bytes, max_output: int | None = None
) -> tuple[Any, int | None]:
    """Decode ``payload``; returns ``(data, cengine_stage_bytes)``.

    ``cengine_stage_bytes`` is the intermediate the C-Engine stage
    would process on the receive side (zlib's DEFLATE payload, SZ3's
    backend blob input) or None for single-stage formats.  Memoised like
    :func:`real_compress`; a decoded SZ3 array is returned read-only
    because every caller of the same payload shares it.

    ``max_output`` bounds the decoded size in bytes: the DEFLATE, zlib,
    LZ4 and AC decoders stop as soon as they pass it, and a cached
    result (or an SZ3 array, whose backend decode is not bounded) is
    checked against it, so an oversized output always raises
    :class:`~repro.errors.OutputOverflowError`.
    """
    key = (algo, kernel_mode(), _fingerprint(payload))
    result = _DECOMPRESS_CACHE.get(key)
    if result is None:
        result = _real_decompress_uncached(algo, payload, max_output)
        if isinstance(result[0], np.ndarray):
            result[0].flags.writeable = False
        if len(_DECOMPRESS_CACHE) >= _CACHE_LIMIT:
            _DECOMPRESS_CACHE.clear()
        _DECOMPRESS_CACHE[key] = result
    data = result[0]
    out_bytes = data.nbytes if isinstance(data, np.ndarray) else len(data)
    if max_output is not None and out_bytes > max_output:
        raise OutputOverflowError(
            f"decompressed output of {out_bytes} bytes exceeds limit of "
            f"{max_output} bytes"
        )
    return result


def _real_decompress_uncached(
    algo: Algo, payload: bytes, max_output: int | None
) -> tuple[Any, int | None]:
    if algo is Algo.DEFLATE:
        return deflate_decompress(payload, max_output), None
    if algo is Algo.LZ4:
        return lz4_decompress(payload, max_output), None
    if algo is Algo.AC:
        return ac_decompress(payload, max_output), None
    if algo is Algo.ZLIB:
        data, sizes = hybrid_zlib_decompress(payload, max_output)
        return data, sizes.deflate_payload_bytes
    if algo is Algo.SZ3:
        array, sizes = SZ3Compressor.decompress_stages(payload)
        # The C-Engine stage inflates the backend blob back into the
        # entropy payload; charge for the payload it reproduces.
        return array, sizes.entropy_payload_bytes
    raise UnsupportedDataError(f"no real codec for algorithm {algo}")
