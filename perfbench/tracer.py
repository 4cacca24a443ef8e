"""Outside-in layer tracer for the wall-clock benchmark.

The program is not instrumented for this: each layer's public functions
are wrapped where their callers look them up (module globals that hold
the function, or the class attribute for methods), for the duration of
a traced window, and put back afterwards.  Every wrapped call records a
span (name, start, end, parent span, op id) in memory; the spans are
written out once, when the run ends.

A span's *self time* is its duration minus the time its wrapped
children took.  Simulation processes are generators that run in slices
interleaved with other processes, so a wrapped generator is timed per
slice: a slice is one resume, from ``send`` until the next ``yield``.
The wall time of a traced window that no span covers is reported as
the ``unattributed`` residual instead of being dropped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (metric name, module, attribute path, bytes counted for MB/s).
# "in" counts the payload argument, "out" the returned payload, "-"
# nothing.  A name may appear on several rows; they share one counter.
TARGETS = (
    ("algorithms.deflate_compress", "repro.algorithms.deflate.compress", "deflate_compress", "in"),
    ("algorithms.deflate_decompress", "repro.algorithms.deflate.decompress", "deflate_decompress", "out"),
    ("algorithms.lz77_tokenize", "repro.algorithms.lz77", "tokenize", "-"),
    ("algorithms.huffman_code_lengths", "repro.algorithms.huffman", "code_lengths", "-"),
    ("algorithms.huffman_decoder_build", "repro.algorithms.huffman", "HuffmanDecoder.__init__", "-"),
    ("util.bitio_write_code_array", "repro.util.bitio", "BitWriter.write_code_array", "-"),
    ("algorithms.lz4_compress", "repro.algorithms.lz4.frame", "lz4_compress", "in"),
    ("algorithms.lz4_decompress", "repro.algorithms.lz4.frame", "lz4_decompress", "out"),
    ("algorithms.ac_compress", "repro.algorithms.ac.codec", "ac_compress", "in"),
    ("algorithms.ac_decompress", "repro.algorithms.ac.codec", "ac_decompress", "out"),
    ("algorithms.sz3_compress", "repro.algorithms.sz3.compressor", "SZ3Compressor.compress", "in1"),
    ("algorithms.sz3_compress", "repro.core.sz3_hybrid", "hybrid_sz3_compress", "in"),
    ("algorithms.sz3_decompress", "repro.algorithms.sz3.compressor", "SZ3Compressor.decompress_stages", "out0"),
    ("core.pedal_init", "repro.core.api", "PedalContext.init", "-"),
    ("core.pedal_compress", "repro.core.api", "PedalContext.compress", "-"),
    ("core.pedal_decompress", "repro.core.api", "PedalContext.decompress", "-"),
    ("core.real_codec", "repro.core.codecs", "real_compress", "-"),
    ("core.real_codec", "repro.core.codecs", "real_decompress", "-"),
    ("core.codec_uncached", "repro.core.codecs", "_real_compress_uncached", "-"),
    ("core.codec_uncached", "repro.core.codecs", "_real_decompress_uncached", "-"),
    ("util.scratch_prewarm", "repro.util.scratch", "ScratchPool.prewarm", "-"),
    ("stream.compressor", "repro.stream.api", "Compressor.feed", "-"),
    ("stream.compressor", "repro.stream.api", "Compressor.flush", "-"),
    ("stream.decompressor", "repro.stream.api", "Decompressor.feed", "-"),
    ("stream.decompressor", "repro.stream.api", "Decompressor.flush", "-"),
    ("stream.chunk_encode", "repro.stream.api", "Compressor._emit_chunk", "-"),
    ("stream.chunk_decode", "repro.stream.api", "Decompressor._decode_chunk", "-"),
    ("mpi.run_mpi", "repro.mpi.runtime", "run_mpi", "-"),
    ("mpi.send", "repro.mpi.runtime", "RankContext.send", "-"),
    ("mpi.recv", "repro.mpi.runtime", "RankContext.recv", "-"),
    ("mpi.bcast", "repro.mpi.collectives", "bcast", "-"),
    ("mpi.stream_send", "repro.mpi.streaming", "stream_send", "-"),
    ("mpi.stream_recv", "repro.mpi.streaming", "stream_recv", "-"),
    ("sim.run", "repro.sim.engine", "Environment.run", "-"),
    ("select.choose", "repro.select.selector", "PathSelector.choose", "-"),
    ("cluster.submit", "repro.cluster.cluster", "ServeCluster.submit", "-"),
    ("serve.submit", "repro.serve.gateway", "ServeGateway.submit", "-"),
    ("serve.run_batch", "repro.serve.gateway", "ServeGateway._run_batch", "-"),
    ("serve.streaming_session", "repro.serve.streaming", "StreamingSession.compress", "-"),
    ("serve.streaming_session", "repro.serve.streaming", "StreamingSession.decompress", "-"),
    ("sched.submit", "repro.sched.pipeline", "PipelineScheduler.submit", "-"),
)

# Spans kept in memory per run; later ones are counted, not stored.
SPAN_CAP = 50_000

# Layers whose share of traced wall time is reported (first name part).
LAYERS = ("algorithms", "util", "core", "stream", "mpi", "sim", "select",
          "cluster", "serve", "sched", "bench")


def _nbytes(obj) -> int:
    return int(obj.nbytes) if hasattr(obj, "nbytes") else len(obj)


_COUNTERS = {
    "-": None,
    "in": lambda args, result: _nbytes(args[0]),
    "in1": lambda args, result: _nbytes(args[1]),
    "out": lambda args, result: _nbytes(result),
    "out0": lambda args, result: _nbytes(result[0]),
}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "nbytes", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0   # outermost calls only, so recursion is not double-counted
        self.nbytes = 0
        self.depth = 0


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.stats: "dict[str, Stat]" = {}
        self.spans: list = []
        self.dropped = 0
        self.op = None          # op id stamped on every span
        self.wall_s = 0.0       # total duration of traced windows
        self.missing: "list[str]" = []
        self.active = False
        self._stack: list = []
        self._next_id = 0
        self._patches = self._resolve()

    # -- span bookkeeping --------------------------------------------------

    def _push(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.depth += 1
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, stat, 0.0, self._next_id, parent, perf_counter()]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        end = perf_counter()
        name, stat, child, span_id, parent, start = frame
        self._stack.pop()
        elapsed = end - start
        stat.self_s += elapsed - child
        stat.depth -= 1
        if stat.depth == 0:
            stat.total_s += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end, self.op))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (e.g. its checks);
        recorded only inside a traced window."""
        if not self.active:
            yield
            return
        frame = self._push(name)
        self.stats[name].calls += 1
        try:
            yield
        finally:
            self._pop(frame)

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._push(name)
            stat = frame[1]
            stat.calls += 1
            outermost = stat.depth == 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if counter is not None and outermost:
                stat.nbytes += counter(args, result)
            return result

        return wrapper

    def _wrap_gen(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._drive(name, fn(*args, **kwargs))

        return wrapper

    def _drive(self, name: str, gen):
        """Re-yield ``gen``'s events, timing each resume as one slice."""
        throw = None
        value = None
        first = True
        while True:
            frame = self._push(name)
            if first:
                frame[1].calls += 1
                first = False
            try:
                item = gen.send(value) if throw is None else gen.throw(throw)
            except StopIteration as stop:
                self._pop(frame)
                return stop.value
            except BaseException:
                self._pop(frame)
                raise
            self._pop(frame)
            throw = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the inner generator
                throw = exc
                value = None

    # -- installation ------------------------------------------------------

    def _resolve(self) -> list:
        """Every (owner, attribute, original, wrapper) the targets need."""
        patches = []
        for module_name in {row[1] for row in TARGETS}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass  # reported as missing below
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        for name, module_name, path, count in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_gen(name, fn)
            else:
                wrapper = self._wrap_call(name, fn, _COUNTERS[count])
            if outer:  # a method: the class attribute is the binding
                patches.append((owner, attr, raw,
                                staticmethod(wrapper) if static else wrapper))
                continue
            # A function: rebind every module global that holds it, so
            # ``from x import f`` callers see the wrapper too.
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        patches.append((mod, key, fn, wrapper))
        return patches

    @contextmanager
    def window(self):
        """Trace everything the program does inside the ``with`` block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True
        start = perf_counter()
        try:
            yield self
        finally:
            self.wall_s += perf_counter() - start
            self.active = False
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def metrics(self, overhead_frac: float) -> dict:
        """The per-layer metric set (value, unit) of this run."""
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def mbps(name):
            stat = self._get(name)
            return stat.nbytes / stat.total_s / 1e6 if stat.total_s > 0 else 0.0

        for codec in ("deflate", "lz4", "ac", "sz3"):
            for direction in ("compress", "decompress"):
                name = f"algorithms.{codec}_{direction}"
                put(f"{name}.mbps", mbps(name), "MB/s")
        put("algorithms.deflate_compress.self_s",
            self._get("algorithms.deflate_compress").self_s, "s")
        put("algorithms.deflate_decompress.self_s",
            self._get("algorithms.deflate_decompress").self_s, "s")
        put("algorithms.lz77_tokenize.self_s",
            self._get("algorithms.lz77_tokenize").self_s, "s")
        put("util.bitio_write_code_array.self_s",
            self._get("util.bitio_write_code_array").self_s, "s")
        for name in ("algorithms.huffman_decoder_build", "algorithms.huffman_code_lengths",
                     "core.pedal_init", "util.scratch_prewarm", "select.choose",
                     "cluster.submit", "sched.submit"):
            put(f"{name}.calls", self._get(name).calls, "count")
            put(f"{name}.self_s", self._get(name).self_s, "s")
        real = self._get("core.real_codec")
        uncached = self._get("core.codec_uncached")
        put("core.real_codec.calls", real.calls, "count")
        put("core.real_codec.overhead_s", real.self_s, "s")
        put("core.codec_cache.codec_calls", uncached.calls, "count")
        put("core.codec_cache.hit_ratio",
            1.0 - uncached.calls / real.calls if real.calls else 0.0, "fraction")
        for name in ("core.pedal_compress", "core.pedal_decompress",
                     "stream.compressor", "stream.decompressor",
                     "mpi.run_mpi", "mpi.send", "mpi.recv", "mpi.bcast",
                     "mpi.stream_send", "sim.run", "serve.submit",
                     "serve.run_batch", "serve.streaming_session"):
            put(f"{name}.self_s", self._get(name).self_s, "s")
        put("stream.chunks", self._get("stream.chunk_encode").calls, "count")
        attributed = sum(stat.self_s for stat in self.stats.values())
        for layer in LAYERS:
            share = sum(stat.self_s for name, stat in self.stats.items()
                        if name.split(".", 1)[0] == layer)
            put(f"layer.{layer}.frac", share / self.wall_s if self.wall_s else 0.0,
                "fraction")
        unattributed = self.wall_s - attributed
        put("trace.wall_s", self.wall_s, "s")
        put("unattributed_s", unattributed, "s")
        put("unattributed_frac", unattributed / self.wall_s if self.wall_s else 0.0,
            "fraction")
        put("trace.overhead_frac", overhead_frac, "fraction")
        return out

    def dump(self, path, meta: dict) -> None:
        """Write the aggregate stats and the recorded spans as JSON."""
        doc = {
            "meta": meta,
            "wall_s": self.wall_s,
            "missing_targets": self.missing,
            "stats": {name: {"calls": s.calls, "self_s": s.self_s,
                             "total_s": s.total_s, "bytes": s.nbytes}
                      for name, s in sorted(self.stats.items())},
            "span_fields": ["id", "parent", "name", "start", "end", "op"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
