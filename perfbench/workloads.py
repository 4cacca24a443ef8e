"""The three benchmark workloads.

Each workload puts most of its wall time in a different layer, so a
change to one layer moves one workload and should leave another alone:

* ``pedal_unique`` — codec kernels.  A closed loop of one caller: a
  BF-2 ``PedalContext`` compresses, a BF-3 one decompresses, with
  ``path="auto"``.  Every payload is a distinct window, so the codec
  memo cache never hits.  One op in five goes through the
  ``repro.stream`` ``Compressor``/``Decompressor`` instead.
* ``mpi_osu`` — per-job runtime: MPI_Init (``PEDAL_init`` and its
  scratch prewarm), the simulator and the MPI shim.  A sequence of
  independent ``run_mpi`` jobs, as OSU launches them, reusing one
  payload per (dataset, size class); an untimed warm-up fills the memo
  cache first, so the kernels do little.
* ``cluster_mixed`` — serving, decompress-heavy.  An open-loop Poisson
  schedule on the simulated clock into one ``ServeCluster``; 70 % of
  requests inflate raw-DEFLATE streams made by the standard library.

The work of a run is fixed by ``--seed`` and ``--seconds`` (rounds of a
fixed op mix, sized to take about ``--seconds`` on a 2-core host), so
the deterministic outputs (ratio, simulated seconds, output digest)
repeat exactly for a seed.  The mix within a round is fixed; the seed
draws the windows, sizes within strata, split points and op order.

Nothing at module level imports the program or numpy: set-up time is
measured from before ``import repro``.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
import zlib
from contextlib import ExitStack, nullcontext
from time import perf_counter

KIB = 1024
SZ3_ERROR_BOUND = 1e-4  # the paper's absolute bound, the program's default

# Wall seconds one round takes on the reference host (2 cores); a run
# does max(MIN_ROUNDS, seconds / ROUND_S) rounds.
PEDAL_ROUND_S = 3.8
MPI_ROUND_S = 5.5
CLUSTER_REQ_PER_S = 52.0

LOSSLESS_CORPORA = ("silesia/xml", "silesia/samba", "silesia/mr",
                    "obs_error", "net_telemetry")
FLOAT_CORPORA = ("exaalt-dataset1", "exaalt-dataset3")
# Small enough that the largest windows cover a quarter of a corpus, so its
# easy and hard regions average out within a run.
CORPUS_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class NoTrace:
    """Stands in for the tracer in untraced runs."""

    op = None

    def window(self):
        return nullcontext()

    def span(self, name):
        return nullcontext()


# Host-speed probe.  The benchmark shares its host's cores with other
# tenants, and the same work takes from 1x to 1.6x as long depending on
# their load, in phases that last from seconds to minutes.  A fixed,
# program-independent probe (a pure-Python loop and a stdlib zlib
# compress) is timed between ops every PROBE_EVERY_S; each op's wall
# time is scaled by PROBE_REF_S / (probe time around the op), which
# expresses it in seconds of the reference host running uncontended.
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 0.3      # probes this close to an op price it
PROBE_REF_S = 2.0e-3      # the probe on the reference host (2 vCPUs), uncontended
_PROBE_TEXT = b" ".join(str(i * i).encode() for i in range(4000))


def host_probe() -> float:
    """Wall seconds of the fixed probe work, now."""
    start = perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i
    zlib.compress(_PROBE_TEXT, 6)
    return perf_counter() - start


def probe_scale() -> float:
    """Factor that turns wall seconds measured now into reference-host
    seconds (median of three probes)."""
    return PROBE_REF_S / statistics.median(host_probe() for _ in range(3))


class Meter:
    """What a run measured, split into the untraced and traced halves."""

    def __init__(self, n_ops: int, traced: bool) -> None:
        # A traced run times its first half untraced and its second half
        # traced; comparing the two per op kind gives the tracing overhead.
        self.half = n_ops // 2 if traced else n_ops
        # (traced half?, kind, start, wall, bytes, latency sample or None)
        self.ops: list = []
        self.probe_times: "list[float]" = []  # when each probe ran
        self.probe_s: "list[float]" = []      # how long it took
        self._next_probe = 0.0
        self.comp_in = 0
        self.comp_out = 0
        self.sim_total = 0.0
        self.sim_samples: "list[float]" = []
        self.digest = hashlib.blake2b(digest_size=16)
        self.extra: dict = {}  # workload-specific values for the metadata line

    def probe(self) -> None:
        """Time the host probe if one is due; call between ops."""
        now = perf_counter()
        if now >= self._next_probe:
            self.probe_times.append(now)
            self.probe_s.append(host_probe())
            self._next_probe = now + PROBE_EVERY_S

    def add(self, index: int, kind: str, start: float, wall: float, nbytes: int,
            sample: "float | None") -> None:
        """One op: ``wall`` seconds of program time from ``start`` moving
        ``nbytes``; ``sample`` is its latency sample, if it has one."""
        self.ops.append((index >= self.half, kind, start, wall, nbytes, sample))

    def _scale(self, start: float, end: float) -> float:
        """Reference-host seconds per wall second for an op over [start, end]."""
        times = self.probe_times
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
        if lo == hi:  # no probe that close: the nearest one
            lo = min(bisect.bisect_left(times, start), len(times) - 1)
            hi = lo + 1
        return PROBE_REF_S / statistics.fmean(self.probe_s[lo:hi])

    def summary(self) -> dict:
        """Throughput and latency percentiles, as measured and host-normalized."""
        out = {"op_samples": sum(1 for op in self.ops if op[5] is not None)}
        for label, scaled in (("raw", False), ("norm", True)):
            wall = nbytes = 0.0
            samples = []
            for _, _, start, w, b, sample in self.ops:
                k = self._scale(start, start + w) if scaled else 1.0
                wall += w * k
                nbytes += b
                if sample is not None:
                    samples.append(sample * k)
            out[label] = {
                "throughput_mbps": nbytes / wall / 1e6 if wall else 0.0,
                "op_p50_ms": statistics.median(samples) * 1e3 if samples else 0.0,
                "op_p90_ms": percentile(samples, 90) * 1e3 if samples else 0.0,
                "wall_s": wall,
            }
        out["probe_median_s"] = statistics.median(self.probe_s)
        out["probes"] = len(self.probe_s)
        return out

    def tracing_overhead(self) -> float:
        """Traced wall over the wall the same ops take untraced, minus 1.

        The untraced expectation prices each traced op kind at that
        kind's untraced (host-normalized) seconds per byte, so the two
        halves' different mixes of cheap and expensive ops cancel out.
        """
        cells: "list[dict]" = [{}, {}]  # per half: kind -> [wall, bytes]
        for traced, kind, start, wall, nbytes, _ in self.ops:
            cell = cells[traced].setdefault(kind, [0.0, 0])
            cell[0] += wall * self._scale(start, start + wall)
            cell[1] += nbytes
        expected = actual = 0.0
        for kind, (wall, nbytes) in cells[1].items():
            base = cells[0].get(kind)
            if base and base[1] and nbytes:
                expected += nbytes * base[0] / base[1]
                actual += wall
        return actual / expected - 1.0 if expected else 0.0

    def compressed(self, raw_len: int, blob: bytes) -> None:
        self.comp_in += raw_len
        self.comp_out += len(blob)
        self.digest.update(blob)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def _corpora(names) -> dict:
    from repro.datasets import get_dataset

    return {name: get_dataset(name).generate(CORPUS_BYTES) for name in names}


class _Windows:
    """Distinct seeded windows of the corpora (no payload repeats).

    Window starts follow a golden-ratio sequence from a seeded origin,
    so every run spreads its windows evenly over each corpus: the mix
    of easy and hard regions, and with it the ratio, barely moves
    between seeds.
    """

    GOLDEN = (5 ** 0.5 - 1) / 2

    def __init__(self, rng, corpora: dict) -> None:
        self.corpora = corpora
        self.phase = {name: float(rng.random()) for name in sorted(corpora)}
        self.count = dict.fromkeys(corpora, 0)
        self.used: set = set()

    def take(self, name: str, size: int):
        corpus = self.corpora[name]
        item = corpus.itemsize if hasattr(corpus, "itemsize") else 1
        count = max(1, size // item)
        span = len(corpus) - count + 1
        while True:
            self.count[name] += 1
            start = int((self.phase[name] + self.GOLDEN * self.count[name]) % 1.0 * span)
            if (name, start, count) not in self.used:
                self.used.add((name, start, count))
                return corpus[start:start + count]


def _log_uniform_strata(rng, n: int, lo: int, hi: int) -> "list[int]":
    """``n`` sizes, one near the midpoint of each equal-probability stratum
    of log-uniform [lo, hi].  The seed only jitters them slightly, so
    simulated costs barely move between seeds."""
    return [int(lo * (hi / lo) ** ((i + 0.45 + 0.1 * rng.random()) / n)) for i in range(n)]


def _rounds(seconds: float, round_s: float, minimum: int) -> int:
    return max(minimum, round(seconds / round_s))


def _drive(env, gen):
    return env.run(until=env.process(gen))


def _split_points(rng, length: int) -> "list[int]":
    """One to five seeded cut points, for feeding a stream in pieces."""
    cuts = {int(c) for c in rng.integers(0, length + 1, int(rng.integers(1, 6)))}
    return [0, *sorted(cuts), length]


def _feed_split(codec, data: bytes, points) -> bytes:
    out = [codec.feed(data[a:b]) for a, b in zip(points, points[1:])]
    out.append(codec.flush())
    return b"".join(out)


def _stream_frames_oracle(container: bytes, data: bytes, chunk_bytes: int):
    """Each DEFLATE chunk of an RST1 container inflates (stdlib) to its slice."""
    from repro.stream import FRAME_DATA, FrameParser

    from checks import RAW_DEFLATE_WBITS, inflates_to

    parser = FrameParser()
    frames = [f for f in parser.feed(container) if f.kind == FRAME_DATA]
    if not parser.finished:
        return "container has no end frame"
    if len(frames) != max(1, math.ceil(len(data) / chunk_bytes)) and data:
        return f"{len(frames)} frames for {len(data)} bytes"
    for i, frame in enumerate(frames):
        reason = inflates_to(frame.payload, data[i * chunk_bytes:(i + 1) * chunk_bytes],
                             RAW_DEFLATE_WBITS)
        if reason is not None:
            return f"chunk {i}: {reason}"
    return None


# ---------------------------------------------------------------------------
# pedal_unique — codec kernels
# ---------------------------------------------------------------------------

# One round: (kind, ops per round).  Weighted to DEFLATE/zlib; AC stays
# small (it decodes at ~0.2 MB/s) and one op in five is a stream.
PEDAL_ROUND = (("deflate", 6), ("zlib", 4), ("lz4", 2), ("sz3", 2), ("ac", 1),
               ("stream-deflate", 4), ("stream-lz4", 1))
# Log-uniform sizes up to 256 KiB keep ~160 ops in a 30 s run, so the
# p90 has ~16 samples beyond it.
PEDAL_SIZES = (16 * KIB, 256 * KIB)
PEDAL_AC_SIZES = (16 * KIB, 32 * KIB)
STREAM_CHUNK_BYTES = 64 * KIB


def setup_pedal_unique() -> dict:
    from repro.core import PedalContext
    from repro.dpu import make_device
    from repro.sim import Environment
    import repro.stream  # noqa: F401  (the stream ops' API, imported before the first op)

    env = Environment()
    sender = PedalContext(make_device(env, "bf2"))
    receiver = PedalContext(make_device(env, "bf3"))
    _drive(env, sender.init())
    _drive(env, receiver.init())
    return {"env": env, "sender": sender, "receiver": receiver}


def inputs_pedal_unique(seed: int, seconds: float) -> list:
    import numpy as np

    rng = np.random.default_rng(seed)
    windows = _Windows(rng, _corpora(LOSSLESS_CORPORA + FLOAT_CORPORA))
    rounds = _rounds(seconds, PEDAL_ROUND_S, 5)  # >= 100 ops for p90
    ops = []
    for kind, per_round in PEDAL_ROUND:
        n = per_round * rounds
        lo_hi = PEDAL_AC_SIZES if kind == "ac" else PEDAL_SIZES
        corpora = FLOAT_CORPORA if kind == "sz3" else LOSSLESS_CORPORA
        for i, size in enumerate(_log_uniform_strata(rng, n, *lo_hi)):
            data = windows.take(corpora[i % len(corpora)], size)
            if kind != "sz3":
                data = bytes(data)
            op = {"kind": kind, "corpus": corpora[i % len(corpora)], "data": data}
            if kind.startswith("stream"):
                op["feed"] = _split_points(rng, len(data))
                op["split_seed"] = int(rng.integers(0, 2**31))
            ops.append(op)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def run_pedal_unique(state: dict, ops: list, trace) -> "tuple[Meter, object]":
    import numpy as np

    from checks import (RAW_DEFLATE_WBITS, ZLIB_WBITS, Tally, inflates_to,
                        same_bytes, sz3_within_bound)
    from repro.core.header import HEADER_SIZE
    from repro.dpu.specs import Algo
    from repro.stream import Compressor, Decompressor, StreamConfig

    env, sender, receiver = state["env"], state["sender"], state["receiver"]
    meter = Meter(len(ops), not isinstance(trace, NoTrace))
    tally = Tally()
    with ExitStack() as traced:
        for index, op in enumerate(ops):
            if index == meter.half:
                traced.enter_context(trace.window())
            trace.op = index
            meter.probe()
            kind, data = op["kind"], op["data"]
            label = f"op{index}:{kind}:{op['corpus']}:{len(data) if kind != 'sz3' else data.nbytes}"
            try:
                if kind.startswith("stream"):
                    algo = Algo.DEFLATE if kind == "stream-deflate" else Algo.LZ4
                    rng = np.random.default_rng(op["split_seed"])
                    t0 = perf_counter()
                    container = _feed_split(
                        Compressor(StreamConfig(algo=algo, chunk_bytes=STREAM_CHUNK_BYTES)),
                        data, op["feed"])
                    out = _feed_split(Decompressor(), container,
                                      _split_points(rng, len(container)))
                    wall = perf_counter() - t0
                    with trace.span("bench.check"):
                        reasons = [same_bytes(data, out)]
                        if algo is Algo.DEFLATE:
                            reasons.append(_stream_frames_oracle(
                                container, data, STREAM_CHUNK_BYTES))
                    meter.compressed(len(data), container)
                    raw_len = len(data)
                else:
                    algo = kind
                    t0 = perf_counter()
                    comp = _drive(env, sender.compress(data, algo, path="auto"))
                    dec = _drive(env, receiver.decompress(comp.message, "auto"))
                    wall = perf_counter() - t0
                    with trace.span("bench.check"):
                        if kind == "sz3":
                            reasons = [sz3_within_bound(data, dec.data, SZ3_ERROR_BOUND)]
                        else:
                            reasons = [same_bytes(data, dec.data)]
                        body = comp.message[HEADER_SIZE:]
                        if kind == "deflate":
                            reasons.append(inflates_to(body, data, RAW_DEFLATE_WBITS))
                        elif kind == "zlib":
                            reasons.append(inflates_to(body, data, ZLIB_WBITS))
                    raw_len = data.nbytes if kind == "sz3" else len(data)
                    meter.compressed(raw_len, comp.message)
                    sim = comp.sim_seconds + dec.sim_seconds
                    meter.sim_total += sim
                    meter.sim_samples.append(sim)
            except Exception as exc:  # one failed op must not end the run
                tally.record(label, [f"{type(exc).__name__}: {exc}"])
                continue
            meter.add(index, kind, t0, wall, raw_len, sample=wall)
            tally.record(label, reasons)
    return meter, tally


# ---------------------------------------------------------------------------
# mpi_osu — per-job runtime, init and simulation
# ---------------------------------------------------------------------------

MPI_DESIGNS = ("SoC_DEFLATE", "C-Engine_DEFLATE", "SoC_zlib", "C-Engine_zlib",
               "SoC_LZ4", "C-Engine_LZ4", "SoC_SZ3", "C-Engine_SZ3")
STREAM_DESIGNS = ("SoC_DEFLATE", "C-Engine_DEFLATE", "SoC_LZ4", "C-Engine_LZ4")
# Simulated message sizes: one below the 64 KiB eager threshold (sent
# uncompressed), the rest rendezvous, up to tens of MiB.  Real payloads
# are capped at 64 KiB, as the OSU helpers in the program do.
MPI_SIZES = (32 * KIB, 256 * KIB, 2 << 20, 16 << 20, 48 << 20)
MPI_REAL_CAP = 64 * KIB
# Corpora whose regions compress alike, so a few reused windows give a
# ratio that barely moves between seeds.
MPI_LOSSLESS = ("silesia/xml", "obs_error")
MPI_STREAM_CHUNK = 16 * KIB  # four chunks per 64 KiB payload
MPI_STREAM_SIZE = 2 << 20


def setup_mpi_osu() -> dict:
    from repro.core import PedalContext
    from repro.dpu import make_device
    import repro.mpi.streaming  # noqa: F401  (the job runtime, imported before the first op)
    from repro.sim import Environment

    env = Environment()
    sender = PedalContext(make_device(env, "bf2"))
    receiver = PedalContext(make_device(env, "bf3"))
    _drive(env, sender.init())
    _drive(env, receiver.init())
    return {"env": env, "sender": sender, "receiver": receiver}


def inputs_mpi_osu(seed: int, seconds: float) -> list:
    import numpy as np

    rng = np.random.default_rng(seed)
    windows = _Windows(rng, _corpora(MPI_LOSSLESS + FLOAT_CORPORA))
    # The seed jitters each size class by up to 2 % (the eager one stays
    # below the threshold), so simulated times differ slightly by seed.
    sizes = {size: int(size * (1 + 0.02 * rng.random())) for size in MPI_SIZES}
    payloads = {}  # one per (dataset, size class), reused like OSU's buffer
    for size in MPI_SIZES:
        for name in MPI_LOSSLESS:
            payloads[name, size] = bytes(windows.take(name, min(size, MPI_REAL_CAP)))
        for name in FLOAT_CORPORA:
            payloads[name, size] = np.array(windows.take(name, min(size, MPI_REAL_CAP)))
    grid = []
    for d, design in enumerate(MPI_DESIGNS):
        lossy = design.endswith("SZ3")
        for s, size in enumerate(MPI_SIZES):
            name = (FLOAT_CORPORA if lossy else MPI_LOSSLESS)[(d + s // 2) % 2]
            grid.append({
                "design": design, "size": sizes[size], "data": payloads[name, size],
                "corpus": name,
                "kind": "pingpong" if (d + s) % 2 == 0 else "bcast",
                "device": "bf2" if (d // 2 + s) % 2 == 0 else "bf3",
                "mode": "naive" if (d + s) % 5 == 4 else "pedal",
                "streaming": False,
            })
    for d, design in enumerate(STREAM_DESIGNS):
        name = MPI_LOSSLESS[d % 2]
        grid.append({
            "design": design, "size": sizes[MPI_STREAM_SIZE],
            "data": payloads[name, MPI_STREAM_SIZE], "corpus": name,
            "kind": "pingpong", "device": ("bf2", "bf3")[d % 2],
            "mode": "pedal", "streaming": True,
        })
    jobs = grid * _rounds(seconds, MPI_ROUND_S, 3)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _mpi_program(job):
    data, size = job["data"], job["size"]
    if job["kind"] == "pingpong":
        def program(ctx):
            if ctx.rank == 0:
                t0 = ctx.wtime()
                yield from ctx.send(1, data, sim_bytes=size)
                echo = yield from ctx.recv(source=1)
                return (ctx.wtime() - t0) / 2, echo
            got = yield from ctx.recv(source=0)
            yield from ctx.send(0, got, sim_bytes=size)
            return 0.0, got
        return program, 2

    def program(ctx):
        t0 = ctx.wtime()
        got = yield from ctx.bcast(data if ctx.rank == 0 else None, root=0, sim_bytes=size)
        return ctx.wtime() - t0, got
    return program, 4


def _mpi_senders(job) -> "list[int]":
    """The sending rank of each message of one job, in send order."""
    return [0, 1] if job["kind"] == "pingpong" else [0, 0, 2]


def _mpi_deliveries(job, returns):
    """(what the sender held, what the receiver got, hop) per message."""
    from checks import binomial_parent

    if job["kind"] == "pingpong":
        middle = returns[1][1]
        return [(job["data"], middle, "0->1"), (middle, returns[0][1], "1->0")]
    held = [job["data"]] + [ret[1] for ret in returns[1:]]
    return [(held[binomial_parent(r, 0, 4)], held[r], f"{binomial_parent(r, 0, 4)}->{r}")
            for r in (1, 2, 3)]


def _mpi_warmup(state: dict, jobs: list) -> dict:
    """Fill the memo cache with every (design, payload) the jobs send,
    and record the compressed bytes of each hop for ratio and digest.

    Returns {(design, id(payload), streaming): (first, relay)}: the
    message rank 0 sends, and the one a rank sends on (an echo or a
    bcast relay), which re-compresses the reconstruction of a lossy one.
    """
    from repro.core.designs import design as lookup
    from repro.mpi.protocol import EAGER_THRESHOLD_BYTES
    from repro.stream import StreamConfig, stream_compress

    env, sender, receiver = state["env"], state["sender"], state["receiver"]
    messages = {}
    for job in jobs:
        if job["size"] <= EAGER_THRESHOLD_BYTES:
            continue
        key = (job["design"], id(job["data"]), job["streaming"])
        if key in messages:
            continue
        dsg = lookup(job["design"])
        if job["streaming"]:
            container = stream_compress(job["data"], StreamConfig(
                algo=dsg.algo, chunk_bytes=MPI_STREAM_CHUNK))
            messages[key] = (container, container)
            continue
        hops = []
        data = job["data"]
        for _ in range(2 if dsg.is_lossy else 1):
            comp = _drive(env, sender.compress(data, dsg, job["size"]))
            data = _drive(env, receiver.decompress(comp.message, dsg.placement, job["size"])).data
            hops.append(comp.message)
        messages[key] = (hops[0], hops[-1])
    return messages


def run_mpi_osu(state: dict, jobs: list, trace) -> "tuple[Meter, object]":
    import numpy as np

    import repro.mpi  # run_mpi looked up per job, so a traced window sees its wrapper
    from checks import Tally, same_bytes, sz3_within_bound
    from repro.mpi import CommConfig, CommMode
    from repro.mpi.protocol import EAGER_THRESHOLD_BYTES

    messages = _mpi_warmup(state, jobs)  # untimed: OSU's warm-up iterations
    meter = Meter(len(jobs), not isinstance(trace, NoTrace))
    tally = Tally()
    with ExitStack() as traced:
        for index, job in enumerate(jobs):
            if index == meter.half:
                traced.enter_context(trace.window())
            trace.op = index
            meter.probe()
            data, lossy = job["data"], job["design"].endswith("SZ3")
            compressed = job["size"] > EAGER_THRESHOLD_BYTES
            label = (f"job{index}:{job['kind']}:{job['design']}:{job['mode']}:"
                     f"{job['device']}:{job['size']}{':stream' if job['streaming'] else ''}")
            program, n_ranks = _mpi_program(job)
            config = CommConfig(
                mode=CommMode.PEDAL if job["mode"] == "pedal" else CommMode.NAIVE,
                design=job["design"], streaming=job["streaming"],
                stream_chunk_bytes=MPI_STREAM_CHUNK)
            try:
                t0 = perf_counter()
                result = repro.mpi.run_mpi(program, n_ranks, job["device"], config)
                wall = perf_counter() - t0
            except Exception as exc:  # one failed job must not end the run
                tally.record(label, [f"{type(exc).__name__}: {exc}"])
                continue
            with trace.span("bench.check"):
                reasons = []
                for sent, got, hop in _mpi_deliveries(job, result.returns):
                    if not lossy:
                        reasons.append(same_bytes(data, got))
                    elif compressed:  # per hop: a relay re-compresses its reconstruction
                        reasons.append(sz3_within_bound(sent, got, SZ3_ERROR_BOUND))
                    elif not (isinstance(got, np.ndarray) and np.array_equal(sent, got)):
                        reasons.append(f"eager hop {hop} changed the array")
            latencies = [ret[0] for ret in result.returns]
            sim = latencies[0] if job["kind"] == "pingpong" else max(latencies)
            meter.sim_total += sim
            meter.sim_samples.append(sim)
            senders = _mpi_senders(job)
            nbytes = data.nbytes if lossy else len(data)
            if compressed:
                first, relay = messages[job["design"], id(data), job["streaming"]]
                for src in senders:
                    meter.compressed(nbytes, first if src == 0 else relay)
            meter.add(index, f"{job['kind']}:{job['design']}:{job['mode']}:{job['streaming']}",
                      t0, wall, nbytes * len(senders), sample=wall)
            tally.record(label, reasons)
    return meter, tally


# ---------------------------------------------------------------------------
# cluster_mixed — serving, decompress-heavy
# ---------------------------------------------------------------------------

# 12 workers over 4 shards: 8 BF-2 (compress-capable) + 4 BF-3
# (decompress-only engine), with the capability router: the program's
# own cluster fleet shape.
CLUSTER_FLEET = tuple(("bf2", f"bf2-{i}") for i in range(8)) + \
    tuple(("bf3", f"bf3-{i}") for i in range(4))
CLUSTER_SHARDS = 4
# Offered load on the simulated clock, below saturation: nothing sheds.
CLUSTER_RATE_REQ_S = 5_000.0
CLUSTER_TENANTS = tuple(f"tenant{i}" for i in range(32))
# One round of 20 requests: 14 decompress (stdlib raw DEFLATE), 4 DEFLATE
# compress, 2 LZ4 compress.
CLUSTER_ROUND = (("decompress", 14), ("deflate", 4), ("lz4", 2))
CLUSTER_MEDIAN_BYTES = 16 * KIB
CLUSTER_SIGMA = 0.6
CLUSTER_SIZE_CLIP = (1 * KIB, 128 * KIB)
# One multi-chunk StreamingSession every STREAM_EVERY requests.
CLUSTER_STREAM_EVERY = 250
CLUSTER_STREAM_BYTES = 128 * KIB
CLUSTER_STREAM_CHUNK = 32 * KIB


def setup_cluster_mixed() -> dict:
    from repro.cluster import ClusterConfig, ServeCluster
    from repro.dpu import make_device
    from repro.serve import ServeConfig
    import repro.serve.streaming  # noqa: F401
    from repro.sim import Environment

    env = Environment()
    devices = [make_device(env, kind, name=name) for kind, name in CLUSTER_FLEET]
    cluster = ServeCluster(env, devices, ClusterConfig(
        num_shards=CLUSTER_SHARDS, serve=ServeConfig(router="capability")))
    return {"env": env, "cluster": cluster}


def inputs_cluster_mixed(seed: int, seconds: float) -> list:
    import statistics

    import numpy as np

    rng = np.random.default_rng(seed)
    windows = _Windows(rng, _corpora(LOSSLESS_CORPORA))
    n = max(20, round(seconds * CLUSTER_REQ_PER_S / 20) * 20)
    normal = statistics.NormalDist()
    reqs = []
    for kind, per_round in CLUSTER_ROUND:
        count = n * per_round // 20
        for i in range(count):
            q = (i + 0.45 + 0.1 * rng.random()) / count
            size = math.exp(math.log(CLUSTER_MEDIAN_BYTES) + CLUSTER_SIGMA * normal.inv_cdf(q))
            size = int(min(max(size, CLUSTER_SIZE_CLIP[0]), CLUSTER_SIZE_CLIP[1]))
            name = LOSSLESS_CORPORA[i % len(LOSSLESS_CORPORA)]
            raw = bytes(windows.take(name, size))
            req = {"kind": kind, "corpus": name, "raw": raw}
            if kind == "decompress":
                deflater = zlib.compressobj(6, zlib.DEFLATED, -15)
                req["payload"] = deflater.compress(raw) + deflater.flush()
            reqs.append(req)
    reqs = [reqs[i] for i in rng.permutation(len(reqs))]
    for i in range(CLUSTER_STREAM_EVERY // 2, len(reqs), CLUSTER_STREAM_EVERY):
        name = LOSSLESS_CORPORA[i % len(LOSSLESS_CORPORA)]
        reqs[i] = {"kind": "stream", "corpus": name,
                   "raw": bytes(windows.take(name, CLUSTER_STREAM_BYTES))}
    gaps = rng.exponential(1.0 / CLUSTER_RATE_REQ_S, len(reqs))
    t = 0.0
    for req, gap, tenant in zip(reqs, gaps, rng.integers(0, len(CLUSTER_TENANTS), len(reqs))):
        t += float(gap)
        req["at"] = t
        req["tenant"] = CLUSTER_TENANTS[int(tenant)]
    return reqs


def _check_cluster_output(req: dict, handle, meter: Meter) -> list:
    """Check one request's output; ``handle`` is its ticket, or the
    process of a streaming session."""
    from checks import RAW_DEFLATE_WBITS, inflates_to, same_bytes
    from repro.algorithms.lz4 import lz4_decompress
    from repro.stream import stream_decompress

    kind, raw = req["kind"], req["raw"]
    if kind == "stream":
        if not handle.processed:
            return ["session never finished"]
        container = handle.value  # raises the session's error, if any
        meter.compressed(len(raw), container)
        return [same_bytes(raw, stream_decompress(container)),
                _stream_frames_oracle(container, raw, CLUSTER_STREAM_CHUNK)]
    if handle.shed:
        return ["shed by admission control"]
    if not handle.done:
        return ["request never completed"]
    out = handle.event.value.payload  # raises the request's error, if any
    if kind == "decompress":
        return [same_bytes(raw, out)]
    meter.compressed(len(raw), out)
    if kind == "deflate":
        return [inflates_to(out, raw, RAW_DEFLATE_WBITS)]
    return [same_bytes(raw, lz4_decompress(out))]


def run_cluster_mixed(state: dict, reqs: list, trace) -> "tuple[Meter, object]":
    from checks import Tally
    from repro.dpu.specs import Algo, Direction
    from repro.serve import ServeRequest
    from repro.serve.streaming import StreamingSession

    env, cluster = state["env"], state["cluster"]
    meter = Meter(len(reqs), not isinstance(trace, NoTrace))
    tally = Tally()
    pending = []  # (index, req, ticket or process)
    with ExitStack() as traced:
        for index, req in enumerate(reqs):
            if index == meter.half:
                traced.enter_context(trace.window())
            trace.op = index
            meter.probe()
            t0 = perf_counter()
            env.run(until=env.timeout(max(0.0, req["at"] - env.now)))
            waited = perf_counter() - t0
            kind = req["kind"]
            try:
                t1 = perf_counter()
                if kind == "stream":
                    gateway = cluster.gateways[cluster.shard_for(req["tenant"])]
                    session = StreamingSession(gateway, Algo.DEFLATE,
                                               CLUSTER_STREAM_CHUNK, tenant=req["tenant"])
                    handle = env.process(session.compress(req["raw"]))
                else:
                    handle = cluster.submit(ServeRequest(
                        direction=Direction.DECOMPRESS if kind == "decompress"
                        else Direction.COMPRESS,
                        payload=req["payload"] if kind == "decompress" else req["raw"],
                        tenant=req["tenant"],
                        algo=Algo.LZ4 if kind == "lz4" else Algo.DEFLATE))
                submit = perf_counter() - t1
            except Exception as exc:  # one failed request must not end the run
                tally.record(f"req{index}:{kind}", [f"{type(exc).__name__}: {exc}"])
                continue
            meter.add(index, kind, t0, waited + submit, len(req["raw"]),
                      sample=None if kind == "stream" else submit)
            pending.append((index, req, handle))
        t0 = perf_counter()
        env.run(until=env.process(cluster.drain()))
        env.run()  # streaming sessions assemble after their chunks drain
        meter.add(len(reqs) - 1, "drain", t0, perf_counter() - t0, 0, sample=None)

    for index, req, handle in pending:
        label = f"req{index}:{req['kind']}:{req['corpus']}:{len(req['raw'])}"
        try:
            reasons = _check_cluster_output(req, handle, meter)
        except Exception as exc:  # e.g. the request or session failed
            reasons = [f"{type(exc).__name__}: {exc}"]
        tally.record(label, reasons)
    # The exact latencies behind ServeCluster.latency_percentile, whose
    # sketch rounds to 1 % buckets; the run reports the sketch value too.
    meter.sim_samples = [lat for name in cluster.shard_names
                         for lat in cluster.gateways[name].latencies]
    meter.sim_total = sum(meter.sim_samples)
    if cluster.sample_count:
        meter.extra["sketch_p99_ms"] = cluster.latency_percentile(99) * 1e3
    return meter, tally


WORKLOADS = {
    "pedal_unique": (setup_pedal_unique, inputs_pedal_unique, run_pedal_unique),
    "mpi_osu": (setup_mpi_osu, inputs_mpi_osu, run_mpi_osu),
    "cluster_mixed": (setup_cluster_mixed, inputs_cluster_mixed, run_cluster_mixed),
}
