"""Self-tests for the benchmark's own correctness checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

They show that the checks reject what they must (a perturbed SZ3
reconstruction, a flipped byte in a DEFLATE response) and accept what
the program produces today.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from checks import (  # noqa: E402
    RAW_DEFLATE_WBITS,
    Tally,
    binomial_parent,
    inflates_to,
    sz3_within_bound,
)


@pytest.fixture(scope="module")
def sz3_roundtrip():
    from repro.datasets import get_dataset

    state = workloads.setup_pedal_unique()
    env = state["env"]
    field = get_dataset("exaalt-dataset1").generate(64 * 1024)
    comp = workloads._drive(env, state["sender"].compress(field, "C-Engine_SZ3"))
    recon = workloads._drive(env, state["receiver"].decompress(comp.message, "auto")).data
    return field, recon


def test_real_sz3_output_passes_the_bound(sz3_roundtrip):
    field, recon = sz3_roundtrip
    assert sz3_within_bound(field, recon, workloads.SZ3_ERROR_BOUND) is None


def test_perturbed_sz3_array_fails_the_bound(sz3_roundtrip):
    field, recon = sz3_roundtrip
    bad = recon.copy()
    bad[17] += np.float32(3 * workloads.SZ3_ERROR_BOUND)
    assert sz3_within_bound(field, bad, workloads.SZ3_ERROR_BOUND) is not None
    assert sz3_within_bound(field, recon[:-1], workloads.SZ3_ERROR_BOUND) is not None


def test_inflate_oracle_rejects_a_flipped_byte():
    import zlib

    raw = b"abcabcabd" * 500
    deflater = zlib.compressobj(6, zlib.DEFLATED, RAW_DEFLATE_WBITS)
    stream = bytearray(deflater.compress(raw) + deflater.flush())
    assert inflates_to(bytes(stream), raw, RAW_DEFLATE_WBITS) is None
    stream[len(stream) // 2] ^= 0x40
    assert inflates_to(bytes(stream), raw, RAW_DEFLATE_WBITS) is not None


def test_binomial_parents_match_a_four_rank_tree():
    assert [binomial_parent(r, 0, 4) for r in (1, 2, 3)] == [0, 0, 2]


def test_tally_counts_failures_without_stopping():
    tally = Tally()
    assert tally.record("a", [None, None])
    assert not tally.record("b", [None, "bad"])
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)


def test_seed_outputs_pass_on_every_workload():
    pedal = workloads.inputs_pedal_unique(3, 0)
    picked = {}
    for op in sorted(pedal, key=lambda o: len(o["data"]) if o["kind"] != "sz3" else o["data"].nbytes):
        picked.setdefault(op["kind"], op)
    meter, tally = workloads.run_pedal_unique(
        workloads.setup_pedal_unique(), list(picked.values()), workloads.NoTrace())
    assert (tally.attempted, tally.failed) == (len(picked), 0), tally.reasons

    jobs = workloads.inputs_mpi_osu(3, 0)
    chosen = [j for j in jobs if j["design"] == "C-Engine_SZ3" and j["size"] > 64 * 1024][:2]
    chosen += [j for j in jobs if j["streaming"] and j["design"].endswith("LZ4")][:1]
    meter, tally = workloads.run_mpi_osu(workloads.setup_mpi_osu(), chosen, workloads.NoTrace())
    assert (tally.attempted, tally.failed) == (len(chosen), 0), tally.reasons

    reqs = workloads.inputs_cluster_mixed(3, 0)
    meter, tally = workloads.run_cluster_mixed(
        workloads.setup_cluster_mixed(), reqs, workloads.NoTrace())
    assert (tally.attempted, tally.failed) == (len(reqs), 0), tally.reasons


def test_flipped_deflate_response_counts_in_failed_frac(monkeypatch):
    import repro.serve.gateway as gateway

    original = gateway.deflate_compress

    def flipped(data, config=None):
        out = bytearray(original(data, config))
        out[len(out) // 2] ^= 0x40
        return bytes(out)

    monkeypatch.setattr(gateway, "deflate_compress", flipped)
    reqs = workloads.inputs_cluster_mixed(3, 0)
    meter, tally = workloads.run_cluster_mixed(
        workloads.setup_cluster_mixed(), reqs, workloads.NoTrace())
    deflate_compress = sum(1 for r in reqs if r["kind"] == "deflate")
    assert deflate_compress > 0
    assert tally.attempted == len(reqs)
    assert tally.failed == deflate_compress
    assert tally.failed_frac == deflate_compress / len(reqs)
