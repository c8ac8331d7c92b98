"""Shared fixtures: small models, seeded token streams, synthetic traces, stepped replays."""

from __future__ import annotations

import ctypes
import os
import struct
import tracemalloc
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import corm
from corm.attention import softmax_normalize
from corm.model import ModelConfig, init_model
from corm.policies import H2O, Corm, CormGqa, Full, Policy, Scissorhands, StreamingLlm, Tova
from corm.positional import PE_KINDS
from corm.trace import RANGE_TOL, SUM_TOL, AttentionTrace, PolicySimulator, TraceMeta

settings.register_profile(
    "ci", derandomize=True, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def foreign_corm(pythonpath: str, imported: Path) -> Path | None:
    """The first `corm` package held by an entry of `pythonpath` that is not `imported`, else None."""
    for entry in filter(None, pythonpath.split(os.pathsep)):
        package = Path(entry, "corm").resolve()
        if (package / "__init__.py").is_file() and package != imported:
            return package
    return None


def pytest_sessionstart(session) -> None:
    # pytest's `pythonpath` setting puts this checkout's src ahead of PYTHONPATH,
    # so `PYTHONPATH=<other>/src pytest` would test this checkout's corm unasked
    imported = Path(corm.__file__).resolve().parent
    other = foreign_corm(os.environ.get("PYTHONPATH", ""), imported)
    if other is not None:
        raise pytest.UsageError(
            f"the tests import corm from {imported}, but PYTHONPATH holds another corm at {other}; "
            f"to test that one, pass -o pythonpath={other.parent}"
        )


# Each registered policy's example string, as the README's policy table shows it.
README_EXAMPLES = {
    "full": ("full", Full()),
    "streaming": ("streaming:4+8", StreamingLlm(sink=4, recent=8)),
    "h2o": ("h2o:4+4", H2O(heavy=4, recent=4)),
    "scissorhands": ("scissorhands:4+4:2", Scissorhands(budget=4, recent=4, window=2)),
    "tova": ("tova:8", Tova(budget=8)),
    "corm": ("corm:4+4", Corm(w=4, r=4)),
    "gqa_corm": ("gqa_corm:4+4", CormGqa(w=4, r=4)),
}

# Policy strings with a size that is not an integer, and the text each error quotes.
NON_INTEGER_SIZES = {
    "tova:abc": "abc",
    "tova:": "",
    "scissorhands:8+8:x": "x",
    "gqa_corm:8+8:2.5": "2.5",
    "corm:8+x": "8+x",
}


def seeded_tokens(seed: int, length: int, vocab: int = 256) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, vocab, size=length, dtype=np.int64)


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked, e.g. "SkylakeX" or "Haswell"; "unknown" without one."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def cpu_features() -> str:
    """The CPU features numpy's SIMD dispatch may use, space-separated; "unknown" when numpy does not say."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return "unknown"
    return " ".join(sorted(name for name, enabled in __cpu_features__.items() if enabled))


def bit_environment() -> dict[str, str]:
    """What picks float bits besides the code: the BLAS kernel and numpy's enabled dispatch targets."""
    return {"openblas_core": openblas_core(), "cpu_features": cpu_features()}


def peak_bytes(fn) -> int:
    """Peak bytes that Python and numpy allocate while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_score_rows(scores: np.ndarray) -> None:
    """Raise ValueError unless every row of `scores` (..., n) is a normalized row.

    A row is valid when its entries are finite and within [0, 1] (by
    `RANGE_TOL`) and they sum to 1 within `SUM_TOL`. The step-by-step
    reference for a trace's span-wise construction check: one call checks
    one step's float64 rows.
    """
    # NaN fails both comparisons and an infinity fails one, so valid blocks
    # pass on min and max alone; the error path then names the fault.
    if not (scores.min() >= -RANGE_TOL and scores.max() <= 1.0 + RANGE_TOL):
        if not np.isfinite(scores).all():
            raise ValueError("scores contain NaN or Inf")
        raise ValueError("scores must lie in [0, 1]")
    totals = scores.sum(axis=-1)
    if not (totals.min() >= 1.0 - SUM_TOL and totals.max() <= 1.0 + SUM_TOL):
        totals = np.ravel(totals)
        total = float(totals[np.argmax(np.abs(totals - 1.0))])
        raise ValueError(f"scores sum to {total}, expected 1 within {SUM_TOL}")


def trace_of(rows, queries=None, d_h: int = 4, seed: int = 0) -> AttentionTrace:
    """A trace of the given per-step (n_layers, n_heads, t) rows; queries default to ones.

    Rows and queries become the trace's `<f4` payload, each step's block of
    rows then queries in file order, rounded to float32 as `astype` rounds.
    """
    rows = [np.asarray(block) for block in rows]
    n_layers, n_heads = rows[0].shape[:2]
    if queries is None:
        queries = [np.ones((n_layers, n_heads, d_h), dtype=np.float32) for _ in rows]
    blocks = [np.concatenate([r, q], axis=2).astype("<f4").ravel() for r, q in zip(rows, queries)]
    meta = TraceMeta(
        n_layers=n_layers,
        n_heads=n_heads,
        n_kv_heads=n_heads,
        d_model=d_h * n_heads,
        d_h=d_h,
        vocab_size=256,
        pe_kind="rope",
        rope_base=10000.0,
        seed=seed,
    )
    return AttentionTrace(meta=meta, tokens=seeded_tokens(seed, len(rows)), payload=np.concatenate(blocks))


def synthetic_blocks(
    n_layers: int = 1,
    n_heads: int = 1,
    n_steps: int = 32,
    seed: int = 0,
    d_h: int = 4,
    sharpness: float = 4.0,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Random float32 full-cache rows and queries, one block per step; higher sharpness means peakier rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    queries = []
    for t in range(1, n_steps + 1):
        logits = rng.normal(size=(n_layers, n_heads, t)) * sharpness
        block = np.empty_like(logits)
        for li in range(n_layers):
            for hd in range(n_heads):
                block[li, hd] = softmax_normalize(logits[li, hd])
        rows.append(block.astype(np.float32))
        queries.append(rng.normal(size=(n_layers, n_heads, d_h)).astype(np.float32))
    return rows, queries


def make_synthetic_trace(
    n_layers: int = 1,
    n_heads: int = 1,
    n_steps: int = 32,
    seed: int = 0,
    d_h: int = 4,
    sharpness: float = 4.0,
) -> AttentionTrace:
    """Random full-cache trace; higher sharpness means peakier rows."""
    rows, queries = synthetic_blocks(n_layers, n_heads, n_steps, seed, d_h, sharpness)
    return trace_of(rows, queries, d_h=d_h, seed=seed)


def write_trace_file(path, tokens, blocks, **header) -> None:
    """Write a trace file from raw header fields and per-step (n_layers, n_heads, t + d_h) blocks.

    `header` holds `TraceMeta`'s fields. Nothing is checked: the file's
    length and checksums match its bytes whatever the fields and blocks say,
    so loading it reaches the checks a trace runs when it is built.
    """
    fields = [header[k] for k in ("n_layers", "n_heads", "n_kv_heads", "d_model", "d_h", "vocab_size")]
    pe_id = PE_KINDS[header["pe_kind"]].wire_id
    head = struct.pack(
        "<8sIIIIIIIIdQI", b"CORMTRC1", 1, *fields, pe_id, header["rope_base"], header["seed"], len(tokens)
    )
    head += np.asarray(tokens, dtype="<u4").tobytes()
    payload = b"".join(np.asarray(block, dtype="<f4").tobytes() for block in blocks)
    path.write_bytes(head + payload + struct.pack("<II", zlib.crc32(head), zlib.crc32(payload)))


def replay_steps(trace: AttentionTrace, policy: Policy) -> Iterator[tuple[int, PolicySimulator]]:
    """Replay `trace` under `policy`, yielding (t, simulator) after each step t.

    Cache (layer, group) holds `sim.cache.head_positions(layer * sim.n_groups + group)`
    after step t, a copy; `sim.cache` itself is the live block, which the next step changes.
    """
    sim = PolicySimulator(policy, trace)
    for t in range(1, trace.n_steps + 1):
        sim.step()
        yield t, sim


@pytest.fixture(scope="session")
def small_model():
    """2-layer / 4-head RoPE model shared by read-only tests."""
    return init_model(ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=42))


@pytest.fixture(scope="session")
def small_trace(small_model):
    """64-step recorded trace of the shared model."""
    from corm.trace import record

    return record(small_model, seeded_tokens(5, 64))
