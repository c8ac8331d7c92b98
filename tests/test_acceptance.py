"""Acceptance suite: one test per criterion, one PASS line per criterion.

Each test pins its tolerances inline and prints a summary line on success
(visible with `pytest -s` or in captured output).
"""

import time

import numpy as np
import pytest

from conftest import make_synthetic_trace, replay_steps, seeded_tokens
from corm.attention import scaled_dot_scores, stable_argsort_desc
from corm.cli import main
from corm.model import ModelConfig, ToyTransformer, init_model
from corm.policies import (
    Corm,
    CormGqa,
    Full,
    H2O,
    Scissorhands,
    StreamingLlm,
    Tova,
)
from corm.trace import load, replay_policy, save
from corm.analysis import (
    overlap_similarity_samples,
    query_similarity_map,
    recent_similarity_fraction,
    sparsity_profile,
    spearman_rank_correlation,
)
from corm.positional import AbsoluteLearned, Rope
from corm.trace import record


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_unbounded_window_is_bit_identical_to_full():
    """CORM with an unbounded window/recent span decodes bit-identically to
    the full cache over 200+ steps, in well under 10 seconds."""
    start = time.monotonic()
    model = init_model(ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=42))
    tokens = seeded_tokens(100, 208)
    a = model.run(tokens, Full()).logits
    b = model.run(tokens, Corm(w=10**9, r=10**9)).logits
    elapsed = time.monotonic() - start
    assert np.array_equal(a, b), "logits must match bit for bit"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"208-step unbounded-window decode bit-identical to full in {elapsed:.1f}s")


def _brute_force_corm_kept(rows, w: int, r: int) -> list[np.ndarray]:
    """Set-algebra oracle: recompute the kept set from raw per-step flags,
    with no message-matrix bookkeeping."""
    flags: dict[int, set[int]] = {}
    survivors: set[int] = set()
    timeline = []
    for t in range(1, len(rows) + 1):
        cache = survivors | {t}
        row = rows[t - 1][0, 0].astype(np.float64)
        flags[t] = {p for p in cache if row[p - 1] >= 1.0 / t}
        if t < w:
            survivors = cache
        else:
            union = set()
            for s in range(t - w + 1, t + 1):
                union |= flags[s]
            survivors = (cache & union) | {p for p in cache if p > t - r}
        timeline.append(np.array(sorted(survivors), dtype=np.int64))
    return timeline


def test_criterion_02_kept_set_matches_brute_force_characterization():
    """Replayed recency-message kept-sets equal the window-union / recent-span
    characterization exactly, for 100 random traces and all (w, r) in
    {1,2,4}^2."""
    rng = np.random.Generator(np.random.PCG64(77))
    for i in range(100):
        n_steps = int(rng.integers(8, 65))
        tr = make_synthetic_trace(n_steps=n_steps, seed=9000 + i, sharpness=5.0)
        for w in (1, 2, 4):
            for r in (1, 2, 4):
                oracle = _brute_force_corm_kept(tr.rows, w, r)
                for t, sim in replay_steps(tr, Corm(w=w, r=r)):
                    np.testing.assert_array_equal(
                        sim.cache.head_positions(0), oracle[t - 1],
                        err_msg=f"trace {i}, w={w}, r={r}, t={t}",
                    )
    report(2, "100 traces x 9 (w,r) configs: kept set == brute-force characterization")


def test_criterion_03_recent_entries_never_evicted():
    """Fuzzed over 1000+ random steps: no entry newer than t-r is ever evicted."""
    rng = np.random.Generator(np.random.PCG64(88))
    total_steps = 0
    while total_steps < 1000:
        n_steps = int(rng.integers(20, 50))
        w = int(rng.integers(1, 7))
        r = int(rng.integers(1, 7))
        tr = make_synthetic_trace(n_steps=n_steps, seed=int(rng.integers(1 << 30)), sharpness=5.0)
        prev = np.array([], dtype=np.int64)
        for t, sim in replay_steps(tr, Corm(w=w, r=r)):
            kept = sim.cache.head_positions(0)
            present = np.append(prev, t)
            recent = present[present > t - r]
            assert np.all(np.isin(recent, kept)), f"recent entry lost at t={t} (w={w}, r={r})"
            prev = kept.copy()
        total_steps += n_steps
    report(3, f"{total_steps} fuzzed steps: recent-r entries always survive")


def test_criterion_04_window_monotonicity():
    """On 20 fixed recorded traces, kept(w=4) <= kept(w=8) <= kept(w=16)
    pointwise at every step, with equal r."""
    model = init_model(ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=21))
    for s in range(20):
        tr = record(model, seeded_tokens(1000 + s, 96))
        replays = [replay_steps(tr, Corm(w=w, r=4)) for w in (4, 8, 16)]
        for steps in zip(*replays):
            t = steps[0][0]
            for li in range(2):
                for g in range(4):
                    k4, k8, k16 = (set(sim.cache.head_positions(li * 4 + g)) for _, sim in steps)
                    assert k4 <= k8 <= k16, f"trace {s}, layer {li}, head {g}, t={t}"
        assert t == 96
    report(4, "20 traces: kept-set grows monotonically in w at every step")


def test_criterion_05_budget_compliance_and_streaming_closed_form():
    """Fixed-budget baselines never exceed their configured bounds over 10k
    fuzzed steps; streaming 4+1020 compression at t=2048 is exactly 0.5."""
    policies = [
        (StreamingLlm(sink=3, recent=5), 8),
        (H2O(heavy=6, recent=4), 10),
        (Scissorhands(budget=5, recent=3, window=4), 8),
        (Tova(budget=7), 7),
    ]
    steps_checked = 0
    for i in range(10):
        tr = make_synthetic_trace(n_steps=250, seed=400 + i, sharpness=2.0)
        for policy, bound in policies:
            for t, sim in replay_steps(tr, policy):
                assert sim.cache.head_positions(0).size <= bound, f"{policy} over bound at t={t}"
                steps_checked += 1
    assert steps_checked == 10_000
    tr = make_synthetic_trace(n_steps=2048, seed=55, sharpness=2.0)
    result = replay_policy(tr, StreamingLlm(sink=4, recent=1020))
    assert result.compression[2047] == 0.5
    report(5, "10k fuzzed steps within budget; streaming 4+1020 at t=2048 compresses 0.5")


def test_criterion_06_attention_weight_order_invariant_under_query_scaling():
    """1000 random (q, K, m>0) triples: the argsort of the attention weights
    is exactly invariant under q -> m*q."""
    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(1000):
        d_h = int(rng.integers(2, 9))
        n_keys = int(rng.integers(1, 12))
        q = rng.normal(size=d_h)
        keys = rng.normal(size=(n_keys, d_h))
        m = float(rng.uniform(1e-3, 1e3))
        a = stable_argsort_desc(scaled_dot_scores(q, keys, d_h))
        b = stable_argsort_desc(scaled_dot_scores(m * q, keys, d_h))
        assert np.array_equal(a, b)
    report(6, "1000 triples: argsort(weights) exactly invariant under positive query scaling")


def test_criterion_07_layer_sparsity_heterogeneity():
    """Over 10 seeded 1024-token inputs on a rotary toy model, the per-layer
    mean important-key fraction differs by at least 1.5x between the
    least and most sparse layers."""
    model = init_model(ModelConfig(n_layers=4, n_heads=2, d_model=32, vocab_size=256, seed=11))
    profiles = []
    for s in range(10):
        tr = record(model, seeded_tokens(100 + s, 1024))
        profiles.append(sparsity_profile(tr).per_layer)
    per_layer = np.mean(profiles, axis=0)  # mean over steps, then over texts
    ratio = per_layer.max() / per_layer.min()
    assert ratio >= 1.5, f"layer fractions {per_layer} ratio {ratio:.2f}"
    report(7, f"per-layer important fractions {np.round(per_layer, 3)}; max/min {ratio:.2f} >= 1.5")


def test_criterion_08_rotary_recency_ordering_and_overlap_correlation():
    """The rotary model's queries are more recency-similar than the
    learned-absolute model's (identical config and seeds), and important-key
    overlap rank-correlates positively with query cosine similarity."""
    def mean_recent_fraction(pe):
        cfg = ModelConfig(
            n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=11, pe=pe
        )
        model = init_model(cfg)
        fracs = []
        for s in range(4):
            tr = record(model, seeded_tokens(200 + s, 384))
            for li in range(2):
                for hd in range(4):
                    sim = query_similarity_map(tr, li, hd)
                    fracs.append(recent_similarity_fraction(sim, 8))
        return float(np.mean(fracs))

    rope_frac = mean_recent_fraction(Rope())
    abs_frac = mean_recent_fraction(AbsoluteLearned())
    assert rope_frac > abs_frac, f"rotary {rope_frac:.3f} vs absolute {abs_frac:.3f}"

    model = init_model(ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=11))
    tr = record(model, seeded_tokens(200, 384))
    rhos = []
    for li in range(2):
        for hd in range(4):
            cos, jac = overlap_similarity_samples(tr, li, hd, 200, seed=5)
            rhos.append(spearman_rank_correlation(cos, jac))
    assert all(r > 0 for r in rhos), f"per-head Spearman {np.round(rhos, 3)}"
    report(
        8,
        f"recent-fraction rotary {rope_frac:.3f} > absolute {abs_frac:.3f}; "
        f"overlap Spearman all positive (min {min(rhos):.2f})",
    )


def test_criterion_09_gqa_degeneration():
    """Group size 1 reproduces per-head recency decisions on 100 fuzzed
    traces, and an ungrouped model is bit-identical through the grouped
    attention path."""
    rng = np.random.Generator(np.random.PCG64(111))
    for i in range(100):
        n_steps = int(rng.integers(8, 40))
        tr = make_synthetic_trace(n_heads=2, n_steps=n_steps, seed=7000 + i, sharpness=4.0)
        w = int(rng.integers(1, 5))
        r = int(rng.integers(1, 5))
        replays = zip(replay_steps(tr, Corm(w=w, r=r)), replay_steps(tr, CormGqa(w=w, r=r, group_size=1)))
        for (t, per_head), (_, grouped) in replays:
            for g in range(2):
                np.testing.assert_array_equal(
                    per_head.cache.head_positions(g), grouped.cache.head_positions(g),
                    err_msg=f"trace {i}, head {g}, t={t}",
                )
        assert t == n_steps

    class HeadDirect(ToyTransformer):
        def _kv_head(self, head: int) -> int:
            return head

    cfg = ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=14, n_kv_heads=4)
    tokens = seeded_tokens(10, 64)
    a = ToyTransformer(cfg).run(tokens, Full()).logits
    b = HeadDirect(cfg).run(tokens, Full()).logits
    assert np.array_equal(a, b)
    report(9, "group-of-1 == per-head on 100 traces; grouped path bit-identical to head-direct")


def test_criterion_10_trace_round_trip_and_corruption_detection(tmp_path):
    """save-then-load is the identity on 50 random traces, and flipping any
    single byte is always detected."""
    from corm.trace import TraceError

    rng = np.random.Generator(np.random.PCG64(222))
    for i in range(50):
        tr = make_synthetic_trace(
            n_layers=int(rng.integers(1, 3)),
            n_heads=int(rng.integers(1, 4)),
            n_steps=int(rng.integers(2, 24)),
            seed=3000 + i,
        )
        path = tmp_path / f"t{i}.trc"
        save(tr, path)
        back = load(path)
        assert back.meta == tr.meta
        np.testing.assert_array_equal(back.tokens, tr.tokens)
        for a, b in zip(back.rows + back.queries, tr.rows + tr.queries):
            np.testing.assert_array_equal(a, b)
        blob = bytearray(path.read_bytes())
        offset = int(rng.integers(0, len(blob)))
        blob[offset] ^= 0xFF
        bad = tmp_path / f"bad{i}.trc"
        bad.write_bytes(bytes(blob))
        with pytest.raises(TraceError):
            load(bad)
    report(10, "50 traces round-trip losslessly; 50 single-byte corruptions all detected")


def test_criterion_11_end_to_end_generate_reproducibility(tmp_path):
    """`generate` with [full, corm:8+8] on a frozen manifest produces
    byte-identical files across two runs."""
    import json
    import os

    cfg = dict(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=42)
    (tmp_path / "model.json").write_text(json.dumps(cfg))
    manifest = {
        "model_config": "model.json",
        "policies": ["full", "corm:8+8"],
        "input": {"kind": "synthetic", "seed": 12, "length": 48},
        "seed": 0,
        "generate_steps": 16,
        "checkpoints": [16, 32, 48, 64],
    }

    def run(name):
        mpath = tmp_path / f"{name}.json"
        manifest["out"] = name
        mpath.write_text(json.dumps(manifest))
        assert main(["generate", "--manifest", str(mpath)]) == 0
        out = {}
        root = tmp_path / name
        for dirpath, _, files in os.walk(root):
            for fname in files:
                p = os.path.join(dirpath, fname)
                out[os.path.relpath(p, root)] = open(p, "rb").read()
        return out

    a = run("runA")
    b = run("runB")
    assert set(a) == set(b)
    diffs = [name for name in a if name != "manifest.json" and a[name] != b[name]]
    assert not diffs, f"files differ across reruns: {diffs}"
    expected = {
        "full/tokens.txt",
        "full/compression.csv",
        "corm_8+8/tokens.txt",
        "corm_8+8/compression.csv",
        "corm_8+8/divergence_vs_full.csv",
        "manifest.json",
    }
    assert {n.replace(os.sep, "/") for n in a} == expected
    report(11, "generate [full, corm:8+8] byte-identical across runs")
