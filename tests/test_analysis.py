"""Sparsity, similarity, overlap, divergence, and curve measurements."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_synthetic_trace, peak_bytes, seeded_tokens, synthetic_blocks, trace_of
from corm.analysis import (
    ARGMAX_ROWS,
    importance_overlap,
    output_divergence,
    overlap_similarity_samples,
    query_similarity_map,
    recent_similarity_fraction,
    sparsity_profile,
    spearman_rank_correlation,
    write_csv,
    write_similarity_csv,
)
from corm.attention import cosine_similarity
from corm.cli import main
from corm.policies import Corm, Full, StreamingLlm, mean_compression_rate
from corm.trace import _payload_floats, load, save


def uniform_trace(n_steps=10):
    rows, queries = synthetic_blocks(n_steps=n_steps, seed=0)
    for t in range(1, n_steps + 1):
        rows[t - 1][...] = 1.0 / t
    return trace_of(rows, queries)


def one_hot_trace(n_steps=10):
    rows, queries = synthetic_blocks(n_steps=n_steps, seed=0)
    for t in range(1, n_steps + 1):
        rows[t - 1][...] = 0.0
        rows[t - 1][:, :, 0] = 1.0
    return trace_of(rows, queries)


class TestSparsity:
    def test_uniform_rows_fully_dense(self):
        profile = sparsity_profile(uniform_trace())
        np.testing.assert_allclose(profile.per_head, 1.0)  # score == mean counts (>=)
        np.testing.assert_allclose(1.0 - profile.per_head, 0.0)

    def test_one_hot_rows_closed_form(self):
        n = 10
        profile = sparsity_profile(one_hot_trace(n))
        expected = np.mean([1.0 / t for t in range(1, n + 1)])
        np.testing.assert_allclose(profile.per_layer, expected)

    def test_values_in_unit_interval_and_positive(self, small_trace):
        profile = sparsity_profile(small_trace)
        assert np.all(profile.per_head > 0.0) and np.all(profile.per_head <= 1.0)


class TestQuerySimilarityMap:
    def test_repeated_queries_all_ones(self):
        rows, queries = synthetic_blocks(n_steps=6, seed=1)
        fixed = queries[0][0, 0]
        for t in range(6):
            queries[t][0, 0] = fixed
        sim = query_similarity_map(trace_of(rows, queries), 0, 0)
        for i in range(1, 6):
            np.testing.assert_allclose(sim[i, :i], 1.0, atol=1e-6)
        assert np.all(sim[np.triu_indices(6)] == 0.0)

    def test_three_query_hand_fixture(self):
        rows, queries = synthetic_blocks(n_steps=3, seed=2, d_h=2)
        qs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        for t in range(3):
            queries[t][0, 0] = qs[t]
        sim = query_similarity_map(trace_of(rows, queries, d_h=2), 0, 0)
        assert sim[1, 0] == pytest.approx(0.0, abs=1e-7)
        assert sim[2, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-7)
        assert sim[2, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-7)

    def test_max_steps_cap(self, small_trace):
        # analyze caps the written map by slicing: the leading block is the map of the first steps
        capped = query_similarity_map(small_trace, 0, 0)[:10, :10]
        assert capped.shape == (10, 10)
        # a trace's first steps are its payload's leading values
        first = dataclasses.replace(
            small_trace, tokens=small_trace.tokens[:10], payload=small_trace.payload[: _payload_floats(2, 4, 16, 10)]
        )
        np.testing.assert_allclose(capped, query_similarity_map(first, 0, 0), rtol=0, atol=1e-12)


class TestRecentSimilarityFraction:
    def test_distance_decreasing_map_is_one(self):
        n = 12
        sim = np.zeros((n, n))
        for i in range(n):
            for j in range(i):
                sim[i, j] = 1.0 - 0.05 * (i - j)
        for k in (1, 3, 8):
            assert recent_similarity_fraction(sim, k) == 1.0

    def test_one_far_argmax_among_four(self):
        n = 5
        sim = np.zeros((n, n))
        for i in range(1, n):
            for j in range(i):
                sim[i, j] = 1.0 - 0.1 * (i - j)
        sim[4, :4] = [0.99, 0.1, 0.1, 0.2]  # row 4's best match is 4 steps back
        assert recent_similarity_fraction(sim, 1) == pytest.approx(0.75)

    def test_k_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            recent_similarity_fraction(np.zeros((4, 4)), 0)

    def test_two_queries_are_enough_and_one_is_not(self):
        assert recent_similarity_fraction(np.zeros((2, 2)), 1) == 1.0
        with pytest.raises(ValueError, match="at least 2 queries"):
            recent_similarity_fraction(np.zeros((1, 1)), 1)

    @pytest.mark.parametrize("n", [2, 3, ARGMAX_ROWS, ARGMAX_ROWS + 1, ARGMAX_ROWS + 2, 3 * ARGMAX_ROWS + 5])
    @pytest.mark.parametrize("k", [1, 2, ARGMAX_ROWS, 500])
    def test_blocked_argmax_matches_a_per_row_reference(self, n, k):
        # four values, so most rows tie; every third row is below zero, where the zero diagonal must not count
        rng = np.random.Generator(np.random.PCG64(n))
        sim = np.tril(rng.choice([-1.0, -0.5, 0.25, 0.5], size=(n, n)), k=-1)
        sim[::3] = np.tril(-np.abs(sim[::3]) - 0.5, k=-1)
        # rows on both sides of each block edge (blocks start at rows 1, 1 + ARGMAX_ROWS, ...) tie their
        # first and last predecessor, so the first maximum decides
        for edge in range(1 + ARGMAX_ROWS, n, ARGMAX_ROWS):
            for i in (edge - 1, edge):
                if i < n:
                    sim[i, :i] = 0.0
                    sim[i, [0, i - 1]] = 0.75
        hits = 0
        for i in range(1, n):
            row = sim[i, :i].tolist()
            hits += i - row.index(max(row)) <= k
        assert recent_similarity_fraction(sim, k) == hits / (n - 1)


class TestImportanceOverlap:
    def test_same_step_full_overlap(self, small_trace):
        assert importance_overlap(small_trace, 0, 0, 9, 9) == 1.0

    def test_disjoint_masks_zero(self):
        rows, queries = synthetic_blocks(n_steps=6, seed=3)
        # over the common prefix of 3 keys: step 4 flags key 1, step 5 flags keys 2-3
        rows[3][0, 0] = np.array([0.97, 0.01, 0.01, 0.01], dtype=np.float32)
        rows[4][0, 0] = np.array([0.01, 0.48, 0.48, 0.015, 0.015], dtype=np.float32)
        assert importance_overlap(trace_of(rows, queries), 0, 0, 4, 5) == 0.0

    def test_first_step_pair_defined(self, small_trace):
        assert importance_overlap(small_trace, 0, 0, 1, 5) == 1.0  # empty prefix

    def test_bounds_checked(self, small_trace):
        with pytest.raises(ValueError, match="outside trace"):
            importance_overlap(small_trace, 0, 0, 1, 65)

    def test_three_steps_are_enough_to_sample_and_two_are_not(self):
        cos, jac = overlap_similarity_samples(trace_of(*synthetic_blocks(n_steps=3)), 0, 0, 4, seed=3)
        assert cos.shape == jac.shape == (4,)
        with pytest.raises(ValueError, match="at least 3 steps"):
            overlap_similarity_samples(trace_of(*synthetic_blocks(n_steps=2)), 0, 0, 4, seed=3)

    @pytest.mark.parametrize("layer,head,seed", [(0, 0, 3), (1, 2, 11), (1, 3, 0)])
    def test_samples_match_a_pairwise_loop(self, small_trace, layer, head, seed):
        # the pairs as the RNG draws them, one cosine and one importance_overlap each
        rng = np.random.Generator(np.random.PCG64(seed))
        q = small_trace.queries
        cos, jac = [], []
        for _ in range(120):
            i = int(rng.integers(3, small_trace.n_steps + 1))
            j = int(rng.integers(2, i))
            cos.append(cosine_similarity(q[i - 1][layer, head], q[j - 1][layer, head]))
            jac.append(importance_overlap(small_trace, layer, head, i, j))
        got = overlap_similarity_samples(small_trace, layer, head, 120, seed=seed)
        assert got[0].tobytes() == np.array(cos).tobytes()
        assert got[1].tobytes() == np.array(jac).tobytes()

    def test_sampling_is_deterministic(self, small_trace):
        a = overlap_similarity_samples(small_trace, 0, 0, 50, seed=3)
        b = overlap_similarity_samples(small_trace, 0, 0, 50, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestSpearman:
    def test_monotone_is_one(self):
        x = np.arange(10.0)
        assert spearman_rank_correlation(x, x**3) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        x = np.arange(10.0)
        assert spearman_rank_correlation(x, -x) == pytest.approx(-1.0)

    def test_ties_use_average_ranks(self):
        rho = spearman_rank_correlation([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert rho == pytest.approx(0.866, abs=1e-3)

    def test_constant_input_is_nan(self):
        assert np.isnan(spearman_rank_correlation([1.0, 1.0], [2.0, 3.0]))


class TestOutputDivergence:
    def test_identity(self):
        rng = np.random.Generator(np.random.PCG64(4))
        logits = rng.normal(size=(12, 16))
        div = output_divergence(logits, logits)
        assert div.top1_match.mean() == 1.0
        assert div.kl.mean() == 0.0

    def test_shift_invariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        logits = rng.normal(size=(6, 8))
        div = output_divergence(logits, logits + 3.5)
        assert div.top1_match.mean() == 1.0
        assert div.kl.mean() == pytest.approx(0.0, abs=1e-12)

    def test_hand_kl_oracle(self):
        a = np.array([[np.log(0.75), np.log(0.25)]])
        b = np.array([[np.log(0.5), np.log(0.5)]])
        div = output_divergence(a, b)
        expected = 0.75 * np.log(0.75 / 0.5) + 0.25 * np.log(0.25 / 0.5)
        assert div.kl.mean() == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            output_divergence(np.zeros((3, 4)), np.zeros((2, 4)))

    def test_unbounded_window_agrees_fully(self, small_model):
        tokens = seeded_tokens(6, 40)
        a = small_model.run(tokens, Full()).logits
        b = small_model.run(tokens, Corm(w=10**9, r=10**9)).logits
        div = output_divergence(a, b)
        assert div.top1_match.mean() == 1.0
        assert div.kl.mean() == 0.0

    def test_frozen_corm_fixture(self, small_model):
        """Regression constants computed once for this exact configuration."""
        tokens = seeded_tokens(1, 256)
        lf = small_model.run(tokens, Full()).logits
        lc = small_model.run(tokens, Corm(w=8, r=8)).logits
        div = output_divergence(lf, lc)
        assert div.top1_match.mean() == pytest.approx(0.515625, abs=1e-12)
        assert div.kl.mean() == pytest.approx(0.07523634749919109, rel=1e-9)

    @staticmethod
    def unblocked(a, b):
        """The whole-array formula the blocked function must reproduce bit for bit."""
        match = np.argmax(a, axis=1) == np.argmax(b, axis=1)
        la = a - a.max(axis=1, keepdims=True)
        lb = b - b.max(axis=1, keepdims=True)
        logp = la - np.log(np.exp(la).sum(axis=1, keepdims=True))
        logq = lb - np.log(np.exp(lb).sum(axis=1, keepdims=True))
        p = np.exp(logp)
        return match, np.maximum(np.sum(p * (logp - logq), axis=1), 0.0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, ARGMAX_ROWS - 1, ARGMAX_ROWS, ARGMAX_ROWS + 1, 3 * ARGMAX_ROWS + 5]),
        vocab=st.sampled_from([2, 5, 37, 250, 256]),
        scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0]),
        seed=st.integers(0, 2**16),
    )
    def test_blocks_match_the_unblocked_formula(self, n, vocab, scale, seed):
        # b is a perturbed a, so KL runs from exactly 0 (scale 0) to large
        rng = np.random.Generator(np.random.PCG64(seed))
        a = 4.0 * rng.normal(size=(n, vocab))
        b = a + scale * rng.normal(size=(n, vocab))
        a0, b0 = a.copy(), b.copy()
        div = output_divergence(a, b)
        match, kl = self.unblocked(a0, b0)
        assert np.array_equal(div.top1_match, match)
        assert np.array_equal(div.kl, kl)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

    def test_peak_below_one_logit_array(self):
        # the unblocked formula held about six (T, vocab) float64 temporaries (24 MB here)
        rng = np.random.Generator(np.random.PCG64(8))
        a, b = rng.normal(size=(2, 2048, 256))
        peak = peak_bytes(lambda: output_divergence(a, b))
        assert peak < a.nbytes, f"output_divergence peaked at {peak} bytes, one input is {a.nbytes}"


class TestCompressionCurve:
    """Live model-mean compression rates, read at checkpoints from the cache sizes `run` records."""

    @staticmethod
    def curve(model, tokens, policy, checkpoints):
        sizes = model.run(tokens, policy).state.step_sizes
        return [(t, mean_compression_rate(sizes[t - 1], t)) for t in checkpoints]

    def test_full_policy_all_zero(self, small_model):
        curve = self.curve(small_model, seeded_tokens(7, 24), Full(), [8, 16, 24])
        assert curve == [(8, 0.0), (16, 0.0), (24, 0.0)]

    def test_streaming_closed_form(self, small_model):
        sink, recent = 2, 6
        curve = self.curve(small_model, seeded_tokens(8, 32), StreamingLlm(sink, recent), [4, 16, 32])
        assert [t for t, _ in curve] == [4, 16, 32]
        for t, rate in curve:
            assert rate == pytest.approx(1.0 - min(t, sink + recent) / t)

    def test_corm_rate_nondecreasing(self, small_model):
        checkpoints = [16, 32, 64, 96, 128]
        curve = self.curve(small_model, seeded_tokens(9, 128), Corm(w=4, r=4), checkpoints)
        rates = [r for _, r in curve]
        assert len(rates) == len(checkpoints)
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.0


class TestWriters:
    def test_recent_fraction_and_overlap_schemas(self, tmp_path):
        path = tmp_path / "rf.csv"
        write_csv(path, [("layer", "head", "k", "recent_fraction"), (0, 1, 8, 0.25), (1, 0, 8, 0.1 + 0.2)])
        assert path.read_text() == "layer,head,k,recent_fraction\n0,1,8,0.25\n1,0,8,0.30000000000000004\n"
        path = tmp_path / "ov.csv"
        write_csv(path, [("layer", "head", "query_cosine", "jaccard"), (0, 0, 0.5, 1.0)])
        assert path.read_text() == "layer,head,query_cosine,jaccard\n0,0,0.5,1.0\n"

    def test_curve_schema(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("step", "compression_rate"), *enumerate(np.array([0.0, 0.125]).tolist(), start=7)])
        assert path.read_text() == "step,compression_rate\n7,0.0\n8,0.125\n"

    def test_csv_without_header_or_rows(self, tmp_path):
        path = tmp_path / "tokens.txt"
        write_csv(path, [[t] for t in np.array([5, 0, 63]).tolist()])
        assert path.read_text() == "5\n0\n63\n"
        write_csv(path, [])
        assert path.read_bytes() == b""

    def test_similarity_grid_is_lower_triangular(self, tmp_path):
        sim = np.tril(np.full((3, 3), 0.5), k=-1)
        path = tmp_path / "sim.csv"
        write_similarity_csv(path, sim)
        lines = path.read_text().splitlines()
        assert lines[0] == ",,"
        assert lines[1] == "0.5,,"
        assert lines[2] == "0.5,0.5,"


def test_analyze_holds_one_similarity_map_at_a_time(tmp_path):
    # each head's 300 x 300 float64 map is 720 kB, about twice the trace file: building the next head's
    # map beside the last one would peak near the trace plus two maps
    save(make_synthetic_trace(n_heads=2, n_steps=300, seed=4), tmp_path / "t.trc")
    tracemalloc.start()
    try:
        trace = load(tmp_path / "t.trc")  # noqa: F841 (held while its bytes are counted)
        trace_bytes = tracemalloc.get_traced_memory()[0]  # the file and its step views
    finally:
        tracemalloc.stop()
    sim_map = 8 * 300 * 300
    peak = peak_bytes(lambda: main(["analyze", "--trace", str(tmp_path / "t.trc"), "--out", str(tmp_path / "a")]))
    assert peak < trace_bytes + 1.5 * sim_map, f"analyze peaked {(peak - trace_bytes) / sim_map:.2f} maps above it"
