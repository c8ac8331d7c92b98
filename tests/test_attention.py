"""Attention-core math: dot scores, softmax, cosine, weighted aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corm.attention import (
    AttentionRow,
    attend_position,
    attention_output,
    cosine_similarity,
    scaled_dot_scores,
    softmax_normalize,
    stable_argsort_desc,
)
from corm.policies import KvCacheState, classify_important

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestScaledDotScores:
    def test_orthogonal_identity(self):
        out = scaled_dot_scores([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], d_h=2)
        np.testing.assert_allclose(out, [1.0 / np.sqrt(2), 0.0])

    def test_dh_one_no_scaling(self):
        out = scaled_dot_scores([1.0], [[1.0], [0.0]], d_h=1)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_positive_scaling_preserves_argsort(self):
        keys = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        a = scaled_dot_scores([1.0, 0.25], keys, d_h=2)
        b = scaled_dot_scores([2.0, 0.5], keys, d_h=2)
        assert np.array_equal(np.argsort(a), np.argsort(b))

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.Generator(np.random.PCG64(17))
        q = np.array([0.3, -0.7, 0.2])
        keys = rng.normal(size=(5, 3))
        expected = [sum(q[i] * k[i] for i in range(3)) / np.sqrt(3) for k in keys]
        np.testing.assert_allclose(scaled_dot_scores(q, keys, d_h=3), expected, atol=1e-9)

    def test_dimension_mismatch_names_offending_index(self):
        with pytest.raises(ValueError):
            scaled_dot_scores([1.0, 0.0], [[1.0, 0.0], [1.0, 0.0, 3.0]], d_h=2)
        with pytest.raises(ValueError, match="query"):
            scaled_dot_scores([1.0, 0.0, 0.0], [[1.0, 0.0]], d_h=2)

    @given(
        st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=8),
        st.lists(finite_floats, min_size=3, max_size=3),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_argsort_invariant_under_query_scaling(self, keys, q, m):
        q = np.asarray(q)
        a = stable_argsort_desc(scaled_dot_scores(q, keys, d_h=3))
        b = stable_argsort_desc(scaled_dot_scores(m * q, keys, d_h=3))
        assert np.array_equal(a, b)


class TestSoftmaxNormalize:
    def test_single_element(self):
        np.testing.assert_array_equal(softmax_normalize([5.0]), [1.0])

    def test_equal_entries_uniform(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(softmax_normalize([c] * 4), [0.25] * 4)

    def test_reference_values(self):
        w = np.array([1.0, 2.0, 3.0])
        oracle = np.exp(w) / np.exp(w).sum()
        out = softmax_normalize(w)
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        np.testing.assert_allclose(out, [0.09003, 0.24473, 0.66524], atol=1e-4)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            softmax_normalize([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            softmax_normalize([1.0, float("nan")])

    @given(st.lists(finite_floats, min_size=1, max_size=32))
    def test_sums_to_one_and_never_inverts_order(self, ws):
        out = softmax_normalize(ws)
        assert abs(out.sum() - 1.0) < 1e-6
        assert np.all(out > 0)
        # exp is monotone, so sorting the inputs sorts the outputs; inputs
        # within one ulp of each other may tie but never swap
        order = np.argsort(ws, kind="stable")
        assert np.all(np.diff(out[order]) >= 0)

    def test_exact_argsort_on_separated_inputs(self):
        rng = np.random.Generator(np.random.PCG64(8))
        ws = rng.normal(size=24)
        out = softmax_normalize(ws)
        assert np.array_equal(np.argsort(out, kind="stable"), np.argsort(ws, kind="stable"))

    def test_shift_invariance_large_inputs(self):
        # max-subtraction keeps huge logits finite
        out = softmax_normalize([1000.0, 1001.0])
        np.testing.assert_allclose(out, softmax_normalize([0.0, 1.0]), atol=1e-12)


class TestCosineSimilarity:
    def test_identity(self):
        for v in ([1.0, 2.0], [0.1, -0.5, 7.0]):
            assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_negation(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    @given(
        st.lists(finite_floats, min_size=4, max_size=4),
        st.lists(finite_floats, min_size=4, max_size=4),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_symmetric_and_scale_invariant_in_either_argument(self, a, b, m):
        a, b = np.asarray(a), np.asarray(b)
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        s = cosine_similarity(a, b)
        assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9
        assert cosine_similarity(b, a) == pytest.approx(s, abs=1e-9)
        assert cosine_similarity(m * a, b) == pytest.approx(s, abs=1e-9)
        assert cosine_similarity(a, m * b) == pytest.approx(s, abs=1e-9)


class TestAttentionOutput:
    def test_single_entry(self):
        np.testing.assert_array_equal(attention_output([1.0], [[3.0, 4.0]]), [3.0, 4.0])

    def test_symmetric_mix(self):
        out = attention_output([0.5, 0.5], [[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_matches_scalar_accumulation_oracle(self):
        rng = np.random.Generator(np.random.PCG64(23))
        values = rng.normal(size=(7, 3))
        scores = softmax_normalize(rng.normal(size=7))
        expected = np.zeros(3)
        for s, v in zip(scores, values):
            expected += s * v
        np.testing.assert_allclose(attention_output(scores, values), expected, atol=1e-9)

    def test_accepts_attention_row(self):
        row = AttentionRow(step=2, scores=np.array([0.5, 0.5]))
        np.testing.assert_allclose(attention_output(row.scores, [[2.0], [4.0]]), [3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 scores for 3 values"):
            attention_output([0.5, 0.5], [[1.0], [1.0], [1.0]])


class TestHeadBatching:
    """A leading head axis gives every head the exact bits of one-head math."""

    def test_batched_calls_match_one_head_formulas_bitwise(self):
        rng = np.random.Generator(np.random.PCG64(4))
        g, gs, n, d = 3, 2, 37, 8  # kv heads, query heads per kv head, entries, d_h
        q = rng.normal(size=(g, gs, d))
        keys = rng.normal(size=(g, 1, n, d))
        values = rng.normal(size=(g, 1, n, d))
        logits = scaled_dot_scores(q, keys, d)
        scores = softmax_normalize(logits)
        out = attention_output(scores, values)
        for i in range(g):
            for j in range(gs):
                ref_logits = keys[i, 0] @ q[i, j] / np.sqrt(d)
                e = np.exp(ref_logits - ref_logits.max())
                ref_scores = e / e.sum()
                assert np.array_equal(logits[i, j], ref_logits)
                assert np.array_equal(scores[i, j], ref_scores)
                assert np.array_equal(out[i, j], ref_scores @ values[i, 0])


def runs_of(sizes):
    """(start, stop, n) of each run of consecutive heads with equal sizes, as a cache block gives them."""
    cache = KvCacheState(len(sizes), 0)
    cache.sizes = list(sizes)
    return cache.equal_size_runs()


@st.composite
def run_blocks(draw):
    """A (heads, group, m) attention block with per-head sizes, as decode builds one."""
    heads = draw(st.integers(1, 8))
    group = draw(st.integers(1, 4))
    # a few distinct sizes, so that runs of several heads occur
    choices = draw(st.lists(st.integers(1, 300), min_size=1, max_size=3))
    sizes = draw(st.lists(st.sampled_from(choices), min_size=heads, max_size=heads))
    m = max(sizes) + draw(st.integers(0, 2))
    d = draw(st.sampled_from([1, 4, 8, 16, 32, 64]))
    seed = draw(st.integers(0, 2**32 - 1))
    biased = draw(st.booleans())
    poison = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return sizes, group, m, d, seed, biased, poison


class TestRunBlocks:
    """With `runs`, one call per block gives every head the bits of a call on that head alone."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(run_blocks())
    def test_block_calls_match_per_head_calls(self, block):
        sizes, group, m, d, seed, biased, poison = block
        heads, runs = len(sizes), runs_of(sizes)
        rng = np.random.Generator(np.random.PCG64(seed))
        q = rng.normal(size=(heads, group, d))
        keys = rng.normal(size=(heads, 1, m, d))
        values = rng.normal(size=(heads, 1, m, d))
        # head gains of both signs, as a depth_gain < 0 gives every other layer
        gain = rng.uniform(0.5, 3.0, size=(heads, group, 1)) * rng.choice([-1.0, 1.0], size=(heads, group, 1))
        slopes = rng.uniform(0.01, 1.0, size=(heads, group, 1))
        # distances past a head's size stand for free rows: garbage the functions must ignore
        distance = rng.integers(0, 400, size=(heads, 1, m)).astype(np.float64)
        for h, n in enumerate(sizes):
            keys[h, :, n:] = 1e300
            distance[h, :, n:] = -9.2e18
        inputs = [a.copy() for a in (q, keys, values)]

        logits = scaled_dot_scores(q, keys, d, runs) * gain
        if biased:
            logits = logits - slopes * distance
        logits_in = logits.copy()
        scores = softmax_normalize(logits, runs)
        scores_in = scores.copy()
        out = attention_output(scores, values, runs)
        # each stage computes in the array it returns, never in its inputs
        for arr, before in zip((q, keys, values, logits, scores), inputs + [logits_in, scores_in]):
            assert np.array_equal(arr, before)

        raw = scaled_dot_scores(q, keys, d, runs)
        for h, n in enumerate(sizes):
            one = slice(h, h + 1)
            ref_raw = scaled_dot_scores(q[one], keys[one, :, :n], d)
            ref_logits = ref_raw * gain[one]
            if biased:
                ref_logits = ref_logits - slopes[one] * distance[one, :, :n]
            ref_scores = softmax_normalize(ref_logits)
            assert np.array_equal(raw[one, :, :n], ref_raw)
            assert np.array_equal(scores[one, :, :n], ref_scores)
            assert np.array_equal(out[one], attention_output(ref_scores, values[one, :, :n]))
            assert np.all(raw[h, :, n:] == 0.0) and np.all(scores[h, :, n:] == 0.0)
            # a run of one head and one query takes a 2-D np.dot: the bits of the batched np.matmul
            for j in range(group):
                batched = np.matmul(keys[one, :, :n], q[one, j : j + 1, :, None])[0, 0, :, 0]
                assert np.array_equal(np.dot(keys[h, 0, :n], q[h, j]), batched)
                row = ref_scores[0, j]
                batched = np.matmul(row[None, None, None, :], values[one, :, :n])[0, 0, 0]
                assert np.array_equal(np.dot(row, values[h, 0, :n]), batched)

        # a NaN or infinity raises in a valid entry and is ignored in a pad
        h = int(rng.integers(heads))
        bad = logits.copy()
        bad[h, -1, int(rng.integers(sizes[h]))] = poison
        with pytest.raises(ValueError, match="NaN or Inf"):
            softmax_normalize(bad, runs)
        if sizes[h] < m:
            padded = logits.copy()
            padded[h, -1, sizes[h]] = poison
            assert np.array_equal(softmax_normalize(padded, runs), scores)

    def test_single_full_run_takes_the_plain_path(self):
        rng = np.random.Generator(np.random.PCG64(3))
        logits = rng.normal(size=(4, 2, 9))
        assert np.array_equal(softmax_normalize(logits, [(0, 4, 9)]), softmax_normalize(logits))

    @pytest.mark.parametrize(
        "runs", [[(0, 2, 3)], [(0, 1, 3), (2, 4, 3)], [(0, 4, 0)], [(0, 4, 6)], [(0, 2, 3), (1, 4, 3)]]
    )
    def test_runs_must_tile_the_heads(self, runs):
        with pytest.raises(ValueError, match="run"):
            softmax_normalize(np.zeros((4, 1, 5)), runs)


@st.composite
def position_blocks(draw):
    """One position's (heads, group, m) block as a cache gives it: per-head sizes, m the longest."""
    heads = draw(st.integers(1, 8))
    group = draw(st.sampled_from([1, 2, 4]))
    # a few distinct sizes, so that runs of one and of several heads occur
    choices = draw(st.lists(st.integers(1, 200), min_size=1, max_size=3))
    sizes = draw(st.lists(st.sampled_from(choices), min_size=heads, max_size=heads))
    d = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    biased = draw(st.booleans())
    poison = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return sizes, group, d, seed, biased, poison


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestAttendPosition:
    """The fused one-position call has the bits of the three stages' calls over the same runs."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(position_blocks())
    def test_bits_of_the_three_stages(self, block):
        sizes, group, d, seed, biased, poison = block
        heads, runs, m = len(sizes), runs_of(sizes), max(sizes)
        rng = np.random.Generator(np.random.PCG64(seed))
        q = rng.normal(size=(heads, group, d))
        keys = rng.normal(size=(heads, m, d))
        values = rng.normal(size=(heads, m, d))
        gain = rng.uniform(0.5, 3.0, size=(heads, group, 1)) * rng.choice([-1.0, 1.0], size=(heads, group, 1))
        bias = None
        if biased:
            bias = rng.uniform(0.01, 1.0, size=(heads, group, 1)) * rng.integers(0, 400, size=(heads, 1, m))
        # the pads, past each head's size, hold NaN: the call must never read them
        for h, n in enumerate(sizes):
            keys[h, n:] = values[h, n:] = np.nan
            if biased:
                bias[h, :, n:] = np.nan
        inputs = [a.copy() for a in (q, keys, values, gain)]

        def staged(q, keys, values, bias):
            logits = scaled_dot_scores(q, keys[:, None], d, runs) * gain
            if bias is not None:
                logits = logits - bias
            scores = softmax_normalize(logits, runs)
            return scores, attention_output(scores, values[:, None], runs)

        scores, out = attend_position(q, keys, values, runs, gain, bias)
        ref_scores, ref_out = staged(q, keys, values, bias)
        assert np.array_equal(scores, ref_scores) and np.array_equal(out, ref_out)
        for arr, before in zip((q, keys, values, gain), inputs):
            assert np.array_equal(arr, before, equal_nan=True)

        # a NaN or infinity in a valid entry raises the stages' error (an
        # infinite key may make its score NaN, which numpy warns of)
        h = int(rng.integers(heads))
        j = int(rng.integers(sizes[h]))
        bad_keys, bad_bias = keys.copy(), None if bias is None else bias.copy()
        if biased:
            bad_bias[h, -1, j] = poison
        else:
            bad_keys[h, j] = poison
        with np.errstate(invalid="ignore"):
            message = _error(attend_position, q, bad_keys, values, runs, gain, bad_bias)
            assert message == _error(staged, q, bad_keys, values, bad_bias) == "softmax input contains NaN or Inf"

    def test_a_pad_after_a_longer_head_is_never_read(self):
        # heads of 3 and 5 entries: the first head's pads sit inside the block
        runs = runs_of([3, 5])
        keys = np.ones((2, 5, 2))
        keys[0, 3:] = np.inf
        scores, out = attend_position(np.ones((2, 1, 2)), keys, np.ones((2, 5, 2)), runs, 1.0)
        assert np.array_equal(scores[0, 0], [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0])
        assert np.all(scores[1, 0] == 0.2) and np.array_equal(out, np.ones((2, 1, 2)))


class TestScalingMaskRanking:
    """Scaling a query rescales weights but never reorders them, so the
    important-set ranking by score is the same ranking either way."""

    @pytest.mark.parametrize("seed", range(8))
    def test_important_set_ranking_preserved(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        q = rng.normal(size=4)
        keys = rng.normal(size=(6, 4))
        m = float(rng.uniform(0.1, 10.0))
        t = 6
        row_q = AttentionRow(step=t, scores=softmax_normalize(scaled_dot_scores(q, keys, 4)))
        row_mq = AttentionRow(step=t, scores=softmax_normalize(scaled_dot_scores(m * q, keys, 4)))
        mask_mq = classify_important(row_mq.scores, t)
        true_set = np.flatnonzero(mask_mq)
        by_mq = true_set[stable_argsort_desc(row_mq.scores[true_set])]
        by_q = true_set[stable_argsort_desc(row_q.scores[true_set])]
        assert np.array_equal(by_mq, by_q)
