"""Attention-core math: dot scores, softmax, cosine, weighted aggregation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corm.attention import (
    AttentionRow,
    attention_output,
    attention_rows,
    cosine_similarity,
    scaled_dot_scores,
    softmax_normalize,
    stable_argsort_desc,
)
from corm.policies import classify_important

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
        with pytest.raises(ValueError, match="key 1"):
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
        np.testing.assert_allclose(attention_output(row, [[2.0], [4.0]]), [3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 scores for 3 values"):
            attention_output([0.5, 0.5], [[1.0], [1.0], [1.0]])


class TestAttentionRow:
    def test_validates_sum(self):
        with pytest.raises(ValueError, match="sum"):
            AttentionRow(step=1, scores=np.array([0.4, 0.4]))

    def test_validates_step(self):
        with pytest.raises(ValueError, match="step"):
            AttentionRow(step=0, scores=np.array([1.0]))

    def test_validates_range(self):
        with pytest.raises(ValueError):
            AttentionRow(step=1, scores=np.array([1.5, -0.5]))


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

    def test_block_rows_checked_once_with_row_messages(self):
        block = np.full((2, 4), 0.25)
        rows = attention_rows(3, block)
        assert [r.step for r in rows] == [3, 3]
        np.testing.assert_array_equal(rows[1].scores, block[1])
        for value, message in ((0.5, "sum to 1.25"), (np.nan, "NaN or Inf"), (-0.5, r"\[0, 1\]")):
            bad = block.copy()
            bad[1, 0] = value
            with pytest.raises(ValueError, match=message):
                attention_rows(3, bad)


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
        mask_mq = classify_important(row_mq, t)
        true_set = np.flatnonzero(mask_mq)
        by_mq = true_set[stable_argsort_desc(row_mq.scores[true_set])]
        by_q = true_set[stable_argsort_desc(row_q.scores[true_set])]
        assert np.array_equal(by_mq, by_q)
