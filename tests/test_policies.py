"""Eviction policies: hand-simulated fixtures, invariants, and parsing."""

import numpy as np
import pytest

from corm.attention import AttentionRow
from corm.policies import (
    Corm,
    CormGqa,
    Full,
    H2O,
    KvCacheState,
    Scissorhands,
    StreamingLlm,
    Tova,
    apply_policy,
    classify_important,
    compression_rate,
    corm_update,
    gqa_corm_update,
    h2o_update,
    layer_caches,
    mean_compression_rate,
    parse_policy,
    policy_label,
    scissorhands_update,
    streaming_update,
    tova_update,
    validate_policy,
)


def row(t: int, scores) -> AttentionRow:
    return AttentionRow(step=t, scores=np.asarray(scores, dtype=np.float64))


def fresh_cache() -> KvCacheState:
    return KvCacheState.empty(d_k=2, d_v=2)


def push(cache: KvCacheState, t: int) -> None:
    cache.append([float(t), 0.0], [0.0, float(t)], t)


class TestPolicyParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("full", Full()),
            ("streaming:4+1020", StreamingLlm(sink=4, recent=1020)),
            ("h2o:768+256", H2O(heavy=768, recent=256)),
            ("scissorhands:768+256", Scissorhands(budget=768, recent=256, window=256)),
            ("scissorhands:768+256:128", Scissorhands(budget=768, recent=256, window=128)),
            ("tova:512", Tova(budget=512)),
            ("corm:256+256", Corm(w=256, r=256)),
            ("gqa_corm:8+8", CormGqa(w=8, r=8, group_size=None)),
            ("gqa_corm:8+8:4", CormGqa(w=8, r=8, group_size=4)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_policy(text) == expected

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="valid names: full, streaming"):
            parse_policy("snapkv:64")

    @pytest.mark.parametrize("bad", ["corm", "corm:8", "corm:a+b", "h2o:1+2+3", "full:1", "tova"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_policy(bad)

    def test_labels_are_file_safe(self):
        for text in ("full", "streaming:4+1020", "corm:256+256", "gqa_corm:8+8:2"):
            label = policy_label(parse_policy(text))
            assert ":" not in label and "/" not in label

    @pytest.mark.parametrize(
        "policy", [Corm(w=0, r=1), Corm(w=1, r=0), Tova(budget=0), StreamingLlm(sink=0, recent=5)]
    )
    def test_nonpositive_sizes_rejected(self, policy):
        with pytest.raises(ValueError, match=">= 1"):
            validate_policy(policy)


class TestClassifyImportant:
    def test_quarter_threshold(self):
        mask = classify_important(row(4, [0.4, 0.3, 0.2, 0.1]), t=4)
        np.testing.assert_array_equal(mask, [True, True, False, False])

    def test_first_step_always_important(self):
        np.testing.assert_array_equal(classify_important(row(1, [1.0]), t=1), [True])

    def test_uniform_survivors_all_important(self):
        # k surviving keys at step t > k: each scores 1/k >= 1/t
        k, t = 4, 9
        mask = classify_important(row(t, [1.0 / k] * k), t=t)
        assert mask.all()

    def test_cache_denominator_flag(self):
        r = row(8, [0.3, 0.3, 0.2, 0.2])
        assert classify_important(r, 8, threshold="step").all()
        np.testing.assert_array_equal(
            classify_important(r, 8, threshold="cache"), [True, True, False, False]
        )

    def test_step_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            classify_important(row(3, [0.5, 0.5]), t=4)


class TestKvCacheState:
    def test_append_grows_all_parallel_arrays(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c, t)
            c.check()
        assert c.size == 3
        np.testing.assert_array_equal(c.positions, [1, 2, 3])

    def test_append_pads_message_columns_with_false(self):
        c = fresh_cache()
        push(c, 1)
        c.push_message(np.array([True]), window=4)
        push(c, 2)
        np.testing.assert_array_equal(c.message, [[True, False]])

    def test_out_of_order_append_rejected(self):
        c = fresh_cache()
        push(c, 2)
        with pytest.raises(ValueError, match="not after"):
            push(c, 2)

    def test_keep_only_prunes_message_columns(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c, t)
        c.push_message(np.array([True, False, True]), window=4)
        c.keep_only(np.array([True, False, True]))
        np.testing.assert_array_equal(c.positions, [1, 3])
        np.testing.assert_array_equal(c.message, [[True, True]])
        c.check()


    def test_keep_only_rejects_mask_of_wrong_length(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c, t)
        with pytest.raises(ValueError, match="2 flags for a cache of 3"):
            c.keep_only(np.array([True, False]))

    def test_heads_of_a_layer_share_one_block_across_doublings(self):
        a, b = layer_caches(2, 2, 2)
        assert a.block is b.block
        for t in range(1, 41):
            push(a, t)
            if t <= 3:
                push(b, t)
        assert a.block.capacity >= 40
        np.testing.assert_array_equal(a.positions, np.arange(1, 41))
        np.testing.assert_array_equal(b.keys, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        a.check()
        b.check()

    def test_message_is_oldest_first_after_the_ring_wraps(self):
        c = fresh_cache()
        masks = []
        for t in range(1, 8):
            push(c, t)
            masks.append(np.arange(t) % 3 == t % 3)
            c.push_message(masks[-1], window=3)
        expect = [np.concatenate([m, np.zeros(7 - m.size, dtype=bool)]) for m in masks[-3:]]
        np.testing.assert_array_equal(c.message, expect)

    def test_message_columns_past_size_are_never_read(self):
        rng = np.random.Generator(np.random.PCG64(5))
        clean, dirty = fresh_cache(), fresh_cache()
        for t in range(1, 60):
            dirty._ring[:, dirty.size :] = True  # stale columns where the next entry goes
            push(clean, t)
            push(dirty, t)
            dirty._ring[:, dirty.size :] = True
            scores = rng.dirichlet(np.full(clean.size, 0.4))
            corm_update(clean, row(t, scores), w=3, r=2, t=t)
            corm_update(dirty, row(t, scores), w=3, r=2, t=t)
            dirty.check()
            np.testing.assert_array_equal(clean.positions, dirty.positions)
            np.testing.assert_array_equal(clean.message, dirty.message)

    def test_check_raises_value_errors_naming_the_invariant(self):
        c = fresh_cache()
        push(c, 1)
        push(c, 2)
        c.block.positions[0, 1] = 1
        with pytest.raises(ValueError, match="strictly increase"):
            c.check()
        c.block.sizes[0] = c.block.capacity + 1
        with pytest.raises(ValueError, match="capacity"):
            c.check()


class TestCormUpdate:
    def test_no_eviction_while_window_unfilled(self):
        c = fresh_cache()
        w = 5
        for t in range(1, w):  # first w-1 steps
            push(c, t)
            scores = np.full(t, 1.0 / t)
            corm_update(c, row(t, scores), w=w, r=1, t=t)
            assert c.size == t, "cache must grow by exactly one entry per step"
            assert c.message.shape == (t, t)

    def test_hand_simulation_four_keys(self):
        """w=2, r=1: key 1 minor in the two newest rows and not recent -> evicted."""
        c = fresh_cache()
        steps = {
            1: [1.0],
            2: [0.6, 0.4],
            3: [0.2, 0.45, 0.35],
            4: [0.2, 0.3, 0.3, 0.2],
        }
        for t, scores in steps.items():
            push(c, t)
            corm_update(c, row(t, scores), w=2, r=1, t=t)
            c.check()
            if t < 4:
                assert c.size == t
        np.testing.assert_array_equal(c.positions, [2, 3, 4])
        assert c.message.shape == (2, 3)

    def test_window_larger_than_trace_never_evicts(self):
        c = fresh_cache()
        rng = np.random.Generator(np.random.PCG64(0))
        for t in range(1, 33):
            push(c, t)
            scores = rng.dirichlet(np.ones(t))
            corm_update(c, row(t, scores), w=10**9, r=1, t=t)
        assert c.size == 32

    def test_bad_sizes_rejected(self):
        c = fresh_cache()
        push(c, 1)
        with pytest.raises(ValueError, match=">= 1"):
            corm_update(c, row(1, [1.0]), w=0, r=1, t=1)
        with pytest.raises(ValueError, match=">= 1"):
            corm_update(c, row(1, [1.0]), w=1, r=0, t=1)

    def test_row_cache_length_mismatch_rejected(self):
        c = fresh_cache()
        push(c, 1)
        push(c, 2)
        with pytest.raises(ValueError, match="scores for a cache"):
            corm_update(c, row(2, [1.0]), w=2, r=1, t=2)

    @pytest.mark.parametrize("w,r", [(1, 1), (2, 1), (3, 2), (4, 4)])
    def test_recent_keep_and_characterization_fuzz(self, w, r):
        """Live-style fuzz: the kept set always equals the window-union oracle
        and never loses an entry from the last r steps."""
        rng = np.random.Generator(np.random.PCG64(41 * w + r))
        c = fresh_cache()
        flagged: dict[int, set[int]] = {}
        for t in range(1, 120):
            push(c, t)
            scores = rng.dirichlet(np.full(c.size, 0.4))
            r_t = row(t, scores)
            mask = classify_important(r_t, t)
            flagged[t] = set(c.positions[mask])
            present = set(c.positions)
            corm_update(c, r_t, w=w, r=r, t=t)
            c.check()
            assert c.message.shape[1] == c.size
            kept = set(c.positions)
            recent = {p for p in present if p > t - r}
            assert recent <= kept, f"recent entry evicted at t={t}"
            if t >= w:
                union = set()
                for s in range(t - w + 1, t + 1):
                    union |= flagged[s]
                assert kept == (union & present) | recent


class TestStreamingUpdate:
    def test_positions_one_and_three_kept(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c, t)
        streaming_update(c, row(3, [0.2, 0.3, 0.5]), sink=1, recent=1, t=3)
        np.testing.assert_array_equal(c.positions, [1, 3])

    def test_no_eviction_within_budget(self):
        c = fresh_cache()
        for t in range(1, 11):
            push(c, t)
            streaming_update(c, row(t, np.full(c.size, 1.0 / c.size)), sink=4, recent=6, t=t)
            assert c.size == t

    def test_size_closed_form_over_random_trace(self):
        rng = np.random.Generator(np.random.PCG64(7))
        sink, recent = 3, 5
        c = fresh_cache()
        for t in range(1, 101):
            push(c, t)
            scores = rng.dirichlet(np.ones(c.size))
            streaming_update(c, row(t, scores), sink=sink, recent=recent, t=t)
            assert c.size == min(t, sink + recent)


class TestH2OUpdate:
    def run_steps(self, step_scores, heavy, recent):
        c = fresh_cache()
        for t, scores in enumerate(step_scores, start=1):
            push(c, t)
            h2o_update(c, row(t, scores), heavy=heavy, recent=recent, t=t)
            c.check()
        return c

    def test_identity_under_budget(self):
        c = self.run_steps([[1.0], [0.5, 0.5], [0.4, 0.3, 0.3]], heavy=4, recent=4)
        assert c.size == 3

    def test_lowest_accumulation_evicted_first(self):
        # accumulations after step 3: key1=2.2, key2=0.4, key3=0.4 (recent)
        c = self.run_steps([[1.0], [0.7, 0.3], [0.5, 0.1, 0.4]], heavy=1, recent=1)
        np.testing.assert_array_equal(c.positions, [1, 3])

    def test_size_bounded(self):
        rng = np.random.Generator(np.random.PCG64(13))
        c = fresh_cache()
        for t in range(1, 200):
            push(c, t)
            h2o_update(c, row(t, rng.dirichlet(np.ones(c.size))), heavy=5, recent=3, t=t)
            assert c.size <= 8


class TestScissorhandsUpdate:
    def test_hand_fixture_eviction_order(self):
        c = fresh_cache()
        steps = {
            1: [1.0],
            2: [0.6, 0.4],
            3: [0.3, 0.25, 0.45],
            4: [0.3, 0.1, 0.3, 0.3],
        }
        for t, scores in steps.items():
            push(c, t)
            scissorhands_update(c, row(t, scores), budget=2, window=2, recent=1, t=t)
            c.check()
        # counts over the last 2 masks: key2 lowest among non-recent -> evicted
        np.testing.assert_array_equal(c.positions, [1, 3, 4])
        push(c, 5)
        scissorhands_update(c, row(5, [0.3, 0.3, 0.2, 0.2]), budget=2, window=2, recent=1, t=5)
        # three-way count tie among non-recent entries: lowest position goes
        np.testing.assert_array_equal(c.positions, [3, 4, 5])

    def test_always_important_key_outlives_never_important(self):
        rng = np.random.Generator(np.random.PCG64(3))
        c = fresh_cache()
        for t in range(1, 60):
            push(c, t)
            scores = np.full(c.size, 0.5 / (c.size - 1)) if c.size > 1 else np.array([1.0])
            if c.size > 1:
                scores[c.positions == 1] = 0.5  # key 1 always far above 1/t
                scores /= scores.sum()
            scissorhands_update(c, row(t, scores), budget=3, window=4, recent=2, t=t)
            assert 1 in c.positions, f"always-important key evicted at t={t}"
            assert c.size <= 5

    def test_size_bounded(self):
        rng = np.random.Generator(np.random.PCG64(29))
        c = fresh_cache()
        for t in range(1, 150):
            push(c, t)
            scissorhands_update(
                c, row(t, rng.dirichlet(np.ones(c.size))), budget=4, window=3, recent=2, t=t
            )
            assert c.size <= 6


class TestTovaUpdate:
    def test_identity_under_budget(self):
        c = fresh_cache()
        for t in (1, 2):
            push(c, t)
            tova_update(c, row(t, np.full(t, 1.0 / t)), budget=2, t=t)
        assert c.size == 2

    def test_lowest_current_score_evicted(self):
        c = fresh_cache()
        for t, scores in [(1, [1.0]), (2, [0.3, 0.7]), (3, [0.2, 0.5, 0.3])]:
            push(c, t)
            tova_update(c, row(t, scores), budget=2, t=t)
        np.testing.assert_array_equal(c.positions, [2, 3])
        push(c, 4)
        tova_update(c, row(4, [0.25, 0.25, 0.5]), budget=2, t=4)
        # tie between positions 2 and 3: lower position evicted
        np.testing.assert_array_equal(c.positions, [3, 4])

    def test_size_bounded(self):
        rng = np.random.Generator(np.random.PCG64(31))
        c = fresh_cache()
        for t in range(1, 100):
            push(c, t)
            tova_update(c, row(t, rng.dirichlet(np.ones(c.size))), budget=6, t=t)
            assert c.size <= 6


class TestGqaCormUpdate:
    def test_degenerate_group_matches_per_head(self):
        rng = np.random.Generator(np.random.PCG64(2))
        a, b = fresh_cache(), fresh_cache()
        for t in range(1, 40):
            push(a, t)
            push(b, t)
            scores = rng.dirichlet(np.full(a.size, 0.5))
            corm_update(a, row(t, scores), w=3, r=2, t=t)
            gqa_corm_update(b, [row(t, scores)], w=3, r=2, t=t)
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.message, b.message)

    def test_or_mask_keeps_key_flagged_by_one_head(self):
        c = fresh_cache()
        push(c, 1)
        gqa_corm_update(c, [row(1, [1.0]), row(1, [1.0])], w=1, r=1, t=1)
        push(c, 2)
        # head A flags key 1, head B does not: OR keeps it
        gqa_corm_update(c, [row(2, [0.6, 0.4]), row(2, [0.4, 0.6])], w=1, r=1, t=2)
        np.testing.assert_array_equal(c.positions, [1, 2])
        push(c, 3)
        # no head flags key 1 any more and it is outside recent-1
        gqa_corm_update(c, [row(3, [0.2, 0.5, 0.3]), row(3, [0.1, 0.3, 0.6])], w=1, r=1, t=3)
        np.testing.assert_array_equal(c.positions, [2, 3])

    def test_empty_group_rejected(self):
        c = fresh_cache()
        push(c, 1)
        with pytest.raises(ValueError, match="at least one"):
            gqa_corm_update(c, [], w=1, r=1, t=1)

    def test_group_size_mismatch_rejected_by_dispatcher(self):
        c = fresh_cache()
        push(c, 1)
        with pytest.raises(ValueError, match="group size"):
            apply_policy(CormGqa(w=1, r=1, group_size=2), c, [row(1, [1.0])], t=1)

    def test_per_head_policy_rejects_grouped_rows(self):
        c = fresh_cache()
        push(c, 1)
        with pytest.raises(ValueError, match="per-head policy"):
            apply_policy(Tova(budget=4), c, [row(1, [1.0]), row(1, [1.0])], t=1)


class TestFullPolicy:
    def test_identity_on_cache(self):
        c = fresh_cache()
        rng = np.random.Generator(np.random.PCG64(0))
        for t in range(1, 20):
            push(c, t)
            apply_policy(Full(), c, [row(t, rng.dirichlet(np.ones(t)))], t)
            assert c.size == t
        np.testing.assert_array_equal(c.positions, np.arange(1, 20))


class TestCompressionRate:
    def test_full_cache_rate_zero(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c, t)
        assert compression_rate(c, 3) == 0.0

    def test_streaming_closed_form_half(self):
        c = fresh_cache()
        for t in range(1, 1025):
            push(c, t)
        assert compression_rate(c, 2048) == pytest.approx(0.5)

    def test_mean_over_heads(self):
        a, b = fresh_cache(), fresh_cache()
        push(a, 1)
        push(a, 2)
        push(b, 1)
        assert mean_compression_rate([[a, b]], 2) == pytest.approx(0.25)

    def test_invalid_t_rejected(self):
        with pytest.raises(ValueError):
            compression_rate(fresh_cache(), 0)
