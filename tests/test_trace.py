"""Trace recording, binary round-trips, corruption detection, and replay."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

import corm.trace as trace_mod
from conftest import (
    README_EXAMPLES,
    make_synthetic_trace,
    replay_steps,
    seeded_tokens,
    synthetic_blocks,
    trace_of,
    write_trace_file,
)
from corm.model import ModelConfig, init_model
from corm.policies import POLICIES, Corm, CormGqa, Full, Scissorhands, StreamingLlm, Tova, apply_policy
from corm.positional import AbsoluteLearned, AbsoluteSinusoidal, Alibi, NoPositional, Rope
from corm.trace import (
    PolicySimulator,
    TraceChecksumError,
    TraceError,
    TraceMagicError,
    TraceMeta,
    TraceSizeError,
    TraceVersionError,
    load,
    record,
    replay_policy,
    save,
    trace_byte_size,
)


def peak_bytes(fn) -> int:
    """Peak bytes that Python and numpy allocate while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecord:
    def test_shapes_cover_every_position(self, small_model):
        tr = record(small_model, seeded_tokens(1, 16))
        assert len(tr.rows) == 16
        for t in range(1, 17):
            assert tr.rows[t - 1].shape == (2, 4, t)
            assert tr.queries[t - 1].shape == (2, 4, 16)

    def test_rows_equal_rounded_decode_rows(self, small_model, small_trace):
        # the trace holds exactly the full-cache decoder's rows and queries, rounded to float32
        state = small_model.init_state(Full())
        for t, tok in enumerate(seeded_tokens(5, 64), start=1):
            sr = small_model.decode_step(state, int(tok))
            rows = np.array([[row.scores for row in layer] for layer in sr.rows], dtype=np.float32)
            np.testing.assert_array_equal(small_trace.rows[t - 1], rows)
            np.testing.assert_array_equal(small_trace.queries[t - 1], sr.queries.astype(np.float32))

    def test_empty_sequence_rejected(self, small_model):
        with pytest.raises(ValueError, match="non-empty"):
            record(small_model, [])

    def test_check_names_the_broken_step(self, small_model):
        tr = record(small_model, seeded_tokens(1, 4))
        rows = list(tr.rows)
        rows[2] = rows[2][:, :, :2]
        with pytest.raises(ValueError, match="step 3 rows have shape"):
            dataclasses.replace(tr, rows=rows)

    def test_same_seed_byte_identical_file(self, small_model, tmp_path):
        blobs = []
        for name in ("a.trc", "b.trc"):
            tr = record(small_model, seeded_tokens(2, 12))
            save(tr, tmp_path / name)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_file_size_matches_closed_form(self, small_model, tmp_path):
        tr = record(small_model, seeded_tokens(3, 9))
        path = tmp_path / "t.trc"
        save(tr, path)
        expected = trace_byte_size(n_layers=2, n_heads=4, d_h=16, n_steps=9)
        assert path.stat().st_size == expected

    def test_byte_cap_reports_required_size(self, small_model):
        need = trace_byte_size(2, 4, 16, 64)
        with pytest.raises(TraceSizeError, match=f"needs {need} bytes"):
            record(small_model, seeded_tokens(4, 64), byte_cap=need - 1)
        assert record(small_model, seeded_tokens(4, 64), byte_cap=need).n_steps == 64

    def test_meta_takes_a_vocabulary_of_two_and_rejects_one(self):
        shape = dict(n_layers=1, n_heads=2, n_kv_heads=2, d_model=16, d_h=8, pe_kind="rope", rope_base=1e4, seed=3)
        assert TraceMeta(**shape, vocab_size=2).vocab_size == 2
        with pytest.raises(ValueError, match="trace vocab_size must be >= 2, got 1"):
            TraceMeta(**shape, vocab_size=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_meta_rejects_a_seed_the_header_cannot_hold(self, seed):
        shape = dict(n_layers=1, n_heads=2, n_kv_heads=2, d_model=16, d_h=8, vocab_size=4, pe_kind="rope", rope_base=1e4)
        with pytest.raises(ValueError, match=re.escape(f"trace seed must lie in [0, 2**64), got {seed}")):
            TraceMeta(**shape, seed=seed)

    @pytest.mark.parametrize(
        "name,sizes",
        [
            ("n_layers", dict(n_layers=2**32)),
            # d_model must equal n_heads * d_h, so each of the two moves the other
            ("n_heads", dict(n_heads=2**32, n_kv_heads=1, d_h=1, d_model=2**32)),
            ("d_model", dict(d_h=2**31, d_model=2**32)),
            ("vocab_size", dict(vocab_size=2**32)),
        ],
        ids=["n_layers", "n_heads", "d_model", "vocab_size"],
    )
    def test_meta_rejects_a_field_beyond_its_u32(self, name, sizes):
        shape = dict(n_layers=1, n_heads=2, n_kv_heads=2, d_model=16, d_h=8, vocab_size=4, pe_kind="rope", rope_base=1e4)
        shape.update(sizes)
        with pytest.raises(ValueError, match=re.escape(f"trace {name} must lie in [0, 2**32), got {2**32}")):
            TraceMeta(**shape, seed=3)


class TestSaveLoad:
    def test_round_trip_identity(self, small_trace, tmp_path):
        path = tmp_path / "t.trc"
        save(small_trace, path)
        back = load(path)
        assert back.meta == small_trace.meta
        np.testing.assert_array_equal(back.tokens, small_trace.tokens)
        for a, b in zip(back.rows, small_trace.rows):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.queries, small_trace.queries):
            np.testing.assert_array_equal(a, b)

    def test_largest_seed_round_trips(self, small_trace, tmp_path):
        tr = dataclasses.replace(small_trace, meta=dataclasses.replace(small_trace.meta, seed=2**64 - 1))
        save(tr, tmp_path / "t.trc")
        assert load(tmp_path / "t.trc").meta == tr.meta

    def test_largest_vocabulary_round_trips(self, small_trace, tmp_path):
        meta = dataclasses.replace(small_trace.meta, vocab_size=2**32 - 1)
        tr = dataclasses.replace(
            small_trace, meta=meta, tokens=small_trace.tokens[:1], rows=small_trace.rows[:1], queries=small_trace.queries[:1]
        )
        save(tr, tmp_path / "t.trc")
        back = load(tmp_path / "t.trc")
        assert back.meta == meta and back.n_steps == 1
        np.testing.assert_array_equal(back.tokens, tr.tokens)
        np.testing.assert_array_equal(back.rows[0], tr.rows[0])
        np.testing.assert_array_equal(back.queries[0], tr.queries[0])

    @pytest.mark.parametrize(
        "pe,wire_id,base",
        [
            (NoPositional(), 0, 0.0),
            (Rope(base=500000.0), 1, 500000.0),
            (Alibi(), 2, 0.0),
            (AbsoluteSinusoidal(), 3, 0.0),
            (AbsoluteLearned(), 4, 0.0),
        ],
    )
    def test_header_pe_fields_follow_the_documented_table(self, pe, wire_id, base, tmp_path):
        # offset 36: u32 pe kind id; offset 40: f64 rope base (module docstring)
        cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, vocab_size=16, seed=1, pe=pe, max_positions=8)
        path = tmp_path / "t.trc"
        save(record(init_model(cfg), [1, 2, 3]), path)
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, 36) == (wire_id,)
        assert struct.unpack_from("<d", blob, 40) == (base,)

    def test_save_streams_the_payload(self, small_trace, tmp_path):
        # one step's chunk at a time: holding the whole payload, or its chunks, would peak above it
        payload = trace_byte_size(2, 4, 16, small_trace.n_steps) - 60 - 4 * small_trace.n_steps - 8
        peak = peak_bytes(lambda: save(small_trace, tmp_path / "t.trc"))
        assert peak < payload // 2, f"save peaked at {peak} bytes for a {payload}-byte payload"

    def test_truncated_file_is_checksum_error(self, small_trace, tmp_path):
        path = tmp_path / "t.trc"
        save(small_trace, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(TraceChecksumError, match="bytes"):
            load(path)

    def test_payload_edit_names_payload_region(self, small_trace, tmp_path):
        path = tmp_path / "t.trc"
        save(small_trace, path)
        blob = bytearray(path.read_bytes())
        hdr_end = 60 + 4 * small_trace.n_steps
        offset = hdr_end + (len(blob) - 8 - hdr_end) // 2
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceChecksumError, match="payload region"):
            load(path)

    def test_header_edit_names_header_region(self, small_trace, tmp_path):
        path = tmp_path / "t.trc"
        save(small_trace, path)
        blob = bytearray(path.read_bytes())
        blob[62] ^= 0x01  # inside the token-id block
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceChecksumError, match="header region"):
            load(path)

    @pytest.mark.parametrize(
        "damage,match",
        [("narrow_rows", r"step 3 rows have shape \(1, 1, 2\)"), ("few_tokens", "5 row blocks and 5 query blocks for 4 tokens")],
    )
    def test_malformed_trace_rejected_before_the_file_is_opened(self, tmp_path, damage, match):
        # a malformed trace cannot be built, so it never reaches save
        tr = make_synthetic_trace(n_steps=5, seed=9)
        rows = list(tr.rows)
        rows[2] = rows[2][:, :, :2]
        path = tmp_path / "t.trc"
        with pytest.raises(ValueError, match=match):
            if damage == "narrow_rows":
                save(dataclasses.replace(tr, rows=rows), path)
            else:
                save(dataclasses.replace(tr, tokens=tr.tokens[:4]), path)
        assert not path.exists()

    def test_trace_without_steps_rejected(self, small_trace, tmp_path):
        # a well-formed file whose replay would have no step to report
        path = tmp_path / "t.trc"
        write_trace_file(path, [], [], **dataclasses.asdict(small_trace.meta))
        with pytest.raises(TraceError, match="no steps"):
            load(path)

    def test_bad_magic(self, small_trace, tmp_path):
        path = tmp_path / "t.trc"
        save(small_trace, path)
        blob = bytearray(path.read_bytes())
        blob[0:8] = b"NOTTRACE"
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceMagicError, match="magic"):
            load(path)

    def test_unsupported_version(self, small_trace, tmp_path):
        path = tmp_path / "t.trc"
        save(small_trace, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceVersionError, match="99"):
            load(path)


class TestReplay:
    def test_full_keeps_every_position(self):
        tr = make_synthetic_trace(n_layers=1, n_heads=2, n_steps=20, seed=1)
        for t, sim in replay_steps(tr, Full()):
            for g in range(2):
                np.testing.assert_array_equal(sim.cache.head_positions(g), np.arange(1, t + 1))
        assert np.all(sim.compression == 0.0)

    def test_streaming_one_plus_one_keeps_first_and_last(self):
        tr = make_synthetic_trace(n_steps=15, seed=2)
        for t, sim in replay_steps(tr, StreamingLlm(sink=1, recent=1)):
            if t >= 2:
                np.testing.assert_array_equal(sim.cache.head_positions(0), [1, t])

    def test_replay_is_deterministic(self):
        tr = make_synthetic_trace(n_steps=25, seed=3)
        for (t, a), (_, b) in zip(replay_steps(tr, Corm(w=2, r=2)), replay_steps(tr, Corm(w=2, r=2))):
            np.testing.assert_array_equal(a.cache.head_positions(0), b.cache.head_positions(0))
        assert t == 25
        np.testing.assert_array_equal(a.compression, b.compression)

    def test_gqa_grouping_on_ungrouped_trace(self):
        tr = make_synthetic_trace(n_heads=4, n_steps=18, seed=4)
        result = replay_policy(tr, CormGqa(w=2, r=1, group_size=2))
        assert result.group_size == 2
        assert result.n_groups == 2

    def test_group_shape_mismatch_rejected(self):
        tr = make_synthetic_trace(n_heads=4, n_steps=6, seed=5)
        with pytest.raises(ValueError, match="does not divide"):
            replay_policy(tr, CormGqa(w=2, r=1, group_size=3))

    def test_per_head_policy_rejected_on_grouped_trace(self, tmp_path):
        model = init_model(
            ModelConfig(n_layers=1, n_heads=4, d_model=32, vocab_size=64, seed=6, n_kv_heads=2)
        )
        tr = record(model, seeded_tokens(6, 8, vocab=64))
        with pytest.raises(ValueError, match="per-head policy"):
            replay_policy(tr, Tova(budget=4))
        # the grouped recency policy and the identity policy are fine
        replay_policy(tr, CormGqa(w=2, r=1))
        replay_policy(tr, Full())

    def test_steps_must_be_consecutive(self):
        # each step feeds the trace's next step, and there is none past its last
        tr = make_synthetic_trace(n_steps=4, seed=7)
        sim = PolicySimulator(Full(), tr)
        for t in range(1, 5):
            sim.step()
            np.testing.assert_array_equal(sim.cache.head_positions(0), np.arange(1, t + 1))
        with pytest.raises(ValueError, match="the trace holds 4 steps, so there is no step 5"):
            sim.step()

    def test_a_float32_score_just_below_one_over_t_is_not_flagged(self):
        # float32(1/25) < 1/25, so at step 25 a recorded score of float32(1/25)
        # is not important; thresholding the float32 row itself would flag it
        t = 25
        low = np.float32(1 / t)
        assert float(low) < 1 / t and low >= 1 / t  # a Python float compares at the array's float32
        rows = [np.ones((1, 1, 1), dtype=np.float32)]  # step 1 flags position 1
        for s in range(2, t + 1):
            first = low if s == t else 0.001  # position 1 is never flagged again before step t
            rows.append(np.array([[[first] + [(1.0 - first) / (s - 1)] * (s - 1)]], dtype=np.float32))
        # w = t - 1: position 1, last flagged at step 1, survives step t only if step t flags it
        for s, sim in replay_steps(trace_of(rows), Corm(w=t - 1, r=1)):
            assert 1 in sim.cache.head_positions(0) or s == t
        assert 1 not in sim.cache.head_positions(0)

    @pytest.mark.parametrize("name", [name for name, cls in POLICIES.items() if cls.reads_magnitudes])
    def test_magnitude_policies_see_rows_divided_by_the_sum_of_their_kept_entries(self, name, monkeypatch):
        # bit for bit: each row over its kept entries, in order, summed alone. Peaky
        # rows span many binary orders, so summing with the free rows' zeros
        # between the entries would change the last bits
        tr = make_synthetic_trace(n_layers=2, n_heads=3, n_steps=60, seed=12, sharpness=12.0)
        seen = []

        def spy(policy, cache, scores):
            rows = tr.rows[cache.step - 1].reshape(cache.n_heads, cache.step).astype(np.float64)
            for h in range(cache.n_heads):
                kept = rows[h, cache.head_positions(h) - 1]
                np.testing.assert_array_equal(scores[h, 0, cache.held[h]], kept / kept.sum())
            seen.append(cache.size < cache.n_heads * cache.step)
            apply_policy(policy, cache, scores)

        monkeypatch.setattr(trace_mod, "apply_policy", spy)
        replay_policy(tr, README_EXAMPLES[name][1])
        assert len(seen) == 60 and any(seen), "fixture never evicted"

    @pytest.mark.parametrize(
        "policy",
        [Corm(w=4, r=4), CormGqa(w=4, r=4, group_size=2), Scissorhands(budget=4, recent=4, window=2), StreamingLlm(4, 8)],
        ids=lambda policy: policy.name,
    )
    def test_flag_policies_see_the_recorded_rows_restricted_to_their_kept_entries(self, policy, monkeypatch):
        # bit for bit: the recorded float32 rows in float64, zero on free rows and never
        # renormalized, so the flags a policy takes from them are the recorded scores' flags
        tr = make_synthetic_trace(n_layers=2, n_heads=6, n_steps=60, seed=12, sharpness=12.0)
        seen = []

        def spy(policy, cache, scores):
            t, group = cache.step, scores.shape[1]
            recorded = tr.rows[t - 1].reshape(cache.n_heads, group, t).astype(np.float64)
            assert scores.dtype == np.float64
            for h in range(cache.n_heads):
                expect = np.zeros((group, cache.width))
                expect[:, cache.held[h]] = recorded[h][:, cache.head_positions(h) - 1]
                np.testing.assert_array_equal(scores[h], expect)
            seen.append(cache.size < cache.n_heads * t)
            apply_policy(policy, cache, scores)

        monkeypatch.setattr(trace_mod, "apply_policy", spy)
        replay_policy(tr, policy)
        assert len(seen) == 60 and any(seen), "fixture never evicted"

    def test_replay_memory_does_not_grow_with_the_steps(self):
        # the simulator keeps its live block and one rate per step, no kept-set history:
        # a 1024-step full replay whose history would hold T**2/2 int64 stays under 1 MB
        tr = make_synthetic_trace(n_steps=1024, seed=3)
        peak = peak_bytes(lambda: replay_policy(tr, Full()))
        assert peak < 1_000_000, f"replay peaked at {peak} bytes"


class TestReplayRowChecks:
    """A trace checks its rows once, when it is built; replay reads them unchecked."""

    def test_nan_row_rejected(self):
        rows, queries = synthetic_blocks(n_steps=8, seed=8)
        rows[4][0, 0, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            trace_of(rows, queries)
        tr = make_synthetic_trace(n_steps=8, seed=8)
        with pytest.raises(ValueError, match="read-only"):
            tr.rows[4][0, 0, 2] = np.nan
        # a read-only view of the caller's writeable array is copied too
        rows, queries = synthetic_blocks(n_steps=8, seed=8)
        view = rows[4].view()
        view.flags.writeable = False
        tr = trace_of(rows[:4] + [view] + rows[5:], queries)
        rows[4][0, 0, 2] = np.nan
        assert np.isfinite(tr.rows[4]).all()

    def test_row_not_summing_to_one_rejected(self):
        rows, queries = synthetic_blocks(n_steps=8, seed=8)
        rows[4] *= 0.5
        with pytest.raises(ValueError, match="sum to"):
            trace_of(rows, queries)
        tr = make_synthetic_trace(n_steps=8, seed=8)
        with pytest.raises(ValueError, match="read-only"):
            tr.rows[4] *= 0.5

    def test_load_checks_each_step_once_and_replay_never(self, small_model, small_trace, tmp_path, monkeypatch):
        checked = []
        real = trace_mod.check_score_rows

        def counting(rows):
            checked.append(rows.shape)
            real(rows)

        monkeypatch.setattr(trace_mod, "check_score_rows", counting)
        path = tmp_path / "t.trc"
        save(small_trace, path)
        assert checked == []
        trace = load(path)
        assert checked == [(2, 4, t) for t in range(1, trace.n_steps + 1)]
        checked.clear()
        record(small_model, seeded_tokens(1, 8))
        assert checked == [(2, 4, t) for t in range(1, 9)]
        for name, (_, policy) in README_EXAMPLES.items():
            checked.clear()
            replay_policy(trace, policy)
            assert checked == [], f"replay under {name} checked rows again"

    def test_restricted_row_without_mass_rejected_without_nan(self):
        # streaming:1+1 keeps positions 1 and 3 after step 3; step 4's row
        # puts all its mass on the evicted position 2
        trace = trace_of([[[row]] for row in ([1.0], [0.5, 0.5], [0.2, 0.3, 0.5], [0.0, 1.0, 0.0, 0.0])])
        sim = PolicySimulator(StreamingLlm(sink=1, recent=1), trace)
        for _ in range(3):
            sim.step()
        with np.errstate(all="raise"), pytest.raises(ValueError, match="sums to 0"):
            sim.step()

    @pytest.mark.parametrize("name", list(POLICIES))
    @pytest.mark.parametrize(
        "kept,fails",
        [
            ([0.0, 0.0], True),
            # within check_score_rows' tolerance: the max is above 0 but the sum is below
            ([1e-13, -5e-13], True),
            ([0.0, 1e-300], False),
        ],
        ids=["zeros", "negative_sum", "tiny_mass"],
    )
    def test_zero_mass_check_under_every_policy(self, name, kept, fails):
        # layer 1's cache is cut to position 1 after step 3, so step 4's row
        # keeps positions 1 and 4; layer 0 keeps all four and has mass
        first, last = kept
        blocks = [[[row], [row]] for row in ([1.0], [0.5, 0.5], [0.2, 0.3, 0.5])]
        blocks.append([[[0.25] * 4], [[first, 0.5, 0.5 - first - last, last]]])
        sim = PolicySimulator(README_EXAMPLES[name][1], trace_of(blocks))
        for _ in range(3):
            sim.step()
        sim.cache.keep_only(np.array([[True, True, True], [True, False, False]]))
        with np.errstate(all="raise"):
            if fails:
                with pytest.raises(ValueError, match="step 4, layer 1: a row restricted to the kept entries sums to 0"):
                    sim.step()
            else:
                sim.step()
                assert sim.cache.step == 4
