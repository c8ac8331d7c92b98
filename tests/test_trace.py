"""Trace recording, binary round-trips, corruption detection, and replay."""

import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corm.trace as trace_mod
from conftest import (
    README_EXAMPLES,
    check_score_rows,
    make_synthetic_trace,
    peak_bytes,
    replay_steps,
    seeded_tokens,
    synthetic_blocks,
    trace_of,
    write_trace_file,
)
from corm.analysis import sparsity_profile
from corm.model import ModelConfig, init_model
from corm.policies import H2O, POLICIES, Corm, CormGqa, Full, Scissorhands, StreamingLlm, Tova, apply_policy
from corm.positional import PE_KINDS, AbsoluteLearned, AbsoluteSinusoidal, Alibi, NoPositional, Rope
from corm.trace import (
    RANGE_TOL,
    RECORD_CHUNK,
    SUM_TOL,
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


class TestRecord:
    def test_shapes_cover_every_position(self, small_model):
        tr = record(small_model, seeded_tokens(1, 16))
        assert len(tr.rows) == 16
        for t in range(1, 17):
            assert tr.rows[t - 1].shape == (2, 4, t)
            assert tr.queries[t - 1].shape == (2, 4, 16)

    def test_rows_equal_rounded_decode_rows(self, small_model, tmp_path):
        # the trace, and its file, hold exactly the full-cache decoder's rows and queries, rounded to
        # float32, whether the last chunk is whole, one short, one over or a lone token
        for n_steps in (1, RECORD_CHUNK - 1, RECORD_CHUNK + 1, 150):
            tokens = seeded_tokens(5, n_steps)
            recorded = record(small_model, tokens)
            save(recorded, tmp_path / "t.trc")
            loaded = load(tmp_path / "t.trc")
            state = small_model.init_state(Full())
            for t, tok in enumerate(tokens, start=1):
                sr = small_model.decode_step(state, int(tok))
                rows = np.array([[row.scores for row in layer] for layer in sr.rows[0]]).astype(np.float32)
                queries = sr.queries[0].astype(np.float32)
                for tr in (recorded, loaded):
                    assert tr.rows[t - 1].tobytes() == rows.tobytes(), (n_steps, t)
                    assert tr.queries[t - 1].tobytes() == queries.tobytes(), (n_steps, t)

    def test_rows_and_queries_are_views_of_one_read_only_payload(self, small_trace):
        # laid out as the file's payload, which the trace kept rather than copied
        payload = small_trace.payload
        assert isinstance(payload, np.ndarray) and payload.base is None and not payload.flags.writeable
        assert payload.dtype == np.dtype("<f4")
        assert payload.nbytes == trace_byte_size(2, 4, 16, 64) - 60 - 4 * 64 - 8
        blocks = [np.concatenate([r, q], axis=2) for r, q in zip(small_trace.rows, small_trace.queries)]
        assert np.concatenate([b.ravel() for b in blocks]).tobytes() == payload.tobytes()
        for a in small_trace.rows + small_trace.queries:
            assert a.base is payload and not a.flags.writeable

    def test_repr_shows_the_payload_not_its_views(self, small_trace):
        # numpy summarizes the payload; the per-step views would print every value of the trace
        text = repr(small_trace)
        assert "payload=" in text and "rows=" not in text and "queries=" not in text
        assert len(text) < 10_000

    def test_record_holds_one_payload(self, small_model):
        # beside what a decode in `RECORD_CHUNK` chunks holds, as record decodes: the payload and a
        # margin of payload // 8 for the per-step views; a second copy of the payload, or float64 rows
        # for every step, would peak above it
        tokens = seeded_tokens(6, 150)
        payload = trace_byte_size(2, 4, 16, 150) - 60 - 4 * 150 - 8

        def decode():
            state = small_model.init_state(Full())
            for a in range(0, tokens.size, RECORD_CHUNK):
                small_model.decode_step(state, tokens[a : a + RECORD_CHUNK])

        bound = peak_bytes(decode) + payload + payload // 8
        peak = peak_bytes(lambda: record(small_model, tokens))
        assert peak < bound, f"record peaked at {peak} bytes, bound {bound} for a {payload}-byte payload"

    def test_empty_sequence_rejected(self, small_model):
        with pytest.raises(ValueError, match="non-empty"):
            record(small_model, [])

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

    def test_meta_takes_every_registered_pe_kind_and_rejects_another(self):
        shape = dict(n_layers=1, n_heads=2, n_kv_heads=2, d_model=16, d_h=8, vocab_size=4, seed=3)
        # each kind with its own default base: 1e4 under rope, 0.0 under the others
        metas = [TraceMeta(**shape, pe_kind=kind, rope_base=cls().base) for kind, cls in PE_KINDS.items()]
        assert [meta.pe_kind for meta in metas] == list(PE_KINDS)
        with pytest.raises(ValueError, match=r"^unknown trace pe_kind 'bogus'; valid: \["):
            TraceMeta(**shape, pe_kind="bogus", rope_base=0.0)

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
        first = small_trace.payload[: trace_mod._payload_floats(2, 4, 16, 1)]
        tr = dataclasses.replace(small_trace, meta=meta, tokens=small_trace.tokens[:1], payload=first)
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
        # the trace's payload is written as it is: a copy of it, or of each step's block, would peak above this
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
        "damage,expected",
        [
            ("short", "35 C-contiguous <f4 values for 5 steps, got <f4 (34,)"),
            ("long", "35 C-contiguous <f4 values for 5 steps, got <f4 (36,)"),
            ("few_tokens", "26 C-contiguous <f4 values for 4 steps, got <f4 (35,)"),
            ("float64", "35 C-contiguous <f4 values for 5 steps, got <f8 (35,)"),
            ("big_endian", "35 C-contiguous <f4 values for 5 steps, got >f4 (35,)"),
            ("two_d", "35 C-contiguous <f4 values for 5 steps, got <f4 (1, 35)"),
            ("strided", "35 C-contiguous <f4 values for 5 steps, got <f4 (35,) strided"),
            ("list", "35 C-contiguous <f4 values for 5 steps, got list"),
        ],
    )
    def test_malformed_payload_rejected_before_the_file_is_opened(self, tmp_path, damage, expected):
        # a trace's payload is the file's, converted from nothing: any other dtype,
        # rank, length or layout cannot be built, so it never reaches save
        tr = make_synthetic_trace(n_steps=5, seed=9)  # 1 layer, 1 head, d_h 4: 15 scores + 20 query values
        payload = tr.payload
        bad = {
            "short": lambda: payload[:-1],
            "long": lambda: np.append(payload, np.float32(0.0)),
            "few_tokens": lambda: payload,
            "float64": lambda: payload.astype(np.float64),
            "big_endian": lambda: payload.astype(">f4"),
            "two_d": lambda: payload.reshape(1, -1),
            "strided": lambda: np.repeat(payload, 2)[::2],
            "list": lambda: payload.tolist(),
        }[damage]()
        tokens = tr.tokens[:4] if damage == "few_tokens" else tr.tokens
        path = tmp_path / "t.trc"
        with pytest.raises(ValueError, match=re.escape(f"trace payload must be {expected}")):
            save(dataclasses.replace(tr, tokens=tokens, payload=bad), path)
        assert not path.exists()

    @pytest.mark.parametrize("given", ["writeable", "read_only_view"])
    def test_payload_changed_after_building_reaches_neither_the_trace_nor_its_file(self, tmp_path, given):
        # a payload that is writeable, or a read-only view of a writeable array, is copied,
        # so a NaN written into the caller's array later leaves the trace valid
        tr = make_synthetic_trace(n_steps=8, seed=8)
        caller = tr.payload.copy()
        payload = caller if given == "writeable" else caller.view()
        payload.flags.writeable = given == "writeable"
        built = dataclasses.replace(tr, payload=payload)
        caller[:] = np.nan
        assert np.isfinite(built.payload).all() and not built.payload.flags.writeable
        assert all(np.isfinite(r).all() for r in built.rows)
        save(built, tmp_path / "t.trc")
        assert load(tmp_path / "t.trc").payload.tobytes() == tr.payload.tobytes()

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

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_a_trace_built_in_memory_replays_and_analyzes_as_its_file_does(self, name, tmp_path):
        # float64 rows are rounded to the float32 payload when the trace is built, so a score
        # just below 1/3 that float32 rounds to at least 1/3 is important both in memory and
        # after a save and load; a trace that kept the float64 row would flag it only after the round trip
        low = np.nextafter(1 / 3, 0.0)
        assert low < 1 / 3 <= np.float32(low)
        rows = [[[[1.0]]], [[[0.001, 0.999]]], [[[low, (1 - low) / 2, (1 - low) / 2]]]]
        rows += [[[[0.001] + [0.999 / (t - 1)] * (t - 1)]] for t in range(4, 9)]
        in_memory = trace_of(rows)
        save(in_memory, tmp_path / "t.trc")
        loaded = load(tmp_path / "t.trc")
        # sizes small enough to evict within 8 steps; corm:2+1 drops position 1 at step 3 unless step 3 flags it
        policy = {
            "full": Full(),
            "streaming": StreamingLlm(sink=1, recent=1),
            "h2o": H2O(heavy=1, recent=1),
            "scissorhands": Scissorhands(budget=2, recent=1, window=2),
            "tova": Tova(budget=2),
            "corm": Corm(w=2, r=1),
            "gqa_corm": CormGqa(w=2, r=1),
        }[name]
        curves = [replay_policy(tr, policy).compression for tr in (in_memory, loaded)]
        np.testing.assert_array_equal(curves[0], curves[1])
        profiles = [sparsity_profile(tr).per_head for tr in (in_memory, loaded)]
        np.testing.assert_array_equal(profiles[0], profiles[1])

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


def stepwise_error(rows, queries) -> str | None:
    """The first error a step-by-step check of float32 rows and queries raises, in step order; None if none.

    The reference for the span-wise construction check: each step's rows
    through `check_score_rows` in float64, then its queries for an all-zero
    vector, step after step.
    """
    for t, (r, q) in enumerate(zip(rows, queries), start=1):
        try:
            check_score_rows(np.asarray(r, dtype=np.float32).astype(np.float64))
        except ValueError as err:
            return str(err)
        zero = ~np.asarray(q, dtype=np.float32).any(axis=2)
        if zero.any():
            layer, head = np.argwhere(zero)[0]
            return f"step {t}, layer {layer}, head {head}: zero query vector (cosine undefined)"
    return None


def row_summing_to(total: float) -> np.ndarray:
    """Three float32 scores within [0, 1] whose float64 sum, taken left to right, is exactly `total`."""
    parts, rest = [], total
    for _ in range(2):
        part = np.float32(min(rest, 1.0))
        if float(part) > rest:  # compared in float64: numpy compares a float32 with a Python float in float32
            part = np.nextafter(part, np.float32(0.0))
        parts.append(part)
        rest -= float(part)  # exact: part is rest rounded down to float32
    parts.append(np.float32(rest))
    row = np.array(parts, dtype=np.float32)
    assert float(row[2]) == rest >= 0.0 and row.astype(np.float64).sum() == total
    return row


class TestSpanCheck:
    """Building a trace checks its steps span by span, deciding every step as a step-by-step check would."""

    N_STEPS = 30
    SPAN_BYTES = 4352  # with 2 layers, 2 heads and d_h 4, step t is 32 * (t + 4) float64 bytes: spans of 3 to 12 steps

    @pytest.fixture
    def spans(self, monkeypatch):
        monkeypatch.setattr(trace_mod, "CHECK_SPAN_BYTES", self.SPAN_BYTES)
        spans = list(trace_mod._check_spans(4, 4, self.N_STEPS))
        # in order and tiling the steps, several multi-step spans, and a final span the trace's end cuts short
        assert [first for first, _ in spans[1:]] == [stop for _, stop in spans[:-1]]
        assert spans[0][0] == 1 and spans[-1][1] == self.N_STEPS + 1
        assert len(spans) >= 4 and spans[1][1] - spans[1][0] >= 2
        assert 32 * sum(t + 4 for t in range(*spans[-1])) + 32 * (self.N_STEPS + 5) <= self.SPAN_BYTES
        return spans

    @pytest.mark.parametrize("where", ["span_first", "span_last", "final_first", "final_last"])
    @pytest.mark.parametrize(
        "fault,message",
        [
            ("nan", r"scores contain NaN or Inf"),
            ("infinities", r"scores contain NaN or Inf"),
            ("below_zero", r"scores must lie in \[0, 1\]"),
            ("above_one", r"scores must lie in \[0, 1\]"),
            ("sum_off_2e-6", r"scores sum to 1\.00000(19|20)\d*, expected 1 within 1e-06"),
            ("zero_query", r"step {t}, layer 1, head 1: zero query vector \(cosine undefined\)"),
        ],
    )
    def test_a_fault_raises_the_stepwise_error(self, spans, where, fault, message):
        first, stop = {"span": spans[1], "final": spans[-1]}[where.split("_")[0]]
        t = first if where.endswith("first") else stop - 1
        rows, queries = synthetic_blocks(n_layers=2, n_heads=2, n_steps=self.N_STEPS, seed=t)
        row = rows[t - 1][1, 0]
        if fault == "nan":
            row[t // 2] = np.nan
        elif fault == "infinities":
            row[:2] = np.inf, -np.inf  # the row sums to NaN, raising no floating-point error
        elif fault == "below_zero":
            row[0] = -0.25
        elif fault == "above_one":
            row[0] = 1.5
        elif fault == "sum_off_2e-6":
            i = int(np.argmin(row))
            row[i] = row[i] + (1.0 + 2e-6 - row.astype(np.float64).sum())
        else:
            queries[t - 1][1, 1] = 0.0
        if t < self.N_STEPS:
            queries[-1][0, 0] = 0.0  # a later fault, which must not be the one reported
        with pytest.raises(ValueError) as err, np.errstate(all="raise"):
            trace_of(rows, queries)
        assert str(err.value) == stepwise_error(rows, queries)
        assert re.fullmatch(message.format(t=t), str(err.value))

    @pytest.mark.parametrize(
        "total,valid",
        [
            (1.0 + SUM_TOL, True),
            (np.nextafter(1.0 + SUM_TOL, 2.0), False),
            (np.nextafter(1.0 + SUM_TOL, 0.0), True),
            (1.0 - SUM_TOL, True),
            (np.nextafter(1.0 - SUM_TOL, 0.0), False),
            (np.nextafter(1.0 - SUM_TOL, 2.0), True),
        ],
    )
    def test_a_row_sum_at_the_tolerance_edge_is_decided_stepwise(self, spans, total, valid):
        rows = [np.full((2, 2, t), 1.0 / t, dtype=np.float32) for t in range(1, self.N_STEPS + 1)]
        for t in (3, spans[1][1] - 1, self.N_STEPS):  # first span, a span's last step, the final span
            rows[t - 1][1, 1, :3] = row_summing_to(total)
            rows[t - 1][1, 1, 3:] = 0.0
        queries = [np.ones((2, 2, 4), dtype=np.float32)] * self.N_STEPS
        assert (stepwise_error(rows, queries) is None) == valid
        if valid:
            trace_of(rows, queries)
        else:
            with pytest.raises(ValueError, match=r"scores sum to "):
                trace_of(rows, queries)

    @staticmethod
    def float32_either_side(x: float) -> tuple[np.float32, np.float32]:
        """The greatest float32 below `x` and the least float32 at or above it, compared in float64."""
        near = np.float32(x)
        if float(near) < x:
            return near, np.nextafter(near, np.float32(np.inf))
        return np.nextafter(near, np.float32(-np.inf)), near

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("edge", ["zero", "one"])
    def test_an_entry_at_the_range_edge_is_decided_stepwise(self, spans, edge, side):
        # -RANGE_TOL and 1 + RANGE_TOL as a float32 payload holds them: the float32 values
        # either side of -1e-12, and 1.0 against the least float32 above it
        if edge == "zero":
            value = self.float32_either_side(-RANGE_TOL)[side == "above"]
        else:
            value = np.float32(1.0) if side == "below" else np.nextafter(np.float32(1.0), np.float32(2.0))
        valid = (edge == "zero") == (side == "above")
        rows = [np.full((2, 2, t), 1.0 / t, dtype=np.float32) for t in range(1, self.N_STEPS + 1)]
        for t in (3, spans[1][1] - 1, self.N_STEPS):
            row = rows[t - 1][0, 1]
            row[:] = 0.0
            row[0] = value
            row[1] = 1.0 if edge == "zero" else 0.0  # the row sums to 1 within SUM_TOL either way
        queries = [np.ones((2, 2, 4), dtype=np.float32)] * self.N_STEPS
        assert (stepwise_error(rows, queries) is None) == valid
        if valid:
            trace_of(rows, queries)
        else:
            with pytest.raises(ValueError) as err:
                trace_of(rows, queries)
            assert str(err.value) == stepwise_error(rows, queries) == "scores must lie in [0, 1]"

    def test_a_range_fault_outranks_an_earlier_rows_sum_fault(self, spans):
        # within one step the range is checked first, over all its rows
        t = spans[1][0] + 1
        rows, queries = synthetic_blocks(n_layers=2, n_heads=2, n_steps=self.N_STEPS, seed=t)
        rows[t - 1][0, 0] *= 0.5
        rows[t - 1][1, 1, t // 2] = np.nan
        with pytest.raises(ValueError) as err:
            trace_of(rows, queries)
        assert str(err.value) == stepwise_error(rows, queries) == "scores contain NaN or Inf"

    def test_the_row_sum_farthest_from_one_is_named(self, spans):
        # two off sums in one step: the second lies farther from 1, so it is the one named
        t = spans[1][0] + 1
        rows = [np.full((2, 2, t), 1.0 / t, dtype=np.float32) for t in range(1, self.N_STEPS + 1)]
        near, far = 1.0 + 3e-6, 1.0 - 5e-6
        for (layer, head), total in (((0, 1), near), ((1, 0), far)):
            rows[t - 1][layer, head, :3] = row_summing_to(total)
            rows[t - 1][layer, head, 3:] = 0.0
        queries = [np.ones((2, 2, 4), dtype=np.float32)] * self.N_STEPS
        with pytest.raises(ValueError) as err:
            trace_of(rows, queries)
        assert str(err.value) == stepwise_error(rows, queries) == f"scores sum to {far}, expected 1 within {SUM_TOL}"

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n_layers=st.integers(1, 3),
        n_heads=st.integers(1, 3),
        d_h=st.integers(1, 8),
        first=st.one_of(st.integers(1, 64), st.integers(8000, 20000)),
        n_steps=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_layers=2, n_heads=2, d_h=4, first=8193, n_steps=2, seed=0)
    def test_span_reductions_equal_the_stepwise_ones_bit_for_bit(self, n_layers, n_heads, d_h, first, n_steps, seed):
        # the fact an exact span check rests on: a row's reduceat sum has the bits of
        # check_score_rows' sum(axis=-1) over its step's float64 rows, rows over 8192 values included
        rng = np.random.Generator(np.random.PCG64(seed))
        steps = range(first, first + n_steps)
        blocks = []
        for t in steps:
            logits = rng.normal(size=(n_layers, n_heads, t)) * rng.uniform(0.1, 20.0)
            scores = np.exp(logits - logits.max(axis=-1, keepdims=True))
            scores /= scores.sum(axis=-1, keepdims=True)
            blocks.append(np.concatenate([scores, rng.normal(size=(n_layers, n_heads, d_h))], axis=2).astype("<f4"))
        span = np.concatenate([b.ravel() for b in blocks])
        got = trace_mod._span_reductions(span, first, first + n_steps, n_layers * n_heads, d_h)
        rows = [b[:, :, :t].astype(np.float64) for t, b in zip(steps, blocks)]
        queries = [b[:, :, t:].astype(np.float64) for t, b in zip(steps, blocks)]
        expect = [
            np.concatenate([getattr(a, f)(axis=-1).ravel() for a in arrays])  # as check_score_rows sums
            for arrays, f in ((rows, "min"), (rows, "max"), (rows, "sum"), (queries, "min"), (queries, "max"))
        ]
        for g, e in zip(got, expect):
            assert g.shape == e.shape and np.array_equal(g, e)

    def test_record_writes_one_payload_whatever_the_chunk(self, small_model, monkeypatch):
        tokens = seeded_tokens(7, 70)
        payloads = set()
        for chunk in (1, 8, RECORD_CHUNK, 64):
            monkeypatch.setattr(trace_mod, "RECORD_CHUNK", chunk)
            payloads.add(record(small_model, tokens).payload.tobytes())
        assert len(payloads) == 1


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

    def test_row_not_summing_to_one_rejected(self):
        rows, queries = synthetic_blocks(n_steps=8, seed=8)
        rows[4] *= 0.5
        with pytest.raises(ValueError, match="sum to"):
            trace_of(rows, queries)
        tr = make_synthetic_trace(n_steps=8, seed=8)
        with pytest.raises(ValueError, match="read-only"):
            tr.rows[4] *= 0.5

    def test_load_checks_each_step_once_and_replay_never(self, small_model, small_trace, tmp_path, monkeypatch):
        # a trace's steps are checked in spans, each step in exactly one
        checked = []
        real_span = trace_mod._check_span

        def counting_span(span, first, stop, *shape):
            checked.extend(range(first, stop))
            real_span(span, first, stop, *shape)

        monkeypatch.setattr(trace_mod, "_check_span", counting_span)
        monkeypatch.setattr(trace_mod, "CHECK_SPAN_BYTES", 4096)  # spans of one to three steps
        path = tmp_path / "t.trc"
        save(small_trace, path)
        assert checked == []
        trace = load(path)
        assert checked == list(range(1, trace.n_steps + 1))
        checked.clear()
        record(small_model, seeded_tokens(1, 8))
        assert checked == list(range(1, 9))
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
            # the least float32 above 0, which the trace's payload holds exactly
            ([0.0, float(np.finfo(np.float32).smallest_subnormal)], False),
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
