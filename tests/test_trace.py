"""Trace recording, binary round-trips, corruption detection, and replay."""

import struct

import numpy as np
import pytest

from conftest import make_synthetic_trace, seeded_tokens
from corm.model import ModelConfig, init_model
from corm.policies import Corm, CormGqa, Full, StreamingLlm, Tova
from corm.trace import (
    PolicySimulator,
    TraceChecksumError,
    TraceMagicError,
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
        tr.check()
        assert len(tr.rows) == 16
        for t in range(1, 17):
            assert tr.rows[t - 1].shape == (2, 4, t)
            assert tr.queries[t - 1].shape == (2, 4, 16)

    def test_check_names_the_broken_step(self, small_model):
        tr = record(small_model, seeded_tokens(1, 4))
        tr.rows[2] = tr.rows[2][:, :, :2]
        with pytest.raises(ValueError, match="step 3 rows have shape"):
            tr.check()

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
        result = replay_policy(tr, Full())
        for t in range(1, 21):
            for g in range(2):
                np.testing.assert_array_equal(result.kept_at(0, g, t), np.arange(1, t + 1))
        assert np.all(result.compression == 0.0)

    def test_streaming_one_plus_one_keeps_first_and_last(self):
        tr = make_synthetic_trace(n_steps=15, seed=2)
        result = replay_policy(tr, StreamingLlm(sink=1, recent=1))
        for t in range(2, 16):
            np.testing.assert_array_equal(result.kept_at(0, 0, t), [1, t])

    def test_replay_is_deterministic(self):
        tr = make_synthetic_trace(n_steps=25, seed=3)
        a = replay_policy(tr, Corm(w=2, r=2))
        b = replay_policy(tr, Corm(w=2, r=2))
        for t in range(1, 26):
            np.testing.assert_array_equal(a.kept_at(0, 0, t), b.kept_at(0, 0, t))
        np.testing.assert_array_equal(a.compression, b.compression)

    def test_shadow_bookkeeping_equals_replay(self, small_model, small_trace):
        policy = Corm(w=4, r=2)
        shadow = PolicySimulator(policy, 2, 4, 4)
        small_model.run(seeded_tokens(5, 64), Full(), shadows=[shadow])
        rp = replay_policy(small_trace, policy)
        for li in range(2):
            for g in range(4):
                for t in range(64):
                    np.testing.assert_array_equal(shadow.kept[li][g][t], rp.kept[li][g][t])

    def test_gqa_grouping_on_ungrouped_trace(self):
        tr = make_synthetic_trace(n_heads=4, n_steps=18, seed=4)
        result = replay_policy(tr, CormGqa(w=2, r=1, group_size=2))
        assert result.group_size == 2
        assert len(result.kept[0]) == 2

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
        tr = make_synthetic_trace(n_steps=4, seed=7)
        sim = PolicySimulator(Full(), 1, 1, 1)
        sim.step(1, tr.rows[0])
        with pytest.raises(ValueError, match="consecutive"):
            sim.step(3, tr.rows[2])
