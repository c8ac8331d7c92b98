"""Rotary, ALiBi, and absolute positional encodings."""

import numpy as np
import pytest

from corm.positional import (
    PE_KINDS,
    AbsoluteLearned,
    AbsoluteSinusoidal,
    Alibi,
    PeConfig,
    Rope,
    alibi_slopes,
    apply_rope,
    rope_apply_many,
    sinusoidal_table,
)


class TestRope:
    def test_position_zero_is_identity(self):
        v = np.array([0.3, -1.2, 4.0, 0.01])
        np.testing.assert_array_equal(apply_rope(v, 0), v)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        v = rng.normal(size=8)
        p = int(rng.integers(0, 5000))
        assert np.linalg.norm(apply_rope(v, p)) == pytest.approx(np.linalg.norm(v), abs=1e-9)

    def test_unit_vector_rotation_matrix_oracle(self):
        out = apply_rope([1.0, 0.0], position=1, base=10000.0)
        np.testing.assert_allclose(out, [np.cos(1.0), np.sin(1.0)], atol=1e-12)
        np.testing.assert_allclose(out, [0.5403, 0.8415], atol=1e-4)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            apply_rope([1.0, 2.0, 3.0], position=1)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            apply_rope([1.0, 0.0], position=-1)

    @pytest.mark.parametrize("offset", [1, 3, 17])
    def test_dot_depends_only_on_relative_position(self, offset):
        rng = np.random.Generator(np.random.PCG64(11))
        q = rng.normal(size=8)
        k = rng.normal(size=8)
        dots = [
            np.dot(apply_rope(q, p + offset), apply_rope(k, p)) for p in (0, 5, 123, 999)
        ]
        assert max(dots) - min(dots) < 1e-8

    def test_vectorized_matches_single(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.normal(size=(3, 5, 6))  # (heads, positions, d_h)
        positions = np.array([0, 2, 7, 40, 41])
        out = rope_apply_many(x, positions)
        for hd in range(3):
            for i, p in enumerate(positions):
                np.testing.assert_allclose(out[hd, i], apply_rope(x[hd, i], int(p)), atol=1e-12)


class TestAlibi:
    def test_eight_head_slopes_are_geometric(self):
        slopes = alibi_slopes(8)
        np.testing.assert_allclose(slopes, [2.0 ** -(i + 1) for i in range(8)], atol=1e-12)

    def test_non_power_of_two_slope_count(self):
        assert alibi_slopes(6).shape == (6,)
        assert np.all(alibi_slopes(6) > 0)


class TestAbsoluteSinusoidal:
    def test_position_zero_alternates(self):
        emb = sinusoidal_table(1, d_model=6)[0]
        np.testing.assert_array_equal(emb, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_bounded(self):
        table = sinusoidal_table(100, 16)
        assert table.min() >= -1.0 and table.max() <= 1.0

    def test_position_one_closed_form(self):
        emb = sinusoidal_table(2, d_model=4)[1]
        expected = [np.sin(1.0), np.cos(1.0), np.sin(0.01), np.cos(0.01)]
        np.testing.assert_allclose(emb, expected, atol=1e-12)

    def test_odd_d_model_rejected(self):
        with pytest.raises(ValueError, match="even"):
            sinusoidal_table(4, 5)


class TestEmbeddingRows:
    """`embedding_rows(table, start, stop)` gives the rows of positions start..stop-1 alone."""

    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("start", [0, 1, 63, 64, 65, 1000])
    def test_sinusoidal_rows_are_the_whole_table_rows_to_the_bit(self, start, n):
        rows = AbsoluteSinusoidal().embedding_rows(np.empty((0, 64)), start, start + n)
        assert rows.shape == (n, 64)
        assert rows.tobytes() == sinusoidal_table(start + n, 64)[start:].tobytes()

    @pytest.mark.parametrize("start,stop", [(0, 1), (0, 10), (3, 7), (9, 10)])
    def test_learned_rows_are_the_table_rows_of_their_positions(self, start, stop):
        table = np.random.Generator(np.random.PCG64(4)).normal(size=(10, 6))
        rows = AbsoluteLearned().embedding_rows(table, start, stop)
        assert rows.shape == (stop - start, 6)
        assert rows.tobytes() == table[start:stop].tobytes()

    @pytest.mark.parametrize("start", [0, 1, 9, 10])
    def test_learned_overrun_names_the_first_step_past_the_table(self, start):
        with pytest.raises(ValueError, match=r"^step 11 exceeds the learned position table \(10\)$"):
            AbsoluteLearned().embedding_rows(np.zeros((10, 6)), start, 11)

    def test_other_families_add_no_rows(self):
        others = set(PE_KINDS.values()) - {AbsoluteSinusoidal, AbsoluteLearned}
        assert others and all(cls().embedding_rows(np.empty((0, 6)), 2, 5) is None for cls in others)


class TestPeConfigRoundTrip:
    @pytest.mark.parametrize(
        "d",
        [
            {"kind": "rope", "base": 500000.0},
            {"kind": "alibi"},
            {"kind": "alibi", "slopes": [0.5, 0.25]},
            {"kind": "absolute_sinusoidal"},
            {"kind": "absolute_learned"},
            {"kind": "none"},
        ],
    )
    def test_round_trip(self, d):
        pe = PeConfig.from_dict(d)
        assert PeConfig.from_dict(pe.to_dict()) == pe

    def test_every_registered_family_round_trips(self):
        families = list(PE_KINDS.values())
        assert [cls.kind for cls in families] == list(PE_KINDS)
        assert len({cls.wire_id for cls in families}) == len(families)
        for cls in families:
            pe = cls()
            assert pe.to_dict()["kind"] == cls.kind
            assert PeConfig.from_dict(pe.to_dict()) == pe

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown positional"):
            PeConfig.from_dict({"kind": "learned_rotary"})

    def test_default_rope_base(self):
        assert PeConfig.from_dict({"kind": "rope"}) == Rope(base=10000.0)
        assert PeConfig.from_dict({"kind": "alibi"}) == Alibi(slopes=None)
