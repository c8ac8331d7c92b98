"""Eviction policies: hand-simulated fixtures, invariants, and parsing."""

import inspect
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NON_INTEGER_SIZES, README_EXAMPLES, make_synthetic_trace, replay_steps, seeded_tokens
from corm.model import ModelConfig, init_model
from corm.policies import (
    FREE,
    POLICIES,
    Corm,
    CormGqa,
    Full,
    H2O,
    KvCacheState,
    Policy,
    Scissorhands,
    StreamingLlm,
    Tova,
    apply_policy,
    classify_important,
    compression_rate,
    mean_compression_rate,
    parse_policy,
    policy_label,
)
from corm.trace import PolicySimulator, record


def rows(*scores) -> np.ndarray:
    """The (1, group, n) score block of a one-head cache: one row per query head of its group."""
    return np.array(scores, dtype=np.float64)[None]


def fresh_cache(heads: int = 1) -> KvCacheState:
    return KvCacheState(heads, 2)


def push(cache: KvCacheState) -> None:
    """Append the next step t to every head: key (t, 0), value (0, t)."""
    t = float(cache.step + 1)
    cache.append(np.tile([t, 0.0], (cache.n_heads, 1)), np.tile([0.0, t], (cache.n_heads, 1)))


# Policy strings with the config and label each parses to: the README's and the
# golden runs' strings, the optional third sizes, and the benchmark's policies.
# A label names a run directory, so none may change.
PINNED_STRINGS = [
    ("full", Full(), "full"),
    ("streaming:4+8", StreamingLlm(4, 8), "streaming_4+8"),
    ("streaming:2+6", StreamingLlm(2, 6), "streaming_2+6"),
    ("streaming:4+60", StreamingLlm(4, 60), "streaming_4+60"),
    ("streaming:4+1020", StreamingLlm(4, 1020), "streaming_4+1020"),
    ("h2o:4+4", H2O(4, 4), "h2o_4+4"),
    ("h2o:8+8", H2O(8, 8), "h2o_8+8"),
    ("h2o:64+64", H2O(64, 64), "h2o_64+64"),
    ("h2o:768+256", H2O(768, 256), "h2o_768+256"),
    ("scissorhands:4+4:2", Scissorhands(4, 4, 2), "scissorhands_4+4_w2"),
    ("scissorhands:4+4:4", Scissorhands(4, 4, 4), "scissorhands_4+4"),
    ("scissorhands:8+8:4", Scissorhands(8, 8, 4), "scissorhands_8+8_w4"),
    ("scissorhands:64+64", Scissorhands(64, 64, 64), "scissorhands_64+64"),
    ("scissorhands:768+256", Scissorhands(768, 256, 256), "scissorhands_768+256"),
    ("tova:8", Tova(8), "tova_8"),
    ("tova:16", Tova(16), "tova_16"),
    ("tova:128", Tova(128), "tova_128"),
    ("corm:4+4", Corm(4, 4), "corm_4+4"),
    ("corm:8+8", Corm(8, 8), "corm_8+8"),
    ("corm:16+16", Corm(16, 16), "corm_16+16"),
    ("corm:256+256", Corm(256, 256), "corm_256+256"),
    ("gqa_corm:4+4", CormGqa(4, 4, None), "gqa_corm_4+4"),
    ("gqa_corm:8+8", CormGqa(8, 8, None), "gqa_corm_8+8"),
    ("gqa_corm:8+8:2", CormGqa(8, 8, 2), "gqa_corm_8+8_g2"),
]


@dataclass(frozen=True)
class Pair(Policy):
    """A throwaway policy of two sizes: its fields are all it states about its string."""

    first: int
    second: int
    name = "pair"


@dataclass(frozen=True)
class GroupedPair(Pair):
    """A throwaway grouped policy: one class fact is all it states about its head layout."""

    name = "grouped_pair"
    grouped = True


@dataclass(frozen=True)
class Triple(Policy):
    """A throwaway policy with an optional third size."""

    first: int
    second: int
    third: int | None = None
    name = "triple"


class TestPolicyParsing:
    @pytest.mark.parametrize("text,config,label", PINNED_STRINGS, ids=[text for text, _, _ in PINNED_STRINGS])
    def test_string_config_and_label_pinned(self, text, config, label):
        policy = parse_policy(text)
        assert policy == config and type(policy) is type(config)
        assert policy.label == policy_label(policy) == label

    def test_scissorhands_window_defaults_to_recent(self):
        assert Scissorhands(768, 256) == Scissorhands(768, 256, 256)

    def test_a_new_policy_parses_and_labels_from_its_fields_alone(self):
        assert Pair.parse(["3+5"]) == Pair(3, 5) and Pair(3, 5).label == "pair_3+5"
        assert Triple.parse(["3+5"]) == Triple(3, 5) and Triple(3, 5).label == "triple_3+5"
        assert Triple.parse(["3+5", "2"]) == Triple(3, 5, 2)
        for cls, args, bad in [(Pair, ["3+x"], "3+x"), (Triple, ["3+5", "y"], "y")]:
            with pytest.raises(ValueError) as error:
                cls.parse(args)
            assert str(error.value) == f"policy {cls.name!r} expects integer sizes, got {bad!r}"

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

    @pytest.mark.parametrize("text", list(NON_INTEGER_SIZES))
    def test_non_integer_sizes_name_the_policy_and_the_text(self, text):
        name, bad = text.split(":")[0], NON_INTEGER_SIZES[text]
        with pytest.raises(ValueError) as error:
            parse_policy(text)
        assert str(error.value) == f"bad policy string {text!r}: policy {name!r} expects integer sizes, got {bad!r}"

    def test_labels_are_file_safe(self):
        for text in ("full", "streaming:4+1020", "corm:256+256", "gqa_corm:8+8:2"):
            label = policy_label(parse_policy(text))
            assert ":" not in label and "/" not in label

    @pytest.mark.parametrize(
        "policy",
        [
            partial(Corm, w=0, r=1),
            partial(Corm, w=1, r=0),
            partial(Tova, budget=0),
            partial(StreamingLlm, sink=0, recent=5),
        ],
    )
    def test_nonpositive_sizes_rejected(self, policy):
        # the size checks run when a config is built
        with pytest.raises(ValueError, match=">= 1"):
            policy()


GROUPED = {"full", "gqa_corm"}  # the policies that may serve a grouped-query model


@pytest.mark.parametrize("name", list(POLICIES))
class TestRegistry:
    """Every registered policy parses, labels, decodes and replays."""

    def test_step_takes_a_block_and_its_scores(self, name):
        assert list(inspect.signature(POLICIES[name].step).parameters) == ["self", "cache", "scores"]

    def test_readme_example_parses_to_its_config(self, name):
        text, expected = README_EXAMPLES[name]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"| `{text}` |" in readme
        policy = parse_policy(text)
        assert policy == expected
        assert type(policy) is POLICIES[name] and policy.name == name

    def test_label_is_unique_and_file_safe(self, name):
        label = README_EXAMPLES[name][1].label
        assert ":" not in label and "/" not in label
        others = [p.label for n, (_, p) in README_EXAMPLES.items() if n != name]
        assert label not in others

    def test_decodes_and_replays(self, name, small_model, small_trace):
        policy = README_EXAMPLES[name][1]
        res = small_model.run(seeded_tokens(3, 16), policy)
        assert np.isfinite(res.logits).all()
        for cache in res.state.caches:
            cache.check()
            for h in range(cache.n_heads):
                kept = cache.head_positions(h)
                assert 1 <= kept[0] and kept[-1] <= 16
        for t, sim in replay_steps(small_trace, policy):
            kept = sim.cache.head_positions(0)
            assert np.all(np.diff(kept) > 0) and 1 <= kept[0] and kept[-1] <= t
        assert np.all((sim.compression >= 0.0) & (sim.compression < 1.0))

    def test_grouped_query_layout(self, name):
        policy = README_EXAMPLES[name][1]
        model = init_model(ModelConfig(n_layers=1, n_heads=4, n_kv_heads=2, d_model=32, vocab_size=64, seed=6))
        trace = record(model, seeded_tokens(6, 4, vocab=64))
        if name in GROUPED:
            model.init_state(policy)
            PolicySimulator(policy, trace)
            return
        with pytest.raises(ValueError, match="per-head policy"):
            model.init_state(policy)
        with pytest.raises(ValueError, match="per-head policy"):
            PolicySimulator(policy, trace)


def test_head_layout_is_one_class_fact():
    model = init_model(ModelConfig(n_layers=1, n_heads=4, n_kv_heads=2, d_model=32, vocab_size=64, seed=6))
    trace = record(model, seeded_tokens(6, 4, vocab=64))
    grouped = GroupedPair(1, 2)
    assert model.init_state(grouped).policy is grouped
    assert PolicySimulator(grouped, trace).group_size == 2
    with pytest.raises(ValueError, match="per-head policy"):
        model.init_state(Pair(1, 2))
    with pytest.raises(ValueError, match="per-head policy"):
        PolicySimulator(Pair(1, 2), trace)


def test_registry_keeps_the_documented_name_order():
    # error messages list the names in registry order
    assert list(POLICIES) == list(README_EXAMPLES)


def assert_same_blocks(a: KvCacheState, b: KvCacheState) -> None:
    """Equal sizes, steps, per-entry array names and arrays."""
    assert a.sizes == b.sizes and a.step == b.step and a.entry_names == b.entry_names
    for name in a.entry_names:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


FLAG_DRIVEN = [name for name, cls in POLICIES.items() if not cls.reads_magnitudes]


def flag_scores(flags: np.ndarray) -> np.ndarray:
    """Scores that `classify_important` flags exactly where `flags` is True, at any step."""
    return np.where(flags, 1.0, 0.0)


def assert_magnitudes_ignored(name: str, in_place: bool) -> None:
    # replay passes such a policy its restricted rows unnormalized: a copy fed
    # their 0/1 image, which has the same flags, must make the same decisions
    policy = README_EXAMPLES[name][1]
    group = 2 if name in GROUPED else 1
    trace = make_synthetic_trace(n_layers=1, n_heads=3 * group, n_steps=48, seed=17)
    raw, flagged = KvCacheState(3, 0, in_place), KvCacheState(3, 0, in_place)
    none = np.zeros((3, 0))
    for t, block in enumerate(trace.rows, start=1):
        raw.append(none, none)
        flagged.append(none, none)
        rows_by_cache = block[0].reshape(3, group, t).astype(np.float64)
        restricted = np.zeros((3, group, raw.width))
        for h in range(3):
            restricted[h][:, raw.held[h]] = rows_by_cache[h][:, raw.head_positions(h) - 1]
        policy.step(flagged, flag_scores(classify_important(restricted, t)))
        policy.step(raw, restricted)
        assert_same_blocks(raw, flagged)
    if name != "full":
        assert raw.size < 3 * trace.n_steps, "fixture never evicted"


@pytest.mark.parametrize("name", FLAG_DRIVEN)
def test_policies_that_read_no_magnitudes_ignore_them(name):
    assert_magnitudes_ignored(name, in_place=False)


@pytest.mark.parametrize("name", FLAG_DRIVEN)
def test_policies_that_read_no_magnitudes_ignore_them_in_place(name):
    assert_magnitudes_ignored(name, in_place=True)


class TestClassifyImportant:
    def test_quarter_threshold(self):
        mask = classify_important(rows([0.4, 0.3, 0.2, 0.1]), t=4)
        np.testing.assert_array_equal(mask, [[[True, True, False, False]]])

    def test_first_step_always_important(self):
        np.testing.assert_array_equal(classify_important(rows([1.0]), t=1), [[[True]]])

    def test_uniform_survivors_all_important(self):
        # k surviving keys at step t > k: each scores 1/k >= 1/t
        k, t = 4, 9
        mask = classify_important(rows([1.0 / k] * k), t=t)
        assert mask.all()


BOTH_LAYOUTS = pytest.mark.parametrize("in_place", [False, True], ids=["compacting", "in_place"])


def stepped_block(policy, in_place: bool) -> KvCacheState:
    """Two heads stepped 6 times under `policy` with uniform scores, then cut to positions 1, 3 and 5."""
    c = KvCacheState(2, 2, in_place)
    for t in range(1, 7):
        push(c)
        policy.step(c, np.where(c.held, 1.0 / t, 0.0)[:, None, :])
    c.keep_only(c.positions[:, : c.width] % 2 == 1)
    return c


def stain_free_rows(c: KvCacheState) -> None:
    """Give every free row of every array but positions a value no held row may hold."""
    free = c.positions == FREE
    for name in c.entry_names:
        if name != "positions":
            arr = getattr(c, name)
            arr[free] = True if arr.dtype == bool else -7


class TestKvCacheState:
    def test_append_grows_all_parallel_arrays(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c)
            c.check()
        assert c.size == 3
        np.testing.assert_array_equal(c.head_positions(0), [1, 2, 3])

    def test_append_pads_message_columns_with_false(self):
        # a policy array's new row is cleared, whatever a free row held
        c = fresh_cache()
        policy = Scissorhands(budget=8, recent=8, window=4)
        push(c)
        policy.step(c, rows([1.0]))
        c.message[0, 1:] = True
        push(c)
        np.testing.assert_array_equal(c.message[0, 1], False)
        policy.step(c, rows([0.4, 0.6]))
        np.testing.assert_array_equal(c.message[0, :2, :2], [[True, False], [False, True]])

    def test_keep_only_prunes_message_columns(self):
        c = fresh_cache()
        c.entry_array("message", np.bool_, 4)
        for t, mask in enumerate(([True], [True, False], [True, False, True]), start=1):
            push(c)
            c.message[0, :t, t - 1] = mask
        c.keep_only(np.array([[True, False, True]]))
        np.testing.assert_array_equal(c.head_positions(0), [1, 3])
        np.testing.assert_array_equal(c.message[0, :2, :3], [[True, True, True], [False, False, True]])
        c.check()

    def test_keep_only_rejects_mask_of_wrong_length(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c)
        with pytest.raises(ValueError, match=r"shape \(1, 2\) for 1 caches of up to 3"):
            c.keep_only(np.array([[True, False]]))

    def test_keep_only_ignores_flags_past_a_heads_size(self):
        c = fresh_cache(2)
        for t in (1, 2, 3):
            push(c)
        c.keep_only(np.array([[True, True, True], [False, True, True]]))
        c.keep_only(np.array([[True, False, True], [True, True, False]]))  # head 1's third flag is past its size
        np.testing.assert_array_equal(c.sizes, [2, 2])
        np.testing.assert_array_equal(c.head_positions(0), [1, 3])
        np.testing.assert_array_equal(c.head_positions(1), [2, 3])

    def test_heads_of_a_layer_share_one_block_across_doublings(self):
        c = fresh_cache(2)
        for t in range(1, 41):
            push(c)
            if t > 3:  # head 1 drops each new entry and keeps steps 1..3
                c.keep_only(np.arange(c.width) < np.array([[t], [3]]))
        assert c.capacity >= 40
        np.testing.assert_array_equal(c.head_positions(0), np.arange(1, 41))
        np.testing.assert_array_equal(c.keys[1, : c.sizes[1]], [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        c.check()

    def test_message_columns_past_size_are_never_read(self):
        rng = np.random.Generator(np.random.PCG64(5))
        clean, dirty = fresh_cache(), fresh_cache()
        policy = Scissorhands(budget=3, recent=2, window=3)
        for c in (clean, dirty):
            c.entry_array("message", np.bool_, 1)
            c.entry_array("counts", np.int64)

        def stain(c: KvCacheState) -> None:
            """Fill the free rows, where the next entry goes, with stale flags and counts."""
            c.message[0, c.size :] = True
            c.counts[0, c.size :] = 7

        for t in range(1, 60):
            stain(dirty)
            push(clean)
            push(dirty)
            stain(dirty)
            scores = rng.dirichlet(np.full(clean.size, 0.4))
            policy.step(clean, rows(scores))
            policy.step(dirty, rows(scores))
            policy.check(dirty)
            np.testing.assert_array_equal(clean.head_positions(0), dirty.head_positions(0))
            np.testing.assert_array_equal(clean.counts[0, : clean.size], dirty.counts[0, : dirty.size])

    def test_message_of_one_head_survives_a_growth_another_head_triggers(self):
        # head 0 keeps every entry (uniform scores are all >= 1/t) and so
        # doubles the shared block; head 1 evicts and stays small. Corm's
        # message is each entry's last flagged step
        rng = np.random.Generator(np.random.PCG64(9))
        shared = fresh_cache(2)
        solo = [fresh_cache(), fresh_cache()]
        policy = Corm(w=3, r=2)
        for t in range(1, 41):
            push(shared)
            blocks = []
            for h, cache in enumerate(solo):
                push(cache)
                scores = np.full(t, 1.0 / t) if h == 0 else rng.dirichlet(np.full(cache.size, 0.4))
                policy.step(cache, rows(scores))
                blocks.append(scores)
            padded = np.zeros((2, 1, shared.width))
            for h, scores in enumerate(blocks):
                padded[h, 0, : scores.size] = scores
            policy.step(shared, padded)
            for h, cache in enumerate(solo):
                np.testing.assert_array_equal(shared.head_positions(h), cache.head_positions(0))
                np.testing.assert_array_equal(shared.flagged_at[h, : shared.sizes[h]], cache.flagged_at[0, : cache.size])
        np.testing.assert_array_equal(shared.sizes[0], 40)
        assert shared.sizes[1] < 16

    def test_entry_array_is_registered_once_and_widened_keeping_its_slots(self):
        c = fresh_cache(2)
        push(c)
        tally = c.entry_array("tally", np.int64)
        assert c.entry_names == ["keys", "values", "positions", "tally"]
        assert tally.shape == (2, c.capacity) and not tally.any()
        assert c.entry_array("tally", np.int64) is tally
        ring = c.entry_array("ring", np.bool_, 2)
        ring[:, 0] = [[True, False], [False, True]]
        wide = c.entry_array("ring", np.bool_, 4)
        assert wide.shape == (2, c.capacity, 4) and wide.strides[2] > wide.strides[1]  # slot-major
        np.testing.assert_array_equal(wide[:, 0], [[True, False, False, False], [False, True, False, False]])
        assert c.entry_array("ring", np.bool_, 3) is wide
        assert c.entry_names == ["keys", "values", "positions", "tally", "ring"]
        c.check()

    def test_check_raises_value_errors_naming_the_invariant(self):
        c = fresh_cache()
        push(c)
        push(c)
        c.positions[0, 1] = 1
        with pytest.raises(ValueError, match="strictly increase"):
            c.check()
        c.positions[0, 1] = 2
        c.positions[0, 5] = 3
        with pytest.raises(ValueError, match="free row holds a position"):
            c.check()
        c.sizes[0] = c.capacity + 1
        with pytest.raises(ValueError, match="capacity"):
            c.check()

    @BOTH_LAYOUTS
    def test_block_check_rejects_a_held_row_fault_and_reads_no_free_row(self, in_place):
        c = stepped_block(Full(), in_place)
        stain_free_rows(c)
        c.check()
        c.positions[0, np.flatnonzero(c.held[0])[-1]] = 99  # position 5's row
        with pytest.raises(ValueError, match=r"held row i must hold position i \+ 1" if in_place else "past step 6"):
            c.check()

    @BOTH_LAYOUTS
    def test_corm_check_rejects_a_held_row_fault_and_reads_no_free_row(self, in_place):
        policy = Corm(w=9, r=9)
        c = stepped_block(policy, in_place)
        stain_free_rows(c)
        policy.check(c)
        c.flagged_at[1, np.flatnonzero(c.held[1])[0]] = -1
        with pytest.raises(ValueError, match="head 1: flagged_at"):
            policy.check(c)

    @BOTH_LAYOUTS
    def test_scissorhands_check_rejects_a_held_row_fault_and_reads_no_free_row(self, in_place):
        policy = Scissorhands(budget=8, recent=8, window=4)
        c = stepped_block(policy, in_place)
        stain_free_rows(c)
        policy.check(c)
        c.counts[1, np.flatnonzero(c.held[1])[1]] += 1
        with pytest.raises(ValueError, match="head 1: a message count differs"):
            policy.check(c)

    def test_window_smaller_than_the_recorded_message_rejected(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c)
            Scissorhands(budget=8, recent=8, window=4).step(c, rows(np.full(t, 1.0 / t)))
        push(c)
        with pytest.raises(ValueError, match="message has 4 slots, window is 2"):
            Scissorhands(budget=8, recent=8, window=2).step(c, rows(np.full(4, 0.25)))

    @pytest.mark.parametrize(
        "entry,value",
        [(1, -1), (1, 4), (2, 1)],
        ids=["negative", "after_the_step", "before_the_entry"],
    )
    def test_check_rejects_a_flagged_at_outside_its_entry_and_step(self, entry, value):
        for policy in (Corm(w=9, r=9), CormGqa(w=9, r=9)):
            c = fresh_cache()
            for t in (1, 2, 3):
                push(c)
                policy.step(c, rows(np.full(t, 1.0 / t)))  # uniform scores flag every entry
            c.flagged_at[0, 1] = 0  # never flagged: allowed
            policy.check(c)
            c.flagged_at[0, entry] = value  # entry 1 holds position 2, entry 2 position 3, the step is 3
            c.check()  # the block knows nothing of flagged_at
            with pytest.raises(ValueError, match="flagged_at"):
                policy.check(c)

    def test_the_block_names_no_policy_array(self):
        c = fresh_cache()
        push(c)
        assert c.entry_names == ["keys", "values", "positions"]
        assert c.acc_scores is None and c.message is None


def grown_block(heads: int, d: int, steps: int, seed: int = 0, in_place: bool = False) -> KvCacheState:
    """A block of `steps` appended entries with a policy array of each kind registered and filled."""
    rng = np.random.Generator(np.random.PCG64(seed))
    c = KvCacheState(heads, d, in_place)
    for _ in range(steps):
        advance(c, rng)
    return c


def advance(c: KvCacheState, rng: np.random.Generator) -> None:
    """Append one step and give every row random values in a score array and a ring that widens up to 4 slots."""
    c.append(rng.normal(size=(c.n_heads, c.keys.shape[2])), rng.normal(size=(c.n_heads, c.keys.shape[2])))
    ring = c.entry_array("ring", np.bool_, min(c.step, 4))
    ring[:, : c.width, (c.step - 1) % 4] = rng.random((c.n_heads, c.width)) < 0.5
    c.entry_array("score", np.float64)[:, : c.width] += rng.random((c.n_heads, c.width))


def held_entries(c: KvCacheState, name: str, h: int) -> np.ndarray:
    """Head h's held rows of the per-entry array `name`, oldest first, in either layout."""
    return getattr(c, name)[h, : c.width][c.held[h]]


def compact_like_a_list(c: KvCacheState, keep: np.ndarray) -> None:
    """Apply `keep_only` and compare it with a list-based compaction of every per-entry array."""
    rows = [np.flatnonzero(c.held[h]) for h in range(c.n_heads)]
    expect = {
        name: [[getattr(c, name)[h, i].copy() for i in rows[h] if keep[h, i]] for h in range(c.n_heads)]
        for name in c.entry_names
    }
    c.keep_only(keep)
    c.check()
    for name, heads in expect.items():
        for h, rows_kept in enumerate(heads):
            assert c.sizes[h] == len(rows_kept)
            kept = held_entries(c, name, h)
            np.testing.assert_array_equal(kept, np.reshape(rows_kept, kept.shape), err_msg=f"{name}, head {h}")
    for h in range(c.n_heads):
        # compacting, the rows past a head's size are free; in place, all but the kept rows are
        kept_rows = np.arange(c.sizes[h]) if not c.in_place else rows[h][keep[h, rows[h]]]
        assert np.all(np.delete(c.positions[h], kept_rows) == FREE)


LAYOUTS = pytest.mark.parametrize(
    "d,in_place", [(0, False), (2, False), (0, True)], ids=["replay_layout", "decode_layout", "in_place_layout"]
)


class TestKeepOnlyAgainstLists:
    @LAYOUTS
    @pytest.mark.parametrize(
        "dropped",
        [
            [[0], [9]],  # the first row; the last row
            [[1, 2, 5, 7, 8], [0, 3, 4, 9]],  # several separate runs
            [list(range(10)), []],  # all entries; none
            [[], []],
        ],
        ids=["first_and_last", "separate_runs", "all_and_none", "none"],
    )
    def test_drop_patterns(self, d, in_place, dropped):
        c = grown_block(2, d, 10, in_place=in_place)
        keep = np.ones((2, 10), dtype=bool)
        for h, rows_dropped in enumerate(dropped):
            keep[h, rows_dropped] = False
        compact_like_a_list(c, keep)

    @LAYOUTS
    def test_growth_between_compactions(self, d, in_place):
        rng = np.random.Generator(np.random.PCG64(4))
        c = grown_block(3, d, 12, in_place=in_place)
        compact_like_a_list(c, np.arange(12) % np.array([[3], [5], [12]]) != 1)
        for _ in range(10):  # head 2 passes 16 rows (in place, step 16), so the block doubles
            advance(c, rng)
        assert c.capacity == 32
        compact_like_a_list(c, np.arange(c.width) % np.array([[2], [4], [7]]) != 0)

    @given(data=st.data(), heads=st.integers(1, 4), d=st.sampled_from([0, 2]), seed=st.integers(0, 2**16))
    def test_random_histories(self, data, heads, d, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        c = grown_block(heads, d, data.draw(st.integers(1, 8)), seed, in_place=d == 0 and data.draw(st.booleans()))
        for _ in range(data.draw(st.integers(1, 6))):
            keep = np.ones((heads, c.width), dtype=bool)
            for h, n in enumerate(c.sizes):
                held = c.held[h]
                if n and data.draw(st.booleans()):
                    keep[h, np.flatnonzero(held)[data.draw(st.lists(st.integers(0, n - 1), max_size=n))]] = False
                keep[h, ~held] = data.draw(st.booleans())  # flags on free rows are ignored
            compact_like_a_list(c, keep)
            for _ in range(data.draw(st.integers(0, 12))):
                advance(c, rng)


class TestAppendRows:
    """An n-row `append` is n one-row appends, in either layout."""

    @LAYOUTS
    @pytest.mark.parametrize("before,n", [(0, 1), (3, 2), (0, 40), (13, 60), (16, 16), (20, 5)],
                             ids=["one_row", "two_rows", "two_doublings", "three_doublings", "at_capacity", "unequal"])
    def test_n_rows_equal_n_one_row_appends(self, d, in_place, before, n):
        rng = np.random.Generator(np.random.PCG64(n))
        keys, values = rng.normal(size=(2, n, 3, d))
        blocks = []
        for whole in (True, False):
            c = grown_block(3, d, before, seed=before, in_place=in_place)
            if before:  # unequal heads: a compacting block then writes each head's own rows
                c.keep_only(np.arange(c.width) % (np.arange(3)[:, None] + 2) != 0)
            if whole:
                c.append(keys, values)
            else:
                for k, v in zip(keys, values):
                    c.append(k, v)
            c.check()
            blocks.append(c)
        a, b = blocks
        assert (a.sizes, a.step, a.capacity, a.entry_names) == (b.sizes, b.step, b.capacity, b.entry_names)
        assert a.step == before + n and a.capacity >= a.width
        for name in a.entry_names:  # the positions, keys and values written, and the policy arrays cleared
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        for h in range(3):
            assert held_entries(a, "positions", h)[-n:].tolist() == list(range(before + 1, before + n + 1))
            for name in a.entry_names[3:]:  # a policy array's new rows are cleared
                assert not held_entries(a, name, h)[-n:].any(), name

    @pytest.mark.parametrize("keys,values", [
        (np.zeros((3, 3)), np.zeros((3, 3))),  # rows of d + 1
        (np.zeros((2, 2)), np.zeros((2, 2))),  # too few heads
        (np.zeros((3, 2)), np.zeros((3, 3))),  # values unlike keys
        (np.zeros((0, 3, 2)), np.zeros((0, 3, 2))),  # no rows
        (np.zeros((4, 2, 3, 2)), np.zeros((4, 2, 3, 2))),  # 4-D
        (np.zeros(2), np.zeros(2)),  # 1-D
    ], ids=["wide", "few_heads", "values_differ", "no_rows", "4d", "1d"])
    def test_a_bad_shape_raises_and_leaves_the_block(self, keys, values):
        c = grown_block(3, 2, 5)
        with pytest.raises(ValueError, match="are not rows of 3 heads of 2$"):
            c.append(keys, values)
        assert (c.step, c.sizes) == (5, [5, 5, 5])
        c.check()


@pytest.mark.parametrize("name", list(POLICIES))
@settings(derandomize=True)
@given(heads=st.integers(1, 3), steps=st.integers(1, 32), d=st.sampled_from([0, 2]), seed=st.integers(0, 2**16))
def test_in_place_and_compacting_blocks_make_the_same_decisions(name, heads, steps, d, seed):
    # both layouts get each step's scores per position: coarse scores for a
    # policy that reads magnitudes, which make ties, so the tie-breaks of the
    # two layouts are compared too, and random flags for the others
    policy = README_EXAMPLES[name][1]
    group = 2 if name in GROUPED else 1
    rng = np.random.Generator(np.random.PCG64(seed))
    compacting, in_place = blocks = KvCacheState(heads, d), KvCacheState(heads, d, in_place=True)
    for t in range(1, steps + 1):
        keys, values = rng.normal(size=(2, heads, d))
        scores_by_position = rng.integers(0, 4, size=(heads, group, t)) / 4
        flags_by_position = rng.random((heads, group, t)) < 0.4
        if not policy.reads_magnitudes:
            scores_by_position = flag_scores(flags_by_position)
        for c in blocks:
            c.append(keys, values)
            scores = np.zeros((heads, group, c.width))
            for h in range(heads):
                scores[h][:, c.held[h]] = scores_by_position[h][:, c.head_positions(h) - 1]
            policy.step(c, scores)
            policy.check(c)
        assert compacting.sizes == in_place.sizes and compacting.entry_names == in_place.entry_names
        for h in range(heads):
            np.testing.assert_array_equal(compacting.head_positions(h), in_place.head_positions(h))
            for array in compacting.entry_names:
                held = held_entries(in_place, array, h)
                np.testing.assert_array_equal(held_entries(compacting, array, h), held, err_msg=f"{array}, t={t}")


@pytest.mark.parametrize(
    "policy",
    [H2O(heavy=4, recent=4), Scissorhands(budget=4, recent=4, window=4), Tova(budget=8)],
    ids=["h2o", "scissorhands", "tova"],
)
def test_budget_guards_compare_the_fullest_head_not_the_width(policy, monkeypatch):
    # in place, width is the step: a block cut by hand to 7 entries before
    # each step stays under the budget of 8 however wide it grows
    c = KvCacheState(2, 0, in_place=True)
    cut, calls = KvCacheState.keep_only, []
    monkeypatch.setattr(KvCacheState, "keep_only", lambda self, keep: calls.append(keep))
    none = np.zeros((2, 0))
    for t in range(1, 31):
        c.append(none, none)
        cut(c, c.positions[:, : c.width] > t - 7)
        policy.step(c, np.where(c.held, 1.0 / 7, 0.0)[:, None, :])
    assert c.width == 30 and c.sizes == [7, 7]
    assert len(calls) == 0


def lexsort_kept(positions, ranking, candidates, excess):
    """Per-head reference: drop the `excess` candidates lowest by (ranking, position)."""
    cand = np.flatnonzero(candidates)
    order = np.lexsort((positions[cand], ranking[cand]))
    return np.delete(positions, cand[order[: max(excess, 0)]])


class TestBlockEviction:
    """One block step in which three heads must drop 0, 1 and 2 entries."""

    T = 8

    def block(self) -> KvCacheState:
        # sizes 6, 7, 8 after step 8: over a budget of 6 by 0, 1 and 2
        c = fresh_cache(3)
        for t in range(1, self.T + 1):
            push(c)
        c.keep_only(np.array([[False, False] + [True] * 6, [False] + [True] * 7, [True] * 8]))
        return c

    def scores(self, c) -> np.ndarray:
        # every head's minimum is tied at three entries
        weights = np.zeros((3, 1, c.width))
        for h, n in enumerate(c.sizes):
            w = np.linspace(2.0, 3.0, n)
            w[[1, 3, 4]] = 1.0
            weights[h, 0, :n] = w / w.sum()
        return weights

    @pytest.mark.parametrize(
        "policy,ranking,non_recent",
        [
            (H2O(heavy=4, recent=2), "scores", True),
            (Scissorhands(budget=4, recent=2, window=4), "flags", True),
            (Tova(budget=6), "scores", False),
        ],
    )
    def test_each_head_drops_its_excess_lowest_position_first(self, policy, ranking, non_recent):
        c = self.block()
        scores = self.scores(c)
        t = self.T
        before = [c.head_positions(h).copy() for h in range(3)]
        expect = []
        for h, positions in enumerate(before):
            n = positions.size
            rank = scores[h, 0, :n] if ranking == "scores" else classify_important(scores[h, 0, :n], t).astype(float)
            candidates = positions <= t - 2 if non_recent else np.ones(n, dtype=bool)
            expect.append(lexsort_kept(positions, rank, candidates, n - 6))
        policy.step(c, scores)
        c.check()
        np.testing.assert_array_equal(c.sizes, [6, 6, 6])
        for h in range(3):
            np.testing.assert_array_equal(c.head_positions(h), expect[h])
            dropped = np.setdiff1d(before[h], c.head_positions(h))
            assert dropped.size == h
            # the dropped entries are the lowest positions among the tied minimum
            assert set(dropped) <= set(before[h][[1, 3, 4]])
            assert np.all(dropped == before[h][[1, 3, 4]][:h])

    def test_replay_with_unequal_cache_sizes_raises_no_float_warning(self):
        trace = make_synthetic_trace(n_layers=2, n_heads=3, n_steps=40, seed=8)
        unequal = False
        with np.errstate(all="raise"):
            for t, sim in replay_steps(trace, Corm(w=2, r=1)):
                unequal |= len(set(sim.cache.sizes)) > 1
        assert unequal, "fixture never left the caches at unequal sizes"


class TestCormUpdate:
    def test_no_eviction_while_window_unfilled(self):
        c = fresh_cache()
        w = 5
        for t in range(1, w):  # first w-1 steps
            push(c)
            scores = np.full(t, 1.0 / t)
            Corm(w=w, r=1).step(c, rows(scores))
            assert c.size == t, "cache must grow by exactly one entry per step"
            # uniform scores flag every entry at every step
            np.testing.assert_array_equal(c.flagged_at[0, : c.size], np.full(t, t))

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
            push(c)
            Corm(w=2, r=1).step(c, rows(scores))
            c.check()
            if t < 4:
                assert c.size == t
        np.testing.assert_array_equal(c.head_positions(0), [2, 3, 4])
        # keys 2 and 3 last flagged at step 4 (0.3 >= 1/4), key 4 never (0.2 < 1/4)
        np.testing.assert_array_equal(c.flagged_at[0, : c.size], [4, 4, 0])

    def test_window_larger_than_trace_never_evicts(self):
        c = fresh_cache()
        rng = np.random.Generator(np.random.PCG64(0))
        for t in range(1, 33):
            push(c)
            scores = rng.dirichlet(np.ones(t))
            Corm(w=10**9, r=1).step(c, rows(scores))
        assert c.size == 32

    def test_bad_sizes_rejected(self):
        # an invalid config cannot be built, not even from a policy string
        for text in ("corm:0+1", "corm:1+0"):
            with pytest.raises(ValueError, match=">= 1"):
                parse_policy(text)

    def test_row_cache_length_mismatch_rejected(self):
        c = fresh_cache()
        push(c)
        push(c)
        with pytest.raises(ValueError, match="scores for a cache"):
            Corm(w=2, r=1).step(c, rows([1.0]))

    def test_scores_for_another_head_count_rejected(self):
        c = fresh_cache(2)
        push(c)
        with pytest.raises(ValueError, match="scores for a cache block of 2 heads"):
            Corm(w=2, r=1).step(c, rows([1.0]))

    @pytest.mark.parametrize("w,r", [(1, 1), (2, 1), (3, 2), (4, 4)])
    def test_recent_keep_and_characterization_fuzz(self, w, r):
        """Live-style fuzz on a block of 3 heads, under corm and under gqa_corm
        with groups of 2: each head's kept set always equals the window-union
        oracle over its group's ORed flags and never loses an entry from the
        last r steps."""
        rng = np.random.Generator(np.random.PCG64(41 * w + r))
        for policy, group in ((Corm(w=w, r=r), 1), (CormGqa(w=w, r=r, group_size=2), 2)):
            c = fresh_cache(3)
            flagged: list[dict[int, set[int]]] = [{} for _ in range(3)]
            for t in range(1, 120):
                push(c)
                scores = np.zeros((3, group, c.width))
                for h, n in enumerate(c.sizes):
                    scores[h, :, :n] = rng.dirichlet(np.full(n, 0.4), size=group)
                mask = np.logical_or.reduce(classify_important(scores, t), axis=1)
                present = []
                for h, n in enumerate(c.sizes):
                    flagged[h][t] = set(c.head_positions(h)[mask[h, :n]])
                    present.append(set(c.head_positions(h)))
                policy.step(c, scores)
                c.check()
                for h in range(3):
                    kept = set(c.head_positions(h))
                    recent = {p for p in present[h] if p > t - r}
                    assert recent <= kept, f"{policy.label}: recent entry of head {h} evicted at t={t}"
                    if t >= w:
                        union = set().union(*(flagged[h][s] for s in range(t - w + 1, t + 1)))
                        assert kept == (union & present[h]) | recent, f"{policy.label}, head {h}, t={t}"


class TestStreamingUpdate:
    def test_positions_one_and_three_kept(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c)
        StreamingLlm(sink=1, recent=1).step(c, rows([0.2, 0.3, 0.5]))
        np.testing.assert_array_equal(c.head_positions(0), [1, 3])

    def test_no_eviction_within_budget(self):
        c = fresh_cache()
        for t in range(1, 11):
            push(c)
            StreamingLlm(sink=4, recent=6).step(c, rows(np.full(c.size, 1.0 / c.size)))
            assert c.size == t

    def test_size_closed_form_over_random_trace(self):
        rng = np.random.Generator(np.random.PCG64(7))
        sink, recent = 3, 5
        c = fresh_cache()
        for t in range(1, 101):
            push(c)
            scores = rng.dirichlet(np.ones(c.size))
            StreamingLlm(sink, recent).step(c, rows(scores))
            assert c.size == min(t, sink + recent)


class TestH2OUpdate:
    def run_steps(self, step_scores, heavy, recent):
        c = fresh_cache()
        for t, scores in enumerate(step_scores, start=1):
            push(c)
            H2O(heavy, recent).step(c, rows(scores))
            c.check()
        return c

    def test_identity_under_budget(self):
        c = self.run_steps([[1.0], [0.5, 0.5], [0.4, 0.3, 0.3]], heavy=4, recent=4)
        assert c.size == 3

    def test_lowest_accumulation_evicted_first(self):
        # accumulations after step 3: key1=2.2, key2=0.4, key3=0.4 (recent)
        c = self.run_steps([[1.0], [0.7, 0.3], [0.5, 0.1, 0.4]], heavy=1, recent=1)
        np.testing.assert_array_equal(c.head_positions(0), [1, 3])

    def test_size_bounded(self):
        rng = np.random.Generator(np.random.PCG64(13))
        c = fresh_cache()
        for t in range(1, 200):
            push(c)
            H2O(heavy=5, recent=3).step(c, rows(rng.dirichlet(np.ones(c.size))))
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
            push(c)
            Scissorhands(budget=2, recent=1, window=2).step(c, rows(scores))
            c.check()
        # counts over the last 2 masks: key2 lowest among non-recent -> evicted
        np.testing.assert_array_equal(c.head_positions(0), [1, 3, 4])
        push(c)
        Scissorhands(budget=2, recent=1, window=2).step(c, rows([0.3, 0.3, 0.2, 0.2]))
        # three-way count tie among non-recent entries: lowest position goes
        np.testing.assert_array_equal(c.head_positions(0), [3, 4, 5])

    def test_always_important_key_outlives_never_important(self):
        rng = np.random.Generator(np.random.PCG64(3))
        c = fresh_cache()
        for t in range(1, 60):
            push(c)
            scores = np.full(c.size, 0.5 / (c.size - 1)) if c.size > 1 else np.array([1.0])
            if c.size > 1:
                scores[c.head_positions(0) == 1] = 0.5  # key 1 always far above 1/t
                scores /= scores.sum()
            Scissorhands(budget=3, recent=2, window=4).step(c, rows(scores))
            assert 1 in c.head_positions(0), f"always-important key evicted at t={t}"
            assert c.size <= 5

    def test_running_count_equals_the_window_sum(self, small_model, small_trace):
        # the window of 3 is far shorter than the run, so the message ring wraps
        policy = Scissorhands(budget=4, recent=4, window=3)
        state = small_model.init_state(policy)
        for tok in seeded_tokens(3, 24):
            small_model.decode_step(state, int(tok))
            for cache in state.caches:
                policy.check(cache)
        assert all(cache.counts is not None for cache in state.caches)
        for t, sim in replay_steps(small_trace, policy):
            policy.check(sim.cache)
        sim.cache.counts[0, sim.cache.head_positions(0)[0] - 1] += 1  # replay's row i is position i + 1
        sim.cache.check()  # the block knows nothing of the counts
        with pytest.raises(ValueError, match="message count differs"):
            policy.check(sim.cache)

    @pytest.mark.parametrize("window", [1, 3, 5, 8, 64])
    def test_counts_match_a_list_of_the_last_window_masks(self, window):
        # random flags on three heads, across block growth, budget evictions
        # and ring wrap: each surviving entry's count is the number of the
        # last `window` steps that flagged its position
        rng = np.random.Generator(np.random.PCG64(window))
        policy = Scissorhands(budget=14, recent=6, window=window)
        c = fresh_cache(3)
        flagged: list[list[set[int]]] = []  # [step - 1][head]: positions the step's mask flagged
        for t in range(1, 91):
            push(c)
            flags = rng.random((3, 1, c.width)) < 0.4
            flagged.append([set(c.head_positions(h)[flags[h, 0, :n]].tolist()) for h, n in enumerate(c.sizes)])
            policy.step(c, flag_scores(flags))
            policy.check(c)
            assert c.message.shape[2] == min(1 << (t - 1).bit_length(), window)
            for h, n in enumerate(c.sizes):
                expect = [sum(p in step[h] for step in flagged[-window:]) for p in c.head_positions(h).tolist()]
                np.testing.assert_array_equal(c.counts[h, :n], expect, err_msg=f"head {h}, step {t}")
        assert c.capacity == 32 and max(c.sizes) == 20, "fixture never grew the block and evicted"

    def test_a_huge_window_costs_only_the_steps_seen(self, small_model):
        policy = parse_policy("scissorhands:4+4:1000000000")
        state = small_model.init_state(policy)
        for tok in seeded_tokens(6, 100):
            small_model.decode_step(state, int(tok))
        assert max(cache.message.shape[2] for cache in state.caches) == 128

    def test_size_bounded(self):
        rng = np.random.Generator(np.random.PCG64(29))
        c = fresh_cache()
        for t in range(1, 150):
            push(c)
            scores = rng.dirichlet(np.ones(c.size))
            Scissorhands(budget=4, recent=2, window=3).step(c, rows(scores))
            assert c.size <= 6


class TestTovaUpdate:
    def test_identity_under_budget(self):
        c = fresh_cache()
        for t in (1, 2):
            push(c)
            Tova(budget=2).step(c, rows(np.full(t, 1.0 / t)))
        assert c.size == 2

    def test_lowest_current_score_evicted(self):
        c = fresh_cache()
        for t, scores in [(1, [1.0]), (2, [0.3, 0.7]), (3, [0.2, 0.5, 0.3])]:
            push(c)
            Tova(budget=2).step(c, rows(scores))
        np.testing.assert_array_equal(c.head_positions(0), [2, 3])
        push(c)
        Tova(budget=2).step(c, rows([0.25, 0.25, 0.5]))
        # tie between positions 2 and 3: lower position evicted
        np.testing.assert_array_equal(c.head_positions(0), [3, 4])

    def test_size_bounded(self):
        rng = np.random.Generator(np.random.PCG64(31))
        c = fresh_cache()
        for t in range(1, 100):
            push(c)
            Tova(budget=6).step(c, rows(rng.dirichlet(np.ones(c.size))))
            assert c.size <= 6


class TestGqaCormUpdate:
    def test_degenerate_group_matches_per_head(self):
        rng = np.random.Generator(np.random.PCG64(2))
        a, b = fresh_cache(), fresh_cache()
        for t in range(1, 40):
            push(a)
            push(b)
            scores = rng.dirichlet(np.full(a.size, 0.5))
            Corm(w=3, r=2).step(a, rows(scores))
            CormGqa(w=3, r=2).step(b, rows(scores))
            np.testing.assert_array_equal(a.head_positions(0), b.head_positions(0))
            np.testing.assert_array_equal(a.flagged_at[0, : a.size], b.flagged_at[0, : b.size])

    def test_or_mask_keeps_key_flagged_by_one_head(self):
        c = fresh_cache()
        push(c)
        CormGqa(w=1, r=1).step(c, rows([1.0], [1.0]))
        push(c)
        # head A flags key 1, head B does not: OR keeps it
        CormGqa(w=1, r=1).step(c, rows([0.6, 0.4], [0.4, 0.6]))
        np.testing.assert_array_equal(c.head_positions(0), [1, 2])
        push(c)
        # no head flags key 1 any more and it is outside recent-1
        CormGqa(w=1, r=1).step(c, rows([0.2, 0.5, 0.3], [0.1, 0.3, 0.6]))
        np.testing.assert_array_equal(c.head_positions(0), [2, 3])

    def test_empty_group_rejected(self):
        c = fresh_cache()
        push(c)
        with pytest.raises(ValueError, match="at least one"):
            CormGqa(w=1, r=1).step(c, np.zeros((1, 0, 1)))

    def test_group_size_mismatch_rejected_by_dispatcher(self):
        c = fresh_cache()
        push(c)
        with pytest.raises(ValueError, match="group size"):
            apply_policy(CormGqa(w=1, r=1, group_size=2), c, rows([1.0]))

    def test_per_head_policy_rejects_grouped_rows(self):
        c = fresh_cache()
        push(c)
        with pytest.raises(ValueError, match="per-head policy"):
            apply_policy(Tova(budget=4), c, rows([1.0], [1.0]))


class TestFullPolicy:
    def test_identity_on_cache(self):
        c = fresh_cache()
        rng = np.random.Generator(np.random.PCG64(0))
        for t in range(1, 20):
            push(c)
            apply_policy(Full(), c, rows(rng.dirichlet(np.ones(t))))
            assert c.size == t
        np.testing.assert_array_equal(c.head_positions(0), np.arange(1, 20))


class TestCompressionRate:
    def test_full_cache_rate_zero(self):
        c = fresh_cache()
        for t in (1, 2, 3):
            push(c)
        np.testing.assert_array_equal(compression_rate(c.sizes, 3), [0.0])

    def test_streaming_closed_form_half(self):
        c = fresh_cache()
        for t in range(1, 1025):
            push(c)
        np.testing.assert_allclose(compression_rate(c.sizes, 2048), [0.5])

    def test_rate_per_head_of_a_block(self):
        c = fresh_cache(2)
        for t in (1, 2):
            push(c)
        c.keep_only(np.array([[True, True], [False, True]]))
        np.testing.assert_array_equal(compression_rate(c.sizes, 2), [0.0, 0.5])

    def test_mean_over_heads(self):
        a, b = fresh_cache(), fresh_cache()
        push(a)
        push(a)
        push(b)
        assert mean_compression_rate(a.sizes + b.sizes, 2) == pytest.approx(0.25)

    def test_invalid_t_rejected(self):
        with pytest.raises(ValueError):
            compression_rate(fresh_cache().sizes, 0)
