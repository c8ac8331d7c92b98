"""Pinned output bits of 80-step decodes and of replays of 80-step traces.

Each decode digest is a SHA-256 over ``logits.tobytes()`` followed by the
final kept positions of every (layer, kv-head) cache. A change to summation
order anywhere in the decode path -- attention batching, softmax reductions,
rotary or absolute position tables, cache growth -- changes a digest. 80
steps take the full cache across several capacity doublings.

Each replay digest is a SHA-256 over the replay's ``compression.tobytes()``
followed by every kept set, the live cache (l, g) read after step t,
layer-major, then group, then step: it pins each policy's decisions at every
step of the trace, not only the final cache.

Each accumulated-score digest is a SHA-256 over h2o's ``acc_scores`` on the
held rows of every cache, in block order, after a golden decode or replay:
kept sets can survive a last-bit change in the scores h2o adds up, these
bits cannot.

Each generate digest is a SHA-256 over the tokens `generate` picks in 16
greedy steps after an 80-step `run`, then `last_logits`, then the final kept
positions: it pins the one-token decode that follows a chunked prompt. Each
150-step digest is a decode digest over a prompt that spans two whole
64-token chunks and a partial one. Each trace-file digest is a SHA-256 over
the bytes `save` writes for an 80-step `record`.

A deliberate change of output bits must record new digests and say why.
"""

import hashlib

import pytest

from conftest import replay_steps, seeded_tokens
from corm.model import ModelConfig, init_model
from corm.policies import POLICIES, parse_policy
from corm.positional import AbsoluteLearned, AbsoluteSinusoidal, Alibi, NoPositional, Rope
from corm.trace import record, replay_policy, save

STEPS = 80

MODELS = {
    "rope_2l4h": ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=42, pe=Rope()),
    "sinusoidal_4l8h_kv2": ModelConfig(
        n_layers=4, n_heads=8, n_kv_heads=2, d_model=64, vocab_size=256, seed=42,
        pe=AbsoluteSinusoidal(),
    ),
    "alibi_1l4h": ModelConfig(n_layers=1, n_heads=4, d_model=64, vocab_size=256, seed=42, pe=Alibi()),
    "learned_2l4h": ModelConfig(
        n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=42, pe=AbsoluteLearned(), max_positions=96,
    ),
    "none_2l4h": ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=42, pe=NoPositional()),
    "learned_2l4h_p160": ModelConfig(
        n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=42, pe=AbsoluteLearned(), max_positions=160,
    ),
}

GOLDEN = {
    ("rope_2l4h", "full"): "71cf7a5349640d940fa070dfd428d41d035731fcdc98e16b088cd01b80220a04",
    ("rope_2l4h", "corm:8+8"): "10057722afe7cc3df0c3e0d6b0846ef2e865de37df29b6f73505eee1538b8699",
    ("rope_2l4h", "h2o:16+16"): "88699fc0352df75d04aa0e5ff1a79539d11e5e95147b7d876c6661836d7209fb",
    ("rope_2l4h", "tova:24"): "cc2d2e4fbb00c9144abca0460965e1482f4ee6fb34c0585d31b648c73415f6b5",
    ("rope_2l4h", "streaming:4+12"): "9b82c75d9fcf8cd4f0be531b29a417e02a23437092205cb74c1708a3573edea0",
    ("rope_2l4h", "scissorhands:16+16"): "2e21719c57a9c02f07d5afdc5df9093c55b692125ce3902438e5757294cbea4f",
    ("sinusoidal_4l8h_kv2", "full"): "28800d50f77bb42e35419172d9ad05838e0cfafb64d8b984da9f5381e0082489",
    ("sinusoidal_4l8h_kv2", "gqa_corm:8+8"): "f51130602d63d9dd706b381e4e0e1a71793126f387254d36f7852b53099ce441",
    ("alibi_1l4h", "full"): "d8344e8fa5075dae4a3db28eb51bd9d1870717e5c728fb8a70dccbe547430fc5",
    ("alibi_1l4h", "corm:8+8"): "5bb432534d8a70ae1c79decccf73575e194fd0db0cf8fcf62bf392aa1c9f4f74",
    ("alibi_1l4h", "h2o:16+16"): "591c9064974d46686c75569bc1851567135ff40d28704daf60478f1ef7d4b4ce",
    ("alibi_1l4h", "tova:24"): "687b712c26089a4dac67e8dcecd236e9920793519230da1fc2d7b1b1b5061a41",
    ("alibi_1l4h", "streaming:4+12"): "90211f3448c6341661d17b294559999c6953bcb057d094fe561863b2b083cb99",
    ("alibi_1l4h", "scissorhands:16+16"): "ba835443c3a0fffc7fc4425a7ff5b5e7938c83af2ff44da1c2f1adc7f25a346f",
    ("learned_2l4h", "full"): "5c93b7ac04b2c3218987dfcc2767f70a4e929fdb8b71df5e8d533dcc11bbf57b",
    ("learned_2l4h", "corm:8+8"): "a5841ab71feefbdf37c6686cf0b675da7a9373d6fc1e3aed29a176781cb9194c",
    ("none_2l4h", "full"): "4b90ac593ea5b7da654bd47d49f3c0b146d263733c9dd710b3a262b600ec343e",
    ("none_2l4h", "corm:8+8"): "b9852561726237f3ffe1e0bcbaf8dd3bf728bbbf49c9029f3780ae66a36e8244",
}


def update_kept(h, caches) -> None:
    for cache in caches:
        for head in range(cache.n_heads):
            h.update(cache.head_positions(head).astype("<i8").tobytes())


def decode_digest(model_name: str, policy: str, steps: int = STEPS) -> str:
    model = init_model(MODELS[model_name])
    res = model.run(seeded_tokens(11, steps), parse_policy(policy))
    h = hashlib.sha256(res.logits.tobytes())
    update_kept(h, res.state.caches)
    return h.hexdigest()


@pytest.mark.parametrize("model_name,policy", sorted(GOLDEN))
def test_decode_bits_match_golden_digest(model_name, policy):
    assert decode_digest(model_name, policy) == GOLDEN[(model_name, policy)]


RUN_150_GOLDEN = {
    ("alibi_1l4h", "tova:24"): "dc65b95a42646edcca72c6399619dbc2175e3660ee9dd9e6da5b87ce4346de13",
    ("learned_2l4h_p160", "full"): "0caa960df41669ec83633309ac05848661cbb5ea6a2110d4c04863612f0361bd",
    ("rope_2l4h", "corm:8+8"): "811e2a3812f058f05ac2bb3efcb73dd634a8313ad015c3215d336e3883d34200",
    ("rope_2l4h", "h2o:16+16"): "53d7bb3d0f1d71deeef72493bd74e6315ebbe25fd92d3541bcde981b51aa7f68",
    ("sinusoidal_4l8h_kv2", "gqa_corm:8+8"): "2c3961fa1e234f6d1047960af3bc75c16ea2ad5bee5470bf34449b6e4f250dc7",
}


@pytest.mark.parametrize("model_name,policy", sorted(RUN_150_GOLDEN))
def test_150_step_decode_bits_match_golden_digest(model_name, policy):
    assert decode_digest(model_name, policy, 150) == RUN_150_GOLDEN[(model_name, policy)]


GENERATE_GOLDEN = {
    ("alibi_1l4h", "corm:8+8"): "ff2097bd5ae25ea3936396d1e1d1854dfd45d18535fae87f91b071a75357829e",
    ("alibi_1l4h", "full"): "08c097b6d8a116fc28705c07f7d4f3874398f735a5b0b4170a3f3639519e9be5",
    ("alibi_1l4h", "h2o:16+16"): "8f995628481ee1e70049b896734048b3e3519ccdf42ecab514d3cb05cdc3e301",
    ("alibi_1l4h", "scissorhands:16+16"): "c37ab848ea4b6f845a228a5f483e64ea0081deff558d232239f2d8b77fbbf17f",
    ("alibi_1l4h", "streaming:4+12"): "78659b76997484aebed4051601a2b9d897937a5a8476fbc73377ecbac394d5f4",
    ("alibi_1l4h", "tova:24"): "c5b9eab32b561d8e8b6992d364cf69046e54ef39c9472d1117e0efe0685c751a",
    ("learned_2l4h_p160", "full"): "ddc08e973c301a8d2dbfa487867426e38951d570d1a085e9ef16ee87bd771f61",
    ("learned_2l4h", "corm:8+8"): "13bf8abc4213c0ea7f662cca754629d67c0e936b094e9a78ea0c4d42f46f71bb",
    ("learned_2l4h", "full"): "93ec884eb8b40f91f7857335770c5a368b9b17b4fa92a542a0ab1342c2865e7d",
    ("none_2l4h", "corm:8+8"): "aff4ea7de17448d414420e668db1f3ecbf7da9f3098627c48e8136886abec4ca",
    ("none_2l4h", "full"): "225f67e8a82cbd458e51d14ebbaebfa3a1cac5a7f35d2ac9d2594b51e427ff73",
    ("rope_2l4h", "corm:8+8"): "fc7c4ccf737567b2460c8de8b07803c9f20d397952c4e211b2afca924bcfaba5",
    ("rope_2l4h", "full"): "9cb3072fe87780e2d1ab8434a74fda1956253b1b47d04c51c46a4dc890b8b5d1",
    ("rope_2l4h", "h2o:16+16"): "163b751532f1235dde798064facfadb89e9c9aaf6d6d9aec24855a1b62b182a4",
    ("rope_2l4h", "scissorhands:16+16"): "78b3ceca9e10d41737551aeb860ca1630f75b8043651fa145d8e9940a4b0fb38",
    ("rope_2l4h", "streaming:4+12"): "e0c58923f9a7e86884048fac2cd00e42b2d70ea27a2295a37f0bf154f4ad2447",
    ("rope_2l4h", "tova:24"): "6802cb1d32853e2cf99ec97d623b1d0334f57a32caa3d3b1c6584f3a4b07e5e3",
    ("sinusoidal_4l8h_kv2", "full"): "c4fac962bcc1290aecb231c7984bfecba1dc322adc5c6d2536243e6dadc81f2a",
    ("sinusoidal_4l8h_kv2", "gqa_corm:8+8"): "94510b548451a78f99e645a520528ccf15ab3eeb719fe2f5c190c7c34f179bdd",
}


def generate_digest(model_name: str, policy: str) -> str:
    model = init_model(MODELS[model_name])
    state = model.run(seeded_tokens(11, STEPS), parse_policy(policy)).state
    tokens = model.generate(state, 16)
    h = hashlib.sha256(tokens.astype("<i8").tobytes())
    h.update(state.last_logits.astype("<f8").tobytes())
    update_kept(h, state.caches)
    return h.hexdigest()


def test_generate_golden_covers_every_model():
    assert {model for model, _ in GENERATE_GOLDEN} == set(MODELS)


@pytest.mark.parametrize("model_name,policy", sorted(GENERATE_GOLDEN))
def test_generate_bits_match_golden_digest(model_name, policy):
    assert generate_digest(model_name, policy) == GENERATE_GOLDEN[(model_name, policy)]


TRACE_FILE_GOLDEN = {
    "alibi_1l4h": "30c9d7371af1eaa2fc9036e906d5411351b5cf58e084eeaa9bd1b4102e74a811",
    "rope_2l4h": "555633591ed8c4ffc4a976675d35d1c275fb0b1e83102b120a2973296e0a13c3",
    "sinusoidal_4l8h_kv2": "0b1d38a635b56af034795cf476f5c798f0ec37b1ef6973ac667a93cb536e9196",
}


@pytest.mark.parametrize("model_name", sorted(TRACE_FILE_GOLDEN))
def test_trace_file_bytes_match_golden_digest(tmp_path, model_name):
    path = tmp_path / "run.trc"
    save(record(init_model(MODELS[model_name]), seeded_tokens(11, STEPS)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_FILE_GOLDEN[model_name]


REPLAY_GOLDEN = {
    ("rope_2l4h", "full"): "6211065ca563f309e6ac41f4e37a35248f7394ae14bc00c2acdc07f253a36b47",
    ("rope_2l4h", "streaming:4+12"): "ac4fa2ffe0cb27d564cbd2864049884436fbfdfe0c2f1aebef05c24c0e820863",
    ("rope_2l4h", "h2o:16+16"): "db9d9849c9c5c23e4e2977ce2f703994dbbb8932e4b08d13b654e4ab06aa0d96",
    ("rope_2l4h", "scissorhands:16+16"): "26354ff61d2db0a2247ba81f29f8c95a0439930bdac7d7435c7f5f53bff79da8",
    ("rope_2l4h", "tova:24"): "8da97a02d29cff3c13075777a715fb480a5ec6eec0eba524ccf07893605beea3",
    ("rope_2l4h", "corm:8+8"): "9527845fd18b9fb6ddeafc7c35f4113e534fe0ef9c0b5d9cf13c3ce76b9139f2",
    ("rope_2l4h", "gqa_corm:8+8"): "9527845fd18b9fb6ddeafc7c35f4113e534fe0ef9c0b5d9cf13c3ce76b9139f2",
    ("sinusoidal_4l8h_kv2", "full"): "6211065ca563f309e6ac41f4e37a35248f7394ae14bc00c2acdc07f253a36b47",
    ("sinusoidal_4l8h_kv2", "gqa_corm:8+8"): "9dcfd50651d07e12215b3571efdb795568b43514af098236b6d7ca7cf92e5ceb",
}


@pytest.fixture(scope="module")
def traces():
    names = {name for name, _ in REPLAY_GOLDEN}
    return {name: record(init_model(MODELS[name]), seeded_tokens(11, STEPS)) for name in names}


def replay_digest(trace, policy: str) -> str:
    # kept[cache][t - 1]; cache index layer * n_groups + group runs layer-major, then group
    kept: dict[int, list[bytes]] = {}
    for _, sim in replay_steps(trace, parse_policy(policy)):
        for i in range(sim.cache.n_heads):
            kept.setdefault(i, []).append(sim.cache.head_positions(i).astype("<i8").tobytes())
    h = hashlib.sha256(sim.compression.tobytes())
    for i in sorted(kept):
        h.update(b"".join(kept[i]))
    return h.hexdigest()


def test_replay_golden_covers_every_registered_policy():
    assert {policy.split(":")[0] for model, policy in REPLAY_GOLDEN if model == "rope_2l4h"} == set(POLICIES)


@pytest.mark.parametrize("trace_name,policy", sorted(REPLAY_GOLDEN))
def test_replay_bits_match_golden_digest(traces, trace_name, policy):
    assert replay_digest(traces[trace_name], policy) == REPLAY_GOLDEN[(trace_name, policy)]


ACC_SCORES_GOLDEN = {
    ("decode", "alibi_1l4h", "h2o:16+16"): "d06d7e1be7844c693a6588054ede18107ea2753e9da332a2e6f22842b7dcaf7c",
    ("decode", "rope_2l4h", "h2o:16+16"): "55fc101aa775452ca40a67a5afd1a2de0e8fdb4dbf6263523f062b0240e6e1d3",
    ("replay", "rope_2l4h", "h2o:16+16"): "63a9924ebe85311be352588b1be567c88e9184dfc505dc145836e0c852ea4a1a",
}


def acc_scores_digest(caches) -> str:
    h = hashlib.sha256()
    for cache in caches:
        h.update(cache.acc_scores[:, : cache.width][cache.held].astype("<f8").tobytes())
    return h.hexdigest()


def test_acc_scores_golden_covers_every_golden_h2o_run():
    h2o_runs = {("decode", *key) for key in GOLDEN} | {("replay", *key) for key in REPLAY_GOLDEN}
    assert set(ACC_SCORES_GOLDEN) == {key for key in h2o_runs if key[2].startswith("h2o:")}


@pytest.mark.parametrize("mode,model_name,policy", sorted(ACC_SCORES_GOLDEN))
def test_h2o_accumulated_scores_match_golden_digest(traces, mode, model_name, policy):
    if mode == "decode":
        caches = init_model(MODELS[model_name]).run(seeded_tokens(11, STEPS), parse_policy(policy)).state.caches
    else:
        caches = [replay_policy(traces[model_name], parse_policy(policy)).cache]
    assert acc_scores_digest(caches) == ACC_SCORES_GOLDEN[(mode, model_name, policy)]
