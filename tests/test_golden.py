"""Pinned output bits: logits and final kept positions of 80-step decodes.

Each digest is a SHA-256 over ``logits.tobytes()`` followed by the final kept
positions of every (layer, kv-head) cache. A change to summation order
anywhere in the decode path -- attention batching, softmax reductions,
rotary or absolute position tables, cache growth -- changes a digest. 80
steps take the full cache across several capacity doublings. A deliberate
change of output bits must record new digests and say why.
"""

import hashlib

import pytest

from conftest import seeded_tokens
from corm.model import ModelConfig, init_model
from corm.policies import parse_policy
from corm.positional import AbsoluteSinusoidal, Alibi, Rope

STEPS = 80

MODELS = {
    "rope_2l4h": ModelConfig(n_layers=2, n_heads=4, d_model=64, vocab_size=256, seed=42, pe=Rope()),
    "sinusoidal_4l8h_kv2": ModelConfig(
        n_layers=4, n_heads=8, n_kv_heads=2, d_model=64, vocab_size=256, seed=42,
        pe=AbsoluteSinusoidal(),
    ),
    "alibi_1l4h": ModelConfig(n_layers=1, n_heads=4, d_model=64, vocab_size=256, seed=42, pe=Alibi()),
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
}


def decode_digest(model_name: str, policy: str) -> str:
    model = init_model(MODELS[model_name])
    res = model.run(seeded_tokens(11, STEPS), parse_policy(policy))
    h = hashlib.sha256(res.logits.tobytes())
    for layer in res.state.caches:
        for cache in layer:
            h.update(cache.positions.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("model_name,policy", sorted(GOLDEN))
def test_decode_bits_match_golden_digest(model_name, policy):
    assert decode_digest(model_name, policy) == GOLDEN[(model_name, policy)]
