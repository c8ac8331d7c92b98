"""Pinned output bits of 80-step decodes and of replays of 80-step traces.

Each decode digest is a SHA-256 over ``logits.tobytes()`` followed by the
final kept positions of every (layer, kv-head) cache. A change to summation
order anywhere in the decode path -- attention batching, softmax reductions,
rotary or absolute position tables, cache growth -- or to an elementwise
formula (the GELU cube) changes a digest. 80 steps take the full cache
across several capacity doublings.

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

Each directory digest is a SHA-256 over one file a `corm` command writes:
every file under its `--out`, or the file a `trace --trace` run writes. The
commands run in a temporary working directory with relative paths, so the
canonical `manifest.json` a flag-only run writes does not name that
directory. They pin every output file's bytes, CSV formatting included.

The float bits also follow the BLAS kernel and numpy's SIMD dispatch, so
``DIGEST_ENVIRONMENT`` records the environment the digests were made in
(``conftest.bit_environment``), and a digest mismatch names it beside the
environment of the failing run.

A deliberate change of output bits must record new digests and say why.
``PYTHONPATH=src python tests/test_golden.py`` prints the environment and all
seven tables, in this file's literal format, computed from the imported
``corm``; it writes no file outside a temporary directory.
"""

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import bit_environment, replay_steps, seeded_tokens
from corm.cli import main as corm_main
from corm.model import ModelConfig, init_model
from corm.policies import POLICIES, parse_policy
from corm.positional import AbsoluteLearned, AbsoluteSinusoidal, Alibi, NoPositional, Rope
from corm.trace import record, replay_policy, save

STEPS = 80

DIGEST_ENVIRONMENT = {
    "openblas_core": "SkylakeX",
    "cpu_features": "AVX AVX2 AVX512BF16 AVX512BITALG AVX512BW AVX512CD AVX512DQ AVX512F AVX512FP16 AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512VL AVX512VNNI AVX512VPOPCNTDQ AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SKX AVX512_SPR BMI BMI2 CX16 F16C FMA3 GFNI LAHF LZCNT MMX MOVBE POPCNT SSE SSE2 SSE3 SSE41 SSE42 SSSE3 VAES VPCLMULQDQ X86_V2 X86_V3 X86_V4",
}


def environment_note(made: dict, here: dict) -> str:
    """A digest mismatch's message: the environment the digests were made in, and this run's."""
    cause = "the same environment, so the code changed the bits" if made == here else "a different environment"
    return f"digests made under {made}\nthis run is under {here}: {cause}"


def mismatch() -> str:
    return environment_note(DIGEST_ENVIRONMENT, bit_environment())


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
    ("rope_2l4h", "full"): "954b6c79d85fba3f3274024d7bebb72d276473629ca95971f880ec0ff60ddd86",
    ("rope_2l4h", "corm:8+8"): "832c31cdc0d5604031837d8fa8313f5b7efc834e0ff272120ce1edb07a0b8eff",
    ("rope_2l4h", "h2o:16+16"): "3052a3a3d12c3a3580c611783b8e781974c7d442bf035c8704528fd4cdfcc057",
    ("rope_2l4h", "tova:24"): "2daeb81670961ee0647aa8178012042b8c77d7a16396617f062e43766a0796f6",
    ("rope_2l4h", "streaming:4+12"): "27c4a977812a50f181da98dc6b4043f68e3bccac572cdff6e610be37803f71c0",
    ("rope_2l4h", "scissorhands:16+16"): "506aae9d0a219e46f7a1176699c5d44a7c691b60375c4c6f40909ec8a00ec12d",
    ("sinusoidal_4l8h_kv2", "full"): "8e5c29c121f76ac740b7c43e26120cd6bf423945aa153f6067d1883284eca51a",
    ("sinusoidal_4l8h_kv2", "gqa_corm:8+8"): "ccd4e46981cbd493813ea7eef9a4e0b81c0cd1aa25fbe7f02f7f6f0714ff34c4",
    ("alibi_1l4h", "full"): "f6c006d18bb544dd0bcbaa415ea5a02009fc2d3cae07f9b1e003e677c01a0b6c",
    ("alibi_1l4h", "corm:8+8"): "01d6020ce0b18fde2d0f79629246abcc2f1649591975003a5447bfcd58993e8e",
    ("alibi_1l4h", "h2o:16+16"): "7e516f5a2b1b39ad0abd1faa39738056d353e4808b4443912f48dbbc6246d39b",
    ("alibi_1l4h", "tova:24"): "e73b302fefc64990d39ada656d8312b5afe674ab1c58a16e59c5ffc489ed13f3",
    ("alibi_1l4h", "streaming:4+12"): "13621c15e96d0c9b706ef18baddab5e72afe6e64eeb17995c8e08737bb459295",
    ("alibi_1l4h", "scissorhands:16+16"): "9c15d99a62b0140d9fa777adef125e7df0c4b8eef0c14d6cf5904c98ce53e5cf",
    ("learned_2l4h", "full"): "7b5c09f740a439df28c71dfb04a41387f7a0eb46b85a65ef339cc064b649ca6b",
    ("learned_2l4h", "corm:8+8"): "3d8675d2f13a077fcef81b8c4a3fd53e642ce6e085eecee75b2ac00f8ba256fb",
    ("none_2l4h", "full"): "f941da2a0cb9f33255e3db88bfca18f978236da876533c907c073287a85d841a",
    ("none_2l4h", "corm:8+8"): "89c1c4e3fe4a5db7f73d445194204e312e20f78f69d20a7aee89a1e324adc07a",
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
    assert decode_digest(model_name, policy) == GOLDEN[(model_name, policy)], mismatch()


RUN_150_GOLDEN = {
    ("alibi_1l4h", "tova:24"): "64dcb0704515974b08d988840c33978765117bea2dfe44b7f5ffe0222c4ec305",
    ("learned_2l4h_p160", "full"): "371d71e1ad45de3f759d4f5f65d277134f1e3a845cd3dca0924e0be9c696fa5f",
    ("rope_2l4h", "corm:8+8"): "69487583dc6548421e19d8b77955ffce916e7299174193e4a746d40b4ad51e8e",
    ("rope_2l4h", "h2o:16+16"): "306a92dcdaa314bc9a5a573f4d45b21fd359e70aa9c8e12fa79b1a47f42059f7",
    ("sinusoidal_4l8h_kv2", "gqa_corm:8+8"): "49b4c678be805d8668d5622ff58da2856b297929f7b4a9029c6c4cfae31291b3",
}


@pytest.mark.parametrize("model_name,policy", sorted(RUN_150_GOLDEN))
def test_150_step_decode_bits_match_golden_digest(model_name, policy):
    assert decode_digest(model_name, policy, 150) == RUN_150_GOLDEN[(model_name, policy)], mismatch()


GENERATE_GOLDEN = {
    ("alibi_1l4h", "corm:8+8"): "ff2097bd5ae25ea3936396d1e1d1854dfd45d18535fae87f91b071a75357829e",
    ("alibi_1l4h", "full"): "63163b5e6b802c3abbaef0e03bb8b407e6d62f8e5740a1fcb8100a2e1086e0b1",
    ("alibi_1l4h", "h2o:16+16"): "fe0e3f8715df78aed6ddced7c43f0d395bc5490d960b4c90d1878506de795867",
    ("alibi_1l4h", "scissorhands:16+16"): "c37ab848ea4b6f845a228a5f483e64ea0081deff558d232239f2d8b77fbbf17f",
    ("alibi_1l4h", "streaming:4+12"): "256da639ec6123a0aa18574c0ebe92daafef323a56b94aab163bf92d567768d4",
    ("alibi_1l4h", "tova:24"): "c5b9eab32b561d8e8b6992d364cf69046e54ef39c9472d1117e0efe0685c751a",
    ("learned_2l4h_p160", "full"): "7e7a414f76e1893c588a6f8cbf0d889121f351082c3516f94b9d7081cc3025f5",
    ("learned_2l4h", "corm:8+8"): "3cba56ee1ceb5cbf30491abf54fc8d563b08666ac712913267ea9b7f22c0e370",
    ("learned_2l4h", "full"): "72e6bfb8fad67bc7cad5f75260695212f1c4dcc35edd4eba6128e082bb71fc05",
    ("none_2l4h", "corm:8+8"): "cecdad94c765f0b7f3dafb1734403bc74051bfeffb52a5f0f0338c41d5ed1464",
    ("none_2l4h", "full"): "96b27862411426c3b4dee223b0a667c7d935c229e5a84386edbca9ba5c14aeca",
    ("rope_2l4h", "corm:8+8"): "617290abfb2f6aaca76868d7856f8276868e460be99022889e46bc1d6126b50f",
    ("rope_2l4h", "full"): "e53a4ef6d191b43187fabaf8380a9d08bcc026dd0cb46a01db2f82af7c663a04",
    ("rope_2l4h", "h2o:16+16"): "7603836a339eb645f7d2bbef95526d77f0a4a0d24190d0dedaf1bf398ded0d57",
    ("rope_2l4h", "scissorhands:16+16"): "0dcb83a48b5f7a1dcdb3a06c60199190c0c63b7fce96ff239fbeddfe691fc42a",
    ("rope_2l4h", "streaming:4+12"): "4ec3ecd3b2dbb9cea3b50fea253e8971bf7837dcbd255d926d329c741ef3070e",
    ("rope_2l4h", "tova:24"): "2f2af32ad5a1705c500c9c2afb59cd0a15d94c725a8e5ad53915abee9b5da73e",
    ("sinusoidal_4l8h_kv2", "full"): "7c4acf449db85197b4de5fd578bfdce70fa1f6724d5422af8df800205678c11e",
    ("sinusoidal_4l8h_kv2", "gqa_corm:8+8"): "51ece5517a21e5ec14cc08b8a85d350460310f6d0a68ede3d1f155b33d5363b0",
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
    assert generate_digest(model_name, policy) == GENERATE_GOLDEN[(model_name, policy)], mismatch()


TRACE_FILE_GOLDEN = {
    "alibi_1l4h": "30c9d7371af1eaa2fc9036e906d5411351b5cf58e084eeaa9bd1b4102e74a811",
    "rope_2l4h": "555633591ed8c4ffc4a976675d35d1c275fb0b1e83102b120a2973296e0a13c3",
    "sinusoidal_4l8h_kv2": "0b1d38a635b56af034795cf476f5c798f0ec37b1ef6973ac667a93cb536e9196",
}


def trace_file_digest(model_name: str, directory: Path) -> str:
    path = directory / "run.trc"
    save(record(init_model(MODELS[model_name]), seeded_tokens(11, STEPS)), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model_name", sorted(TRACE_FILE_GOLDEN))
def test_trace_file_bytes_match_golden_digest(tmp_path, model_name):
    assert trace_file_digest(model_name, tmp_path) == TRACE_FILE_GOLDEN[model_name], mismatch()


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


def golden_traces() -> dict:
    names = {name for name, _ in REPLAY_GOLDEN}
    return {name: record(init_model(MODELS[name]), seeded_tokens(11, STEPS)) for name in names}


@pytest.fixture(scope="module")
def traces():
    return golden_traces()


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
    assert replay_digest(traces[trace_name], policy) == REPLAY_GOLDEN[(trace_name, policy)], mismatch()


ACC_SCORES_GOLDEN = {
    ("decode", "alibi_1l4h", "h2o:16+16"): "d06d7e1be7844c693a6588054ede18107ea2753e9da332a2e6f22842b7dcaf7c",
    ("decode", "rope_2l4h", "h2o:16+16"): "20c483f6e3e8c4acd4a4945154b3f89bb00dabbf06285304ce5b6d60711c71ef",
    ("replay", "rope_2l4h", "h2o:16+16"): "63a9924ebe85311be352588b1be567c88e9184dfc505dc145836e0c852ea4a1a",
}


def acc_scores_digest(caches) -> str:
    h = hashlib.sha256()
    for cache in caches:
        h.update(cache.acc_scores[:, : cache.width][cache.held].astype("<f8").tobytes())
    return h.hexdigest()


def h2o_run_digest(traces, mode: str, model_name: str, policy: str) -> str:
    if mode == "decode":
        caches = init_model(MODELS[model_name]).run(seeded_tokens(11, STEPS), parse_policy(policy)).state.caches
    else:
        caches = [replay_policy(traces[model_name], parse_policy(policy)).cache]
    return acc_scores_digest(caches)


def test_acc_scores_golden_covers_every_golden_h2o_run():
    h2o_runs = {("decode", *key) for key in GOLDEN} | {("replay", *key) for key in REPLAY_GOLDEN}
    assert set(ACC_SCORES_GOLDEN) == {key for key in h2o_runs if key[2].startswith("h2o:")}


@pytest.mark.parametrize("mode,model_name,policy", sorted(ACC_SCORES_GOLDEN))
def test_h2o_accumulated_scores_match_golden_digest(traces, mode, model_name, policy):
    digest = h2o_run_digest(traces, mode, model_name, policy)
    assert digest == ACC_SCORES_GOLDEN[(mode, model_name, policy)], mismatch()


DIRECTORY_MODELS = {
    "mha.json": {"n_layers": 2, "n_heads": 4, "d_model": 32, "vocab_size": 64, "seed": 7, "pe": {"kind": "rope"}},
    "gqa.json": {
        "n_layers": 2, "n_heads": 4, "n_kv_heads": 2, "d_model": 32, "vocab_size": 64, "seed": 7,
        "pe": {"kind": "absolute_sinusoidal"},
    },
}
GENERATE_MANIFEST = {
    "model_config": "mha.json",
    "policies": ["full", "corm:8+8", "h2o:8+8", "streaming:2+6"],
    "input": {"kind": "synthetic", "seed": 5, "length": 48},
    "out": "generate_manifest",
    "generate_steps": 12,
    "checkpoints": [20, 60],
}
SIX_POLICIES = ["full", "streaming:2+6", "h2o:8+8", "scissorhands:8+8:4", "tova:16", "corm:4+4"]

# run name -> argv; each run writes the directory or the trace file its name names.
# Runs go in this order: replay and analyze read the traces.
DIRECTORY_RUNS = {
    "generate_manifest": ["generate", "--manifest", "generate.json"],
    "generate_flags": [
        "generate", "--model-config", "gqa.json", "--policy", "full", "--policy", "gqa_corm:8+8",
        "--synthetic", "6:70", "--steps", "8", "--sampling", "topk", "--top-k", "5", "--seed", "3",
        "--checkpoints", "1,64,65", "--out", "generate_flags",
    ],
    # flags override the manifest file, so its merged form is written; it names mha.json as given
    "generate_merged": [
        "generate", "--manifest", "generate.json", "--policy", "full", "--policy", "tova:16",
        "--steps", "4", "--checkpoints", "20,52", "--out", "generate_merged",
    ],
    "ppl": [
        "ppl", "--model-config", "mha.json", "--policy", "full", "--policy", "corm:8+8",
        "--policy", "tova:16", "--synthetic", "5:48", "--out", "ppl",
    ],
    "trace_out": ["trace", "--model-config", "mha.json", "--synthetic", "5:48", "--out", "trace_out"],
    "mha.trc": ["trace", "--model-config", "mha.json", "--synthetic", "5:64", "--trace", "mha.trc"],
    "gqa.trc": ["trace", "--model-config", "gqa.json", "--synthetic", "6:48", "--trace", "gqa.trc"],
    "replay_mha": ["replay", "--trace", "mha.trc", *[a for p in SIX_POLICIES for a in ("--policy", p)],
                   "--out", "replay_mha"],
    "replay_gqa": ["replay", "--trace", "gqa.trc", "--policy", "gqa_corm:4+4", "--policy", "full",
                   "--out", "replay_gqa"],
    "analyze": [
        "analyze", "--trace", "mha.trc", "--max-map-steps", "20", "--recent-k", "4",
        "--overlap-pairs", "30", "--seed", "2", "--out", "analyze",
    ],
}


def directory_digests(root: Path) -> dict:
    """{path: SHA-256} over every file `DIRECTORY_RUNS` write, run inside `root`; paths are relative to it."""
    digests = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for name, payload in [*DIRECTORY_MODELS.items(), ("generate.json", GENERATE_MANIFEST)]:
            Path(name).write_text(json.dumps(payload, indent=2) + "\n")
        for run, argv in DIRECTORY_RUNS.items():
            if corm_main(argv) != 0:
                raise RuntimeError(f"corm {' '.join(argv)} failed")
            out = Path(run)
            for path in sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]:
                digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_files(table: dict, run: str) -> dict:
    """The entries of `table` that name `run`'s file or a file under its directory."""
    return {path: digest for path, digest in table.items() if path == run or path.startswith(f"{run}/")}


DIRECTORY_GOLDEN = {
    "generate_manifest/corm_8+8/compression.csv": "e58dfd83686bc3d2929dc6d766f447cbe4eaa7d533f708d604cd9a7c9d4c386c",
    "generate_manifest/corm_8+8/divergence_vs_full.csv": "3550cd235c1fc77d0da412ec5124f11179dcdc3378cc5de5a00373651397e69c",
    "generate_manifest/corm_8+8/tokens.txt": "bc7213c1c7d22559fdbd909898235d5a98ab5a940f8faa6349527e42e4c1c4fa",
    "generate_manifest/full/compression.csv": "57a0533f925a931ce36c2de0426fc1a49dd7bf162cb86f4d2c3d5f7914dd295f",
    "generate_manifest/full/tokens.txt": "297d62e1c8a8075d8ff67a2151d7df1c6a43e401a8f2dc5bdef9330d7cc57478",
    "generate_manifest/h2o_8+8/compression.csv": "1b7f55b0c23e367decf140d931348072096cf702c85d2698b9e12a3cce044418",
    "generate_manifest/h2o_8+8/divergence_vs_full.csv": "74b6615bd341e90277b8251539c28e7f75699bfdb2711bfab7d90f000b4d7def",
    "generate_manifest/h2o_8+8/tokens.txt": "299b330d7a910052e58194649bc0f7d50d25c2d6bccbca392fdb47319b9fac67",
    "generate_manifest/manifest.json": "21897d13e05b1dcba065eb59bead2f70d370f0f3a0890f066d838059cc076f91",
    "generate_manifest/streaming_2+6/compression.csv": "3b270b0108e8f872241b32b14a6c0c3190c2bf1bdf7a18fe7a95649d5c01a743",
    "generate_manifest/streaming_2+6/divergence_vs_full.csv": "944d361f21714f20610b2bed1938d7ce43ecf4bbd91dfcb8e4cb61f4561cefb4",
    "generate_manifest/streaming_2+6/tokens.txt": "5cd0945842d14256d117114103565c69cc8b5ba485a859add0eb3a34f9013b0a",
    "generate_flags/full/compression.csv": "086eda699ce0cbe821e3054dde095ffe3db35eb3405adf9009661b4c3ed2f0eb",
    "generate_flags/full/tokens.txt": "3dd09751a5a76b9beec8ffdfdf5ddd00f256188e57be19a53820555d505d8255",
    "generate_flags/gqa_corm_8+8/compression.csv": "e47d0c3e3f34dfc9b03068a0be181a27ca4c041db2653924abd14d277fccef66",
    "generate_flags/gqa_corm_8+8/divergence_vs_full.csv": "fcc9055f1e30ccea3bf01f031c42c3d43f8b9d9294c6aec96ed5dbfeea189506",
    "generate_flags/gqa_corm_8+8/tokens.txt": "2068077507a95c185238e8d70d81cffb42060992641442972d97078861d91540",
    "generate_flags/manifest.json": "1e9cd67d62dede9c6b01566966b6550f0c5fa9cc143bdae18ab9b737bd4f2239",
    "generate_merged/full/compression.csv": "edb428fdd27db3dc1c66d57348085640d4c6c01fa3ac219e2792de48cce8f194",
    "generate_merged/full/tokens.txt": "c0158e1d10585ece81cdb7aaa86104f9a0867eaedf4f67c16e135600cc81d3b6",
    "generate_merged/manifest.json": "65a5fad406e68460283a4ddd38c3d5db9e41b6e40a5204cf093b77bb799f8aa5",
    "generate_merged/tova_16/compression.csv": "617811ea39d538dd19fe780dfb43b7543933ffbe71b1364edd52a7197d7e7b1f",
    "generate_merged/tova_16/divergence_vs_full.csv": "dde7872ba151fa8b65dd3cb32463e646628102d3e53fe227819ba3b75b94616c",
    "generate_merged/tova_16/tokens.txt": "133682233567e62e765dee9ec7f39d9c8331dfbd1da4e8f530378f54b299abae",
    "ppl/manifest.json": "d96a4b97e94c53de9d7c55631aa31b4dc94a9ce46a31227c0f3c358aff68dbbf",
    "ppl/perplexity.csv": "c59511da57bf8750a10e564bacebf2945918ebc4a0f906256f948ff1c356ebd9",
    "trace_out/manifest.json": "a85b3d0e594ba074b09a13f20a2df9c628137577ed554cd6ac3c0097f103c126",
    "trace_out/trace.bin": "ba67e5c1f74c2c5bcbe492388247fb19df4e1979fd62fc3f23ab15062e5346eb",
    "mha.trc": "66baef790b8684c32df99d61fa6b57b66dc763ad23e6cd39b8c49feccca02f46",
    "gqa.trc": "a294d543d31f1e2f9b0444939fbdd3bf3e782e360d19cf8d4b6094a5191d3144",
    "replay_mha/comparison.csv": "8e5631a4c33e7a663cdeb3336c21bb6d8778fb2cfdeb4a67629ad6a4fe58c864",
    "replay_mha/corm_4+4/compression.csv": "9826629bce5a579835fb22fac075ca6a723bef370f5fddd03be43fb829b2e6e2",
    "replay_mha/full/compression.csv": "fdc5619483c9c663286ba1f9d368c214e5b22286ec43a5b631736087233174db",
    "replay_mha/h2o_8+8/compression.csv": "63a0ec4802c680378f4f87a4aa959a286c01f4e21910855d3531804e8e4d0bab",
    "replay_mha/manifest.json": "3939efdf43e15700e83161fe06b93406b96fa6238798c8475296657e5f56aaa6",
    "replay_mha/scissorhands_8+8_w4/compression.csv": "63a0ec4802c680378f4f87a4aa959a286c01f4e21910855d3531804e8e4d0bab",
    "replay_mha/streaming_2+6/compression.csv": "a413482612367630fd657382e7aed73533fe02d5b23731611dfd9849d296cb78",
    "replay_mha/tova_16/compression.csv": "63a0ec4802c680378f4f87a4aa959a286c01f4e21910855d3531804e8e4d0bab",
    "replay_gqa/comparison.csv": "ea2cb6da43ee8f5bf99a6a2597a13f8b7fdde49a0c7a89dfa17cf5b57ec173cd",
    "replay_gqa/full/compression.csv": "28e53c29364edca88b0bfef235ecc8061180b2c363a6735417b8e88c654b6e56",
    "replay_gqa/gqa_corm_4+4/compression.csv": "1880d498ee6d1a9d4a8c94d489961175fb4cdd7ff58ee109ef09bd18eb451fc8",
    "replay_gqa/manifest.json": "d727cce05233cbb627d41efcc023f89fed30a91c6b62e69e16434217d159bebf",
    "analyze/manifest.json": "76d28ca99af6240df059d6ba93e35e78aad909cadcb43601cf3006dfa968578c",
    "analyze/overlap.csv": "35346fb8eb74a9572bca73ea624b9b35a1df94b136c7000ad65cb3946772d8e7",
    "analyze/recent_fraction.csv": "abe1f8c28c19a139b5be5ae82ba2dfc9ab44132176df519dc194eeef548a75f3",
    "analyze/similarity_l0_h0.csv": "4deaf2eba02137db0909501f694d544cbc13b1030477189ae847c328e1e5f41c",
    "analyze/similarity_l0_h1.csv": "731dc7f81bfd2cfde95ead5f0f96858ce8f420ec23f4917630d140f72b8fcbcc",
    "analyze/similarity_l0_h2.csv": "00aa195af4df762af129467e04dae9bd2a28f45ac3d3f6cd2be2da477c08ba6a",
    "analyze/similarity_l0_h3.csv": "b493f2b8f62f84edba4ee984223d7cc3ab82b7980d71684a9819cc8a4dba8d12",
    "analyze/similarity_l1_h0.csv": "997e1031a1de915eda977442b80f27024b556e3c7d4a8f06849da2bf79983f99",
    "analyze/similarity_l1_h1.csv": "e83517bdfb1548c20c64a48c0f475596d202b2fbc98ec28b37eeef1777553b80",
    "analyze/similarity_l1_h2.csv": "a3a136e5446dd733790db77531b65dede1952aab6595ae7b1b5b5d6e9d1ad7cc",
    "analyze/similarity_l1_h3.csv": "6bff38c349b598f0f1986e445e7f33bbb7c1579e279b7e3089e17c2afac6a407",
    "analyze/sparsity.csv": "472d484c5844a728a3330fe1690827356d2fd690b9a6408708ce13869feae49d",
    "analyze/summary.json": "60fb2ae09a41d3afd1b5b6097a66a95c495f8a3763b224bb2936071321490e2f",
}


@pytest.fixture(scope="module")
def directories(tmp_path_factory):
    return directory_digests(tmp_path_factory.mktemp("directories"))


def test_directory_golden_covers_every_run():
    assert set(DIRECTORY_GOLDEN) == {path for run in DIRECTORY_RUNS for path in run_files(DIRECTORY_GOLDEN, run)}
    assert all(run_files(DIRECTORY_GOLDEN, run) for run in DIRECTORY_RUNS)


@pytest.mark.parametrize("run", sorted(DIRECTORY_RUNS))
def test_command_output_bytes_match_golden_digest(directories, run):
    assert run_files(directories, run) == run_files(DIRECTORY_GOLDEN, run), mismatch()


class TestDigestEnvironment:
    def test_recorded_environment_has_the_fields_read_here(self):
        assert set(DIGEST_ENVIRONMENT) == set(bit_environment())

    def test_note_names_both_environments(self):
        here = {"openblas_core": "Haswell", "cpu_features": "AVX AVX2"}
        note = environment_note(DIGEST_ENVIRONMENT, here)
        assert str(DIGEST_ENVIRONMENT) in note and str(here) in note and "a different environment" in note
        assert "the code changed the bits" in environment_note(here, dict(here))

    def test_a_moved_digest_still_fails_and_names_both_environments(self, monkeypatch, tmp_path):
        monkeypatch.setitem(TRACE_FILE_GOLDEN, "rope_2l4h", "0" * 64)
        with pytest.raises(AssertionError) as failure:
            test_trace_file_bytes_match_golden_digest(tmp_path, "rope_2l4h")
        assert str(DIGEST_ENVIRONMENT) in str(failure.value) and str(bit_environment()) in str(failure.value)

    @pytest.mark.parametrize("loads", [True, False], ids=["no_symbol", "no_library"])
    def test_missing_library_or_symbol_reads_unknown(self, monkeypatch, loads):
        def library(path):
            if not loads:
                raise OSError(f"{path}: cannot open shared object file")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", library)
        monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)
        assert bit_environment() == {"openblas_core": "unknown", "cpu_features": "unknown"}


def print_table(name: str, table: dict, digest) -> None:
    """Print `name = {...}` with each key of `table` mapped to `digest(key)`, as this file writes it."""
    print(f"{name} = {{")
    for key in table:
        literal = json.dumps(key) if isinstance(key, str) else "(" + ", ".join(map(json.dumps, key)) + ")"
        print(f"    {literal}: {json.dumps(digest(key))},")
    print("}\n", flush=True)


def main() -> None:
    print_table("DIGEST_ENVIRONMENT", DIGEST_ENVIRONMENT, bit_environment().get)
    print_table("GOLDEN", GOLDEN, lambda key: decode_digest(*key))
    print_table("RUN_150_GOLDEN", RUN_150_GOLDEN, lambda key: decode_digest(*key, 150))
    print_table("GENERATE_GOLDEN", GENERATE_GOLDEN, lambda key: generate_digest(*key))
    with tempfile.TemporaryDirectory() as directory:
        print_table("TRACE_FILE_GOLDEN", TRACE_FILE_GOLDEN, lambda name: trace_file_digest(name, Path(directory)))
    trace_by_name = golden_traces()
    print_table("REPLAY_GOLDEN", REPLAY_GOLDEN, lambda key: replay_digest(trace_by_name[key[0]], key[1]))
    print_table("ACC_SCORES_GOLDEN", ACC_SCORES_GOLDEN, lambda key: h2o_run_digest(trace_by_name, *key))
    with tempfile.TemporaryDirectory() as directory:
        digests = directory_digests(Path(directory))
    print_table("DIRECTORY_GOLDEN", digests, digests.get)


if __name__ == "__main__":
    main()
