"""The three benchmark workloads: their models, CLI commands and inputs.

Every workload drives the public ``corm`` command line in one process, one
command after another. The benchmark seed only picks the synthetic prompt;
the model seed is fixed at 42, so a seed changes the tokens and nothing else.
Sequence lengths are half those the workloads were first specified with
(1024 + 256, 320 + 64, 1024), ratios kept, so that a 30-second run holds
enough iterations for a steady median on a noisy 2-CPU machine.
This module imports nothing heavy: the set-up probe times writing these
inputs together with the ``corm`` import.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

MODEL_SEED = 42

MHA_MODEL = {
    "n_layers": 2, "n_heads": 4, "d_model": 64, "vocab_size": 256, "seed": MODEL_SEED,
    "pe": {"kind": "rope", "base": 10000.0},
}
GQA_MODEL = {
    "n_layers": 4, "n_heads": 8, "n_kv_heads": 2, "d_model": 256, "vocab_size": 256,
    "seed": MODEL_SEED, "pe": {"kind": "absolute_sinusoidal"},
}


@dataclass(frozen=True)
class Policy:
    spec: str  # as passed to --policy
    label: str  # output directory the CLI names after it
    key: str  # metric suffix
    budget: int | None = None  # entries kept per cache once full, for budgeted policies


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    prompt: int
    policies: tuple[Policy, ...]
    steps: int = 0  # generated tokens; 0 means the trace/replay/analyze pipeline
    calibration_mix: float = 0.0  # weight of memory streaming in the speed calibration

    @property
    def decodes(self) -> bool:
        return self.steps > 0

    @property
    def total(self) -> int:
        return self.prompt + self.steps


FULL = Policy("full", "full", "full")
CORM = Policy("corm:8+8", "corm_8+8", "corm")
H2O = Policy("h2o:64+64", "h2o_64+64", "h2o", budget=128)
TOVA = Policy("tova:128", "tova_128", "tova", budget=128)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # tiny heads and long caches: per-step cache bookkeeping (append
            # copies, keep_only, the message vstack) dominates the decode
            name="decode-mha-long",
            model=MHA_MODEL,
            prompt=512,
            steps=128,
            policies=(FULL, CORM, H2O, TOVA),
        ),
        Workload(
            # 32 per-head attention calls per step over d256, short caches:
            # model and attention self time dominate, policies do little
            name="decode-gqa-wide",
            model=GQA_MODEL,
            prompt=160,
            steps=32,
            policies=(FULL, Policy("gqa_corm:8+8", "gqa_corm_8+8", "corm")),
            # ~22 MB of float64 weights, read on every step: beyond the caches
            calibration_mix=0.5,
        ),
        Workload(
            # one recorded decode, then trace I/O, mask-driven replay and
            # analysis: the only workload that runs trace and analysis
            name="trace-replay-analyze",
            model=MHA_MODEL,
            prompt=512,
            policies=(
                Policy("streaming:4+60", "streaming_4+60", "streaming", budget=64),
                H2O,
                Policy("scissorhands:64+64", "scissorhands_64+64", "scissorhands", budget=128),
                TOVA,
                CORM,
            ),
        ),
    )
}

TRACE_FILE = "run.trc"
RECENT_K = 8


def _dump(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_inputs(workdir: str, w: Workload, seed: int) -> list[tuple[str, list[str]]]:
    """Write the model config and one manifest per command into `workdir`.

    Returns (command, argv) pairs for ``corm.cli.main``. Manifest paths are
    relative, so they resolve against `workdir` wherever it lives.
    """
    os.makedirs(workdir, exist_ok=True)
    _dump(os.path.join(workdir, "model.json"), w.model)
    prompt = {"kind": "synthetic", "seed": seed, "length": w.prompt}
    if w.decodes:
        manifests = {
            "generate": {
                "model_config": "model.json",
                "policies": [p.spec for p in w.policies],
                "input": prompt,
                "out": "generate",
                "generate_steps": w.steps,
                "sampling": "greedy",
            }
        }
    else:
        manifests = {
            "trace": {"model_config": "model.json", "input": prompt, "trace": TRACE_FILE},
            "replay": {"trace": TRACE_FILE, "policies": [p.spec for p in w.policies], "out": "replay"},
            "analyze": {"trace": TRACE_FILE, "out": "analyze", "recent_k": RECENT_K},
        }
    commands = []
    for command, manifest in manifests.items():
        path = _dump(os.path.join(workdir, f"{command}.manifest.json"), manifest)
        commands.append((command, [command, "--manifest", path]))
    return commands
