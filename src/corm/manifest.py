"""Experiment manifests: everything a run needs, with no implicit entropy.

A manifest is a JSON object naming the model config, the policy list, the
input source, seeds, and output locations. Relative paths are resolved
against the manifest file's directory as the command line names it, so they
stay relative when it is named by a relative path; command-line overrides
are resolved against the working directory. A merged manifest therefore
names paths as flags do, and no run's settings depend on where it was made.
Every referenced file must exist and every seed is explicit, so a manifest
pins a run completely.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .schema import from_json, to_json
from .trace import DEFAULT_BYTE_CAP

__all__ = ["InputSpec", "ExperimentManifest", "load_manifest"]

_INPUT_KINDS = ("token_ids", "text_bytes", "synthetic")

@dataclass
class InputSpec:
    """Token source: a file of ids, raw bytes, or a seeded synthetic sequence."""

    kind: str
    path: str | None = None
    seed: int | None = None
    length: int | None = None

    def validate(self) -> None:
        if self.kind not in _INPUT_KINDS:
            raise ValueError(f"input kind must be one of {_INPUT_KINDS}, got {self.kind!r}")
        if self.kind == "synthetic":
            if self.seed is None or self.length is None or self.length < 1:
                raise ValueError("synthetic input needs an explicit seed and a length >= 1")
            if self.seed < 0:
                raise ValueError(f"synthetic input seed must be >= 0, got {self.seed}")
        elif self.path is None:
            raise ValueError(f"input kind {self.kind!r} needs a path")

    def load(self, vocab_size: int) -> np.ndarray:
        """Materialize the token sequence, validating ids against the vocabulary."""
        self.validate()
        if self.kind == "synthetic":
            rng = np.random.Generator(np.random.PCG64(self.seed))
            return rng.integers(0, vocab_size, size=self.length, dtype=np.int64)
        if self.kind == "text_bytes":
            if vocab_size < 256:
                raise ValueError(f"byte inputs need vocab_size >= 256, got {vocab_size}")
            with open(self.path, "rb") as fh:
                data = fh.read()
            if not data:
                raise ValueError(f"input file {self.path} is empty")
            return np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        with open(self.path, "r", encoding="utf-8") as fh:
            parts = fh.read().split()
        if not parts:
            raise ValueError(f"input file {self.path} is empty")
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"input file {self.path} must hold whitespace-separated ints") from None
        # checked as Python ints, so an id beyond int64 is reported, not overflowed
        for i, tok in enumerate(ids):
            if not 0 <= tok < vocab_size:
                raise ValueError(f"token {tok} at index {i} outside vocabulary of {vocab_size}")
        return np.array(ids, dtype=np.int64)

    @classmethod
    def from_dict(cls, d: dict) -> "InputSpec":
        if "kind" not in d:  # its own message: the one field an input cannot go without
            raise ValueError(f"manifest input needs a kind, one of {', '.join(_INPUT_KINDS)}")
        return from_json(cls, d, "manifest input")


@dataclass
class ExperimentManifest:
    """One experiment's full recipe; each field is one JSON setting (`corm.schema`)."""

    model_config: str | None = None  # path to the model config JSON
    policies: list[str] = field(default_factory=list)  # policy strings (see `corm.policies.parse_policy`)
    input: InputSpec | None = None  # token source for generate/ppl/trace
    out: str | None = None  # output directory; one subdirectory per policy
    seed: int = 0  # sampling / pair-sampling seed
    checkpoints: list[int] | None = None  # steps at which compression is reported (default: final step)
    generate_steps: int = 32  # generate_steps, sampling, top_k: generation settings
    sampling: str = "greedy"
    top_k: int = 0
    trace: str | None = None  # trace file path (output of `trace`, input of `replay`/`analyze`)
    byte_cap: int = DEFAULT_BYTE_CAP  # refuse to record traces larger than this many bytes
    recent_k: int = 8  # recent_k, overlap_pairs, max_map_steps: analyze settings
    overlap_pairs: int = 200
    max_map_steps: int = 256
    # the manifest file that states these settings as they are, if any; not a
    # constructor argument, so never a JSON field
    source_path: str | None = field(default=None, init=False)

    @classmethod
    def from_dict(cls, d: dict, base_dir: str = ".") -> "ExperimentManifest":
        m = from_json(cls, d, "manifest")
        for name in ("model_config", "trace", "out"):
            value = getattr(m, name)
            if value:  # an empty path stays empty: it names no file, so the command rejects it
                setattr(m, name, os.path.normpath(os.path.join(base_dir, value)))
        if m.input is not None and m.input.path:
            m.input.path = os.path.normpath(os.path.join(base_dir, m.input.path))
        return m

    def to_dict(self) -> dict:
        """The settings as JSON (`schema.to_json`); top_k only when nonzero, as pinned `manifest.json` bytes have it."""
        return {name: value for name, value in to_json(self).items() if name != "top_k" or value}


def load_manifest(path) -> ExperimentManifest:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    m = ExperimentManifest.from_dict(data, base_dir=os.path.dirname(path))
    m.source_path = os.fspath(path)
    return m
