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
from dataclasses import dataclass, field, fields

import numpy as np

from .schema import check_fields
from .trace import DEFAULT_BYTE_CAP

__all__ = ["InputSpec", "ExperimentManifest", "load_manifest"]

_INPUT_KINDS = ("token_ids", "text_bytes", "synthetic")

# JSON field -> (type, may be null[, list item type]), checked before any field is used
_INPUT_FIELDS = {"kind": (str, False), "path": (str, True), "seed": (int, True), "length": (int, True)}
_MANIFEST_FIELDS = {
    "model_config": (str, True),
    "policies": (list, False, str),
    "input": (dict, True),
    "out": (str, True),
    "seed": (int, False),
    "checkpoints": (list, True, int),
    "generate_steps": (int, False),
    "sampling": (str, False),
    "top_k": (int, False),
    "trace": (str, True),
    "byte_cap": (int, False),
    "recent_k": (int, False),
    "overlap_pairs": (int, False),
    "max_map_steps": (int, False),
}


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
            tokens = np.array([int(p) for p in parts], dtype=np.int64)
        except ValueError:
            raise ValueError(f"input file {self.path} must hold whitespace-separated ints") from None
        bad = np.flatnonzero((tokens < 0) | (tokens >= vocab_size))
        if bad.size:
            raise ValueError(
                f"token {tokens[bad[0]]} at index {bad[0]} outside vocabulary of {vocab_size}"
            )
        return tokens

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}


@dataclass
class ExperimentManifest:
    """One experiment's full recipe. Field meanings:

    model_config: path to the model config JSON.
    policies: policy strings (see `corm.policies.parse_policy`).
    input: token source for generate/ppl/trace.
    out: output directory; one subdirectory per policy.
    seed: sampling / pair-sampling seed.
    checkpoints: steps at which compression is reported (default: final step).
    generate_steps / sampling / top_k: generation settings.
    trace: trace file path (output of `trace`, input of `replay`/`analyze`).
    byte_cap: refuse to record traces larger than this many bytes.
    recent_k / overlap_pairs / max_map_steps: analyze settings.
    """

    model_config: str | None = None
    policies: list[str] = field(default_factory=list)
    input: InputSpec | None = None
    out: str | None = None
    seed: int = 0
    checkpoints: list[int] | None = None
    generate_steps: int = 32
    sampling: str = "greedy"
    top_k: int = 0
    trace: str | None = None
    byte_cap: int = DEFAULT_BYTE_CAP
    recent_k: int = 8
    overlap_pairs: int = 200
    max_map_steps: int = 256
    source_path: str | None = None  # manifest file that states these settings as they are, if any

    @classmethod
    def from_dict(cls, d: dict, base_dir: str = ".") -> "ExperimentManifest":
        check_fields(d, _MANIFEST_FIELDS, "manifest")
        m = cls(**{k: v for k, v in d.items() if k != "input"})
        if d.get("input") is not None:
            check_fields(d["input"], _INPUT_FIELDS, "manifest input")
            if "kind" not in d["input"]:
                raise ValueError(f"manifest input needs a kind, one of {', '.join(_INPUT_KINDS)}")
            m.input = InputSpec(**d["input"])
        for name in ("model_config", "trace", "out"):
            value = getattr(m, name)
            if value:  # an empty path stays empty: it names no file, so the command rejects it
                setattr(m, name, os.path.normpath(os.path.join(base_dir, value)))
        if m.input is not None and m.input.path:
            m.input.path = os.path.normpath(os.path.join(base_dir, m.input.path))
        return m

    def to_dict(self) -> dict:
        """The settings as JSON: unset (None) fields are left out, and top_k unless nonzero."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or f.name == "source_path" or (f.name == "top_k" and not value):
                continue
            out[f.name] = value.to_dict() if isinstance(value, InputSpec) else value
        return out


def load_manifest(path) -> ExperimentManifest:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    m = ExperimentManifest.from_dict(data, base_dir=os.path.dirname(path))
    m.source_path = os.fspath(path)
    return m
