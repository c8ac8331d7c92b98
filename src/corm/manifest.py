"""Experiment manifests: everything a run needs, with no implicit entropy.

A manifest is a JSON object naming the model config, the policy list, the
input source, seeds, and output locations. Relative paths are resolved
against the manifest file's directory; command-line overrides are resolved
against the working directory. Every referenced file must exist and every
seed is explicit, so a manifest pins a run completely.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .trace import DEFAULT_BYTE_CAP

__all__ = ["InputSpec", "ExperimentManifest", "load_manifest"]

_INPUT_KINDS = ("token_ids", "text_bytes", "synthetic")

# JSON field -> (type, may be null), checked before any field is used
_INPUT_FIELDS = {"kind": (str, False), "path": (str, True), "seed": (int, True), "length": (int, True)}
_MANIFEST_FIELDS = {
    "model_config": (str, True),
    "policies": (list, False),
    "input": (dict, True),
    "out": (str, True),
    "seed": (int, False),
    "checkpoints": (list, True),
    "generate_steps": (int, False),
    "sampling": (str, False),
    "top_k": (int, False),
    "trace": (str, True),
    "byte_cap": (int, False),
    "recent_k": (int, False),
    "overlap_pairs": (int, False),
    "max_map_steps": (int, False),
}
_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _is(value, kind: type) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not integers here
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _check_fields(d: dict, spec: dict, where: str) -> None:
    """Reject unknown fields and values of the wrong JSON type with ValueError."""
    unknown = set(d) - set(spec)
    if unknown:
        raise ValueError(f"unknown {where} fields: {', '.join(sorted(unknown))}")
    for name, value in d.items():
        kind, nullable = spec[name]
        if not (_is(value, kind) or (nullable and value is None)):
            raise ValueError(f"{where} field {name!r} must be {_TYPE_NAMES[kind]}, got {value!r}")


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
        out = {"kind": self.kind}
        for name in ("path", "seed", "length"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


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
    source_path: str | None = None  # manifest file this was loaded from, if any

    @classmethod
    def from_dict(cls, d: dict, base_dir: str = ".") -> "ExperimentManifest":
        _check_fields(d, _MANIFEST_FIELDS, "manifest")
        for name, kind in (("policies", str), ("checkpoints", int)):
            if d.get(name) is not None and not all(_is(x, kind) for x in d[name]):
                raise ValueError(f"manifest field {name!r} must list {_TYPE_NAMES[kind]}s, got {d[name]!r}")
        m = cls(**{k: v for k, v in d.items() if k != "input"})
        if d.get("input") is not None:
            _check_fields(d["input"], _INPUT_FIELDS, "manifest input")
            m.input = InputSpec(**d["input"])
        for name in ("model_config", "trace", "out"):
            value = getattr(m, name)
            if value is not None:
                setattr(m, name, os.path.normpath(os.path.join(base_dir, value)))
        if m.input is not None and m.input.path is not None:
            m.input.path = os.path.normpath(os.path.join(base_dir, m.input.path))
        return m

    def to_dict(self) -> dict:
        out: dict = {
            "policies": list(self.policies),
            "seed": self.seed,
            "generate_steps": self.generate_steps,
            "sampling": self.sampling,
            "byte_cap": self.byte_cap,
            "recent_k": self.recent_k,
            "overlap_pairs": self.overlap_pairs,
            "max_map_steps": self.max_map_steps,
        }
        if self.model_config is not None:
            out["model_config"] = self.model_config
        if self.input is not None:
            out["input"] = self.input.to_dict()
        for name in ("out", "trace", "checkpoints"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.top_k:
            out["top_k"] = self.top_k
        return out


def load_manifest(path) -> ExperimentManifest:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"manifest {path} must be a JSON object")
    m = ExperimentManifest.from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))
    m.source_path = os.path.abspath(path)
    return m
