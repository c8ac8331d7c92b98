"""Seed-independent correctness checks of one workload iteration's outputs.

Each operation -- one policy's output of ``generate`` or ``replay``, or one
``trace`` / ``analyze`` command -- gets a verdict and a SHA-256 digest of the
files it wrote. Nothing here runs inside a timed section. References:

* ``full`` prompt logits against ``ToyTransformer.forward_full_sequence``
  (the batched oracle) within the 1e-5 the tests use, and the greedy tokens
  against the oracle's argmax wherever the top two logits are apart;
* budgeted policies' final compression against the closed form
  1 - budget/T;
* the replayed ``corm`` compression curve against this file's own copy of
  the brute-force kept-set characterization;
* the trace file's size against ``trace_byte_size`` and ``trace.load``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from corm import trace as trace_mod
from corm.manifest import ExperimentManifest
from corm.model import ModelConfig, init_model
from workloads import RECENT_K, TRACE_FILE, Workload

LOGIT_TOL = 1e-5  # matches the forward-pass equivalence tests
RATE_TOL = 1e-12  # compression is a mean of equal terms, so only rounding differs
TIE_MARGIN = 1e-9  # greedy positions closer than this are not checked


@dataclass
class Op:
    name: str
    ok: bool
    detail: str
    digest: str


def digest_files(paths) -> str:
    """SHA-256 over (relative name, bytes) of every file, in sorted order."""
    h = hashlib.sha256()
    for rel, path in sorted(paths):
        h.update(rel.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def digest_ops(ops) -> str:
    """SHA-256 over the sorted (operation, digest) pairs: one workload's outputs."""
    h = hashlib.sha256()
    for op in sorted(ops, key=lambda o: o.name):
        h.update(f"{op.name}\0{op.digest}\0".encode())
    return h.hexdigest()


def tree_files(root: str, base: str) -> list[tuple[str, str]]:
    """(path relative to `base`, path) for every file under `root`, minus manifests.

    manifest.json is left out: it names the output directory, which differs
    between checkouts.
    """
    out = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name != "manifest.json":
                path = os.path.join(dirpath, name)
                out.append((os.path.relpath(path, base), path))
    return out


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _curve(path: str) -> list[tuple[int, float]]:
    lines = _read_lines(path)
    if lines[0] != "step,compression_rate":
        raise ValueError(f"bad header {lines[0]!r}")
    return [(int(s), float(r)) for s, r in (ln.split(",") for ln in lines[1:])]


def corm_replay_curve(rows, w: int, r: int) -> list[str]:
    """Compression rows ``corm:w+r`` replay must write, from set algebra alone.

    Per (layer, head): an entry is flagged at step t when its recorded score
    is at least 1/t and it is still cached; once w flag sets exist, the cache
    keeps the entries flagged in any of the last w sets plus the last r
    positions, and an evicted entry never returns.
    """
    n_layers, n_heads = rows[0].shape[:2]
    n_steps = len(rows)
    kept_total = [0] * n_steps
    for li in range(n_layers):
        for hd in range(n_heads):
            alive = np.zeros(n_steps, dtype=bool)  # index p-1 for position p
            flags: deque = deque(maxlen=w)
            for t in range(1, n_steps + 1):
                alive[t - 1] = True
                flag = np.zeros(n_steps, dtype=bool)
                flag[:t] = alive[:t] & (rows[t - 1][li, hd].astype(np.float64) >= 1.0 / t)
                flags.append(flag)
                if t >= w:
                    keep = np.logical_or.reduce(list(flags))
                    keep[max(0, t - r) : t] = True
                    alive &= keep
                kept_total[t - 1] += int(alive.sum())
    groups = n_layers * n_heads
    return [f"{t},{1.0 - kept_total[t - 1] / (groups * t)!r}" for t in range(1, n_steps + 1)]


class Checker:
    """Verdicts for one workload and seed; oracle results are computed once."""

    def __init__(self, w: Workload):
        self.w = w
        self.model = init_model(ModelConfig.from_dict(w.model))
        self._oracle: dict[bytes, np.ndarray] = {}
        self._replay_expect: dict[str, list[str]] = {}  # trace digest -> corm curve rows

    def _forward(self, tokens: np.ndarray) -> np.ndarray:
        key = tokens.tobytes()
        if key not in self._oracle:
            self._oracle[key] = self.model.forward_full_sequence(tokens)
        return self._oracle[key]

    def check(self, itdir: str, captured: dict) -> list[Op]:
        if self.w.decodes:
            return self._check_generate(itdir, captured)
        return self._check_pipeline(itdir)

    # -- generate ----------------------------------------------------------

    def _check_generate(self, itdir: str, captured: dict) -> list[Op]:
        w = self.w
        out = os.path.join(itdir, "generate")
        ops = []
        for p in w.policies:
            pdir = os.path.join(out, p.label)
            try:
                files = tree_files(pdir, out)
                detail = self._check_policy_output(pdir, p, captured)
                ops.append(Op(f"generate/{p.label}", detail is None, detail or "", digest_files(files)))
            except (OSError, ValueError, IndexError, KeyError) as exc:
                ops.append(Op(f"generate/{p.label}", False, f"{type(exc).__name__}: {exc}", ""))
        return ops

    def _check_policy_output(self, pdir: str, p, captured: dict) -> str | None:
        w = self.w
        vocab = w.model["vocab_size"]
        tokens = np.array([int(x) for x in _read_lines(os.path.join(pdir, "tokens.txt"))])
        if tokens.size != w.steps or tokens.min() < 0 or tokens.max() >= vocab:
            return f"tokens.txt holds {tokens.size} ids, expected {w.steps} within the vocabulary"
        curve = _curve(os.path.join(pdir, "compression.csv"))
        if [t for t, _ in curve] != [w.total]:
            return f"compression.csv steps {[t for t, _ in curve]}, expected [{w.total}]"
        rate = curve[-1][1]
        if p.key == "full":
            if rate != 0.0:
                return f"full cache reports compression {rate!r}"
            return self._check_full(tokens, captured)
        div = _read_lines(os.path.join(pdir, "divergence_vs_full.csv"))
        if div[0] != "step,top1_match,kl" or len(div) != w.prompt + 1:
            return f"divergence_vs_full.csv has {len(div) - 1} rows, expected {w.prompt}"
        for line in div[1:]:
            _, match, kl = line.split(",")
            if match not in ("0", "1") or not (math.isfinite(float(kl)) and float(kl) >= 0.0):
                return f"bad divergence row {line!r}"
        if p.budget is not None:
            expect = 1.0 - p.budget / w.total
            if abs(rate - expect) > RATE_TOL:
                return f"final compression {rate!r}, closed form 1-{p.budget}/{w.total} = {expect!r}"
        elif not 0.0 <= rate < 1.0:
            return f"compression {rate!r} outside [0, 1)"
        return None

    def _check_full(self, generated: np.ndarray, captured: dict) -> str | None:
        runs = captured.get("full_runs", [])
        if not runs:
            return "no full-cache run was captured"
        prompt = runs[0][0]
        ref = self._forward(prompt)
        for tokens, logits in runs:
            if not np.array_equal(tokens, prompt):
                return "full-cache runs saw different prompts"
            err = float(np.max(np.abs(logits - ref)))
            if not err <= LOGIT_TOL:
                return f"prompt logits differ from forward_full_sequence by {err:.3e}"
        seq = np.concatenate([prompt, generated])
        oracle = self._forward(seq[:-1])[prompt.size - 1 :]
        top2 = np.sort(oracle, axis=1)[:, -2:]
        decided = (top2[:, 1] - top2[:, 0]) > TIE_MARGIN
        wrong = np.flatnonzero(decided & (np.argmax(oracle, axis=1) != generated))
        if wrong.size:
            return f"greedy token {wrong[0] + 1} is not the oracle's argmax"
        return None

    # -- trace / replay / analyze ------------------------------------------

    def _check_pipeline(self, itdir: str) -> list[Op]:
        w = self.w
        path = os.path.join(itdir, TRACE_FILE)
        rec = None
        try:
            digest = digest_files([(TRACE_FILE, path)])
            cfg = ModelConfig.from_dict(w.model)
            size = os.path.getsize(path)
            expect = trace_mod.trace_byte_size(cfg.n_layers, cfg.n_heads, cfg.d_h, w.prompt)
            rec = trace_mod.load(path)
            if size != expect:
                ops = [Op("trace", False, f"trace is {size} bytes, trace_byte_size gives {expect}", digest)]
            elif rec.n_steps != w.prompt:
                ops = [Op("trace", False, f"trace holds {rec.n_steps} steps, expected {w.prompt}", digest)]
            else:
                ops = [Op("trace", True, "", digest)]
        except (OSError, trace_mod.TraceError) as exc:
            ops = [Op("trace", False, f"{type(exc).__name__}: {exc}", "")]
        ops += self._check_replay(os.path.join(itdir, "replay"), rec, ops[0].digest)
        ops.append(self._check_analyze(os.path.join(itdir, "analyze"), rec))
        return ops

    def _expected_corm_curve(self, p, rec, trace_digest: str) -> list[str]:
        if trace_digest not in self._replay_expect:
            w, r = (int(x) for x in p.spec.split(":")[1].split("+"))
            self._replay_expect[trace_digest] = corm_replay_curve(rec.rows, w, r)
        return self._replay_expect[trace_digest]

    def _check_replay(self, out: str, rec, trace_digest: str) -> list[Op]:
        w = self.w
        ops = []
        try:
            summary = {
                ln.split(",")[0]: ln.split(",")[1:]
                for ln in _read_lines(os.path.join(out, "comparison.csv"))[1:]
            }
        except OSError:
            summary = {}
        for p in w.policies:
            pdir = os.path.join(out, p.label)
            try:
                files = tree_files(pdir, out)
                detail = self._check_replayed(pdir, p, rec, trace_digest, summary)
                ops.append(Op(f"replay/{p.label}", detail is None, detail or "", digest_files(files)))
            except (OSError, ValueError, IndexError, KeyError) as exc:
                ops.append(Op(f"replay/{p.label}", False, f"{type(exc).__name__}: {exc}", ""))
        return ops

    def _check_replayed(self, pdir, p, rec, trace_digest, summary) -> str | None:
        n = self.w.prompt
        lines = _read_lines(os.path.join(pdir, "compression.csv"))
        curve = _curve(os.path.join(pdir, "compression.csv"))
        if [t for t, _ in curve] != list(range(1, n + 1)):
            return f"compression.csv does not list steps 1..{n}"
        final, mean = curve[-1][1], float(np.mean([x for _, x in curve]))
        row = summary.get(p.label)
        if row is None or float(row[0]) != final or abs(float(row[1]) - mean) > RATE_TOL:
            return f"comparison.csv row {row} does not match the curve ({final!r}, {mean!r})"
        if p.budget is not None:
            expect = 1.0 - p.budget / n
            if abs(final - expect) > RATE_TOL:
                return f"final compression {final!r}, closed form 1-{p.budget}/{n} = {expect!r}"
        if p.key == "corm":
            if rec is None:
                return "no loadable trace to check the replay against"
            expect_lines = self._expected_corm_curve(p, rec, trace_digest)
            if lines[1:] != expect_lines:
                bad = next(i for i, (a, b) in enumerate(zip(lines[1:], expect_lines)) if a != b)
                return f"step {bad + 1}: wrote {lines[bad + 1]!r}, brute force gives {expect_lines[bad]!r}"
        return None

    def _check_analyze(self, out: str, rec) -> Op:
        try:
            files = tree_files(out, out)
            detail = self._check_analysis(out, rec)
            return Op("analyze", detail is None, detail or "", digest_files(files))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return Op("analyze", False, f"{type(exc).__name__}: {exc}", "")

    def _check_analysis(self, out: str, rec) -> str | None:
        if rec is None:
            return "no loadable trace to check the analysis against"
        cfg = ModelConfig.from_dict(self.w.model)
        heads = [(li, hd) for li in range(cfg.n_layers) for hd in range(cfg.n_heads)]
        sparsity = _read_lines(os.path.join(out, "sparsity.csv"))[1:]
        if len(sparsity) != len(heads):
            return f"sparsity.csv has {len(sparsity)} rows for {len(heads)} heads"
        for line, (li, hd) in zip(sparsity, heads):
            frac = float(line.split(",")[2])
            own = float(np.mean([np.mean(rows[li, hd].astype(np.float64) >= 1.0 / t)
                                 for t, rows in enumerate(rec.rows, start=1)]))
            if abs(frac - own) > RATE_TOL:
                return f"head ({li}, {hd}) important fraction {frac!r}, recomputed {own!r}"
        recent = _read_lines(os.path.join(out, "recent_fraction.csv"))[1:]
        if len(recent) != len(heads) or any(
            ln.split(",")[2] != str(RECENT_K) or not 0.0 <= float(ln.split(",")[3]) <= 1.0
            for ln in recent
        ):
            return "recent_fraction.csv rows do not cover every head with k=8 and a fraction"
        for li, hd in heads:
            sim = _read_lines(os.path.join(out, f"similarity_l{li}_h{hd}.csv"))
            if len(sim) != min(ExperimentManifest().max_map_steps, self.w.prompt):
                return f"similarity_l{li}_h{hd}.csv has {len(sim)} rows"
        with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary["trace"]["n_steps"] != self.w.prompt or summary["recent_k"] != RECENT_K:
            return "summary.json does not describe the analysed trace"
        return None
