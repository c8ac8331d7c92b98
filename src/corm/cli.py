"""Experiment runner: generate / ppl / trace / replay / analyze subcommands.

Every subcommand is deterministic given the manifest and its seeds, and the
manifest is copied into the output directory for provenance. Settings come
from a JSON manifest (--manifest) and/or flags; flags win. On any error the
command removes the files it wrote, prints the problem to stderr, and exits
nonzero.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import numpy as np

from . import analysis
from . import trace as trace_mod
from .manifest import ExperimentManifest, InputSpec, load_manifest
from .model import init_model, load_model_config
from .policies import Full, PolicyConfig, mean_compression_rate, parse_policy, policy_label
from .trace import TraceError

__all__ = ["main"]


def _parse_checkpoints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"checkpoints must be comma-separated ints, got {text!r}") from None


def _parse_synthetic(text: str) -> InputSpec:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"--synthetic expects SEED:LENGTH, got {text!r}")
    return InputSpec(kind="synthetic", seed=int(parts[0]), length=int(parts[1]))


def _merge_manifest(args: argparse.Namespace) -> ExperimentManifest:
    m = load_manifest(args.manifest) if args.manifest else ExperimentManifest()
    if getattr(args, "model_config", None):
        m.model_config = args.model_config
    if getattr(args, "policy", None):
        m.policies = list(args.policy)
    if getattr(args, "input", None):
        fmt = getattr(args, "input_format", "ids")
        kind = "token_ids" if fmt == "ids" else "text_bytes"
        m.input = InputSpec(kind=kind, path=args.input)
    if getattr(args, "synthetic", None):
        m.input = _parse_synthetic(args.synthetic)
    if getattr(args, "seed", None) is not None:
        m.seed = args.seed
    if getattr(args, "out", None):
        m.out = args.out
    if getattr(args, "checkpoints", None):
        m.checkpoints = _parse_checkpoints(args.checkpoints)
    if getattr(args, "steps", None) is not None:
        m.generate_steps = args.steps
    if getattr(args, "sampling", None):
        m.sampling = args.sampling
    if getattr(args, "top_k", None) is not None:
        m.top_k = args.top_k
    if getattr(args, "trace", None):
        m.trace = args.trace
    if getattr(args, "byte_cap", None) is not None:
        m.byte_cap = args.byte_cap
    if getattr(args, "recent_k", None) is not None:
        m.recent_k = args.recent_k
    if getattr(args, "overlap_pairs", None) is not None:
        m.overlap_pairs = args.overlap_pairs
    if getattr(args, "max_map_steps", None) is not None:
        m.max_map_steps = args.max_map_steps
    return m


def _require(m: ExperimentManifest, *names: str) -> None:
    missing = []
    for name in names:
        value = getattr(m, name)
        if value is None or (name == "policies" and not value):
            missing.append(name.replace("_", "-"))
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")
    if m.model_config is not None and not os.path.exists(m.model_config):
        raise ValueError(f"model config not found: {m.model_config}")
    if m.input is not None and m.input.path is not None and not os.path.exists(m.input.path):
        raise ValueError(f"input file not found: {m.input.path}")


def _parse_policies(m: ExperimentManifest) -> list[PolicyConfig]:
    policies = [parse_policy(p) for p in m.policies]
    labels = [policy_label(p) for p in policies]
    dupes = {lbl for lbl in labels if labels.count(lbl) > 1}
    if dupes:
        raise ValueError(f"duplicate policies: {', '.join(sorted(dupes))}")
    return policies


class _Outputs:
    """Tracks written paths so a failed command can remove partial outputs."""

    def __init__(self, root: str):
        self.root = root
        self.written: list[str] = []
        os.makedirs(root, exist_ok=True)

    def path(self, *parts: str) -> str:
        p = os.path.join(self.root, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        self.written.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.written:
            if os.path.isfile(p):
                os.remove(p)
        for p in sorted({os.path.dirname(p) for p in self.written}, reverse=True):
            if os.path.isdir(p) and not os.listdir(p) and os.path.abspath(p) != os.path.abspath(self.root):
                os.rmdir(p)


def _copy_manifest(m: ExperimentManifest, out: _Outputs) -> None:
    target = out.path("manifest.json")
    if m.source_path:
        shutil.copyfile(m.source_path, target)
    else:
        analysis.write_json(target, m.to_dict())


def _write_tokens(path, tokens) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tokens:
            fh.write(f"{int(t)}\n")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _check_checkpoints(checkpoints: list[int], total: int) -> None:
    bad = [c for c in checkpoints if not 1 <= c <= total]
    if bad:
        raise ValueError(
            f"checkpoints must lie within 1..{total} (prompt plus generated steps), "
            f"got {', '.join(str(c) for c in bad)}"
        )


def _generate_policy(model, tokens, policy, m, checkpoints, out, full_logits) -> np.ndarray:
    """Decode the prompt and generate under one policy, writing its outputs.

    Returns the prompt logits. The policy's caches are released on return,
    so only one policy's decode state is alive at a time.
    """
    label = policy_label(policy)
    curve: list[tuple[int, float]] = []
    want = set(checkpoints)

    def on_step(t, state):
        if t in want:
            curve.append((t, mean_compression_rate(state.caches, t)))

    res = model.run(tokens, policy, on_step=on_step)
    generated = model.generate(
        res.state,
        m.generate_steps,
        mode=m.sampling,
        top_k=m.top_k,
        seed=m.seed if m.sampling == "topk" else None,
        on_step=on_step,
    )
    _write_tokens(out.path(label, "tokens.txt"), generated)
    analysis.write_curve_csv(out.path(label, "compression.csv"), curve)
    if not isinstance(policy, Full):
        div = analysis.output_divergence(full_logits, res.logits)
        analysis.write_divergence_csv(out.path(label, "divergence_vs_full.csv"), div)
    return res.logits


def cmd_generate(m: ExperimentManifest) -> int:
    _require(m, "model_config", "policies", "input", "out")
    if m.generate_steps < 0:
        raise ValueError(f"generate steps must be >= 0, got {m.generate_steps}")
    if m.sampling not in ("greedy", "topk"):
        raise ValueError(f"sampling must be greedy or topk, got {m.sampling!r}")
    model = init_model(load_model_config(m.model_config))
    tokens = m.input.load(model.config.vocab_size)
    policies = _parse_policies(m)
    total = int(tokens.size) + m.generate_steps
    checkpoints = sorted(m.checkpoints) if m.checkpoints else [total]
    _check_checkpoints(checkpoints, total)
    out = _Outputs(m.out)
    try:
        _copy_manifest(m, out)
        # The full policy's prompt logits are the divergence reference: decode
        # it first and reuse them, or decode the reference alone when absent.
        full = next((p for p in policies if isinstance(p, Full)), None)
        full_logits = None if full is not None else model.run(tokens, Full()).logits
        for policy in sorted(policies, key=lambda p: p is not full):
            logits = _generate_policy(model, tokens, policy, m, checkpoints, out, full_logits)
            if policy is full:
                full_logits = logits
        return 0
    except BaseException:
        out.cleanup()
        raise


def cmd_ppl(m: ExperimentManifest) -> int:
    _require(m, "model_config", "policies", "input", "out")
    model = init_model(load_model_config(m.model_config))
    tokens = m.input.load(model.config.vocab_size)
    policies = _parse_policies(m)
    out = _Outputs(m.out)
    try:
        _copy_manifest(m, out)
        with open(out.path("perplexity.csv"), "w", encoding="utf-8") as fh:
            fh.write("policy,perplexity\n")
            for policy in policies:
                ppl = model.perplexity(tokens, policy)
                fh.write(f"{policy_label(policy)},{repr(float(ppl))}\n")
        return 0
    except BaseException:
        out.cleanup()
        raise


def cmd_trace(m: ExperimentManifest) -> int:
    _require(m, "model_config", "input")
    if m.trace is None and m.out is None:
        raise ValueError("trace needs --trace PATH or --out DIR")
    model = init_model(load_model_config(m.model_config))
    tokens = m.input.load(model.config.vocab_size)
    rec = trace_mod.record(model, tokens, byte_cap=m.byte_cap)
    written: list[str] = []
    try:
        if m.out is not None:
            out = _Outputs(m.out)
            _copy_manifest(m, out)
            written = out.written
            target = m.trace if m.trace is not None else out.path("trace.bin")
        else:
            target = m.trace
        written.append(target)
        trace_mod.save(rec, target)
        return 0
    except BaseException:
        for p in written:
            if os.path.isfile(p):
                os.remove(p)
        raise


def cmd_replay(m: ExperimentManifest) -> int:
    _require(m, "trace", "policies", "out")
    if not os.path.exists(m.trace):
        raise ValueError(f"trace file not found: {m.trace}")
    rec = trace_mod.load(m.trace)
    policies = _parse_policies(m)
    out = _Outputs(m.out)
    try:
        _copy_manifest(m, out)
        summary_rows = []
        for policy in policies:
            label = policy_label(policy)
            result = trace_mod.replay_policy(rec, policy)
            curve = list(enumerate(result.compression, start=1))
            analysis.write_curve_csv(out.path(label, "compression.csv"), curve)
            summary_rows.append(
                (label, float(result.compression[-1]), float(result.compression.mean()))
            )
        with open(out.path("comparison.csv"), "w", encoding="utf-8") as fh:
            fh.write("policy,final_compression,mean_compression\n")
            for label, final, mean in summary_rows:
                fh.write(f"{label},{repr(final)},{repr(mean)}\n")
        return 0
    except BaseException:
        out.cleanup()
        raise


def cmd_analyze(m: ExperimentManifest) -> int:
    _require(m, "trace", "out")
    if not os.path.exists(m.trace):
        raise ValueError(f"trace file not found: {m.trace}")
    rec = trace_mod.load(m.trace)
    meta = rec.meta
    out = _Outputs(m.out)
    try:
        _copy_manifest(m, out)
        profile = analysis.sparsity_profile(rec)
        analysis.write_sparsity_csv(out.path("sparsity.csv"), profile)
        fraction_rows = []
        overlap_rows = []
        spearman: dict[str, float] = {}
        for li in range(meta.n_layers):
            for hd in range(meta.n_heads):
                sim = analysis.query_similarity_map(rec, li, hd)
                frac = analysis.recent_similarity_fraction(sim, m.recent_k)
                fraction_rows.append((li, hd, m.recent_k, frac))
                capped = sim[: m.max_map_steps, : m.max_map_steps]
                analysis.write_similarity_csv(out.path(f"similarity_l{li}_h{hd}.csv"), capped)
                cos, jac = analysis.overlap_similarity_samples(
                    rec, li, hd, m.overlap_pairs, seed=m.seed
                )
                overlap_rows.extend((li, hd, c, j) for c, j in zip(cos, jac))
                spearman[f"l{li}_h{hd}"] = analysis.spearman_rank_correlation(cos, jac)
        analysis.write_recent_fraction_csv(out.path("recent_fraction.csv"), fraction_rows)
        analysis.write_overlap_csv(out.path("overlap.csv"), overlap_rows)
        fracs = [row[3] for row in fraction_rows]
        analysis.write_json(
            out.path("summary.json"),
            {
                "trace": {
                    "n_layers": meta.n_layers,
                    "n_heads": meta.n_heads,
                    "n_steps": rec.n_steps,
                    "pe_kind": meta.pe_kind,
                    "seed": meta.seed,
                },
                "important_fraction_per_layer": [float(x) for x in profile.per_layer],
                "recent_k": m.recent_k,
                "mean_recent_fraction": float(np.mean(fracs)),
                "overlap_spearman_per_head": {
                    k: (None if np.isnan(v) else float(v)) for k, v in spearman.items()
                },
            },
        )
        return 0
    except BaseException:
        out.cleanup()
        raise


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, model=False, policies=False, inputs=False,
                outdir=False, tracef=False) -> None:
    p.add_argument("--manifest", help="JSON manifest; flags override its fields")
    if model:
        p.add_argument("--model-config", dest="model_config", help="model config JSON")
    if policies:
        p.add_argument(
            "--policy", action="append",
            help="policy string like corm:256+256 or h2o:768+256 (repeatable)",
        )
    if inputs:
        p.add_argument("--input", help="input token file")
        p.add_argument("--input-format", dest="input_format", choices=("ids", "bytes"),
                       default="ids", help="ids: whitespace-separated ints; bytes: raw bytes")
        p.add_argument("--synthetic", help="seeded random input, SEED:LENGTH")
    if outdir:
        p.add_argument("--out", help="output directory")
    if tracef:
        p.add_argument("--trace", help="trace file path")
    p.add_argument("--seed", type=int, help="sampling seed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="corm",
        description="KV-cache eviction experiments on a deterministic toy transformer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate tokens under each policy")
    _add_common(p, model=True, policies=True, inputs=True, outdir=True)
    p.add_argument("--steps", type=int, help="tokens to generate after the prompt")
    p.add_argument("--sampling", choices=("greedy", "topk"))
    p.add_argument("--top-k", dest="top_k", type=int, help="candidates for topk sampling")
    p.add_argument("--checkpoints", help="comma-separated steps for compression reporting")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ppl", help="teacher-forced perplexity under each policy")
    _add_common(p, model=True, policies=True, inputs=True, outdir=True)
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("trace", help="record a full-cache attention trace")
    _add_common(p, model=True, inputs=True, outdir=True, tracef=True)
    p.add_argument("--byte-cap", dest="byte_cap", type=int, help="refuse larger traces")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("replay", help="replay policies against a saved trace")
    _add_common(p, policies=True, outdir=True, tracef=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("analyze", help="sparsity/similarity/overlap reports from a trace")
    _add_common(p, outdir=True, tracef=True)
    p.add_argument("--recent-k", dest="recent_k", type=int, help="recency window for argmax fraction")
    p.add_argument("--overlap-pairs", dest="overlap_pairs", type=int, help="sampled pairs per head")
    p.add_argument("--max-map-steps", dest="max_map_steps", type=int,
                   help="cap on written similarity-map size")
    p.set_defaults(func=cmd_analyze)

    args = parser.parse_args(argv)
    try:
        m = _merge_manifest(args)
        return args.func(m)
    except (ValueError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
