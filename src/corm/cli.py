"""Experiment runner: generate / ppl / trace / replay / analyze subcommands.

Every subcommand is deterministic given the manifest and its seeds. Settings
come from a JSON manifest (--manifest) and/or flags; flags win. The manifest
file is copied into the output directory for provenance, or the merged
settings in canonical form when flags changed any of them. On any error the
command removes the files it wrote, prints the problem to stderr, and exits
nonzero.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import fields

import numpy as np

from . import analysis
from . import trace as trace_mod
from .manifest import ExperimentManifest, InputSpec, load_manifest
from .model import SAMPLING_MODES, init_model, load_model_config
from .policies import Full, Policy, mean_compression_rate, parse_policy
from .trace import TraceError

__all__ = ["main"]


def _parse_checkpoints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"checkpoints must be comma-separated ints, got {text!r}") from None


def _parse_synthetic(text: str) -> InputSpec:
    try:
        seed, length = (int(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"--synthetic expects SEED:LENGTH integers, got {text!r}") from None
    return InputSpec(kind="synthetic", seed=seed, length=length)


def _input_flag(args: argparse.Namespace) -> InputSpec | None:
    """The input --synthetic names, else the one --input and --input-format name, else None."""
    if getattr(args, "synthetic", None):
        return _parse_synthetic(args.synthetic)
    if getattr(args, "input", None):
        return InputSpec(kind="token_ids" if args.input_format == "ids" else "text_bytes", path=args.input)
    return None


def _merge_manifest(args: argparse.Namespace) -> ExperimentManifest:
    """The --manifest file's settings, each overridden by the given flag whose dest names it."""
    m = load_manifest(args.manifest) if args.manifest else ExperimentManifest()
    loaded = m.to_dict()
    given = vars(args) | {
        "input": _input_flag(args),
        "checkpoints": _parse_checkpoints(args.checkpoints) if getattr(args, "checkpoints", None) else None,
    }
    for f in fields(m):
        if given.get(f.name) is not None:
            setattr(m, f.name, given[f.name])
    if m.to_dict() != loaded:
        m.source_path = None  # flags changed the file's settings: the run directory states the merged ones
    if m.seed < 0:
        raise ValueError(f"seed must be >= 0, got {m.seed}")
    return m


def _require(m: ExperimentManifest, *names: str) -> None:
    """Fail unless each named setting is set (not None or empty) and each file it reads exists."""
    missing = [name.replace("_", "-") for name in names if not getattr(m, name)]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")
    if m.model_config is not None and not os.path.exists(m.model_config):
        raise ValueError(f"model config not found: {m.model_config}")
    reads_file = m.input is not None and m.input.kind != "synthetic" and m.input.path is not None
    if reads_file and not os.path.exists(m.input.path):
        raise ValueError(f"input file not found: {m.input.path}")
    if "trace" in names and not os.path.exists(m.trace):
        raise ValueError(f"trace file not found: {m.trace}")


def _parse_policies(m: ExperimentManifest) -> list[Policy]:
    policies = [parse_policy(p) for p in m.policies]
    labels = [p.label for p in policies]
    dupes = {lbl for lbl in labels if labels.count(lbl) > 1}
    if dupes:
        raise ValueError(f"duplicate policies: {', '.join(sorted(dupes))}")
    return policies


class _Outputs:
    """Paths a command writes, removed again if the command fails.

    `with _Outputs(root) as out:` creates `root` (None: no output directory)
    and hands out paths with `path` (under root) and `track` (anywhere).
    Leaving the block by an exception removes every such file, then every
    directory this command created, `root` included; a directory that
    existed before the command is kept.
    """

    def __init__(self, root: str | None):
        self.root = root
        self.files: list[str] = []
        self.made: list[str] = []  # directories created here, parents first

    def __enter__(self) -> _Outputs:
        if self.root is not None:
            self._makedirs(self.root)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            return
        for p in self.files:
            if os.path.isfile(p):
                os.remove(p)
        for d in reversed(self.made):
            if os.path.isdir(d) and not os.listdir(d):
                os.rmdir(d)

    def _makedirs(self, d: str) -> None:
        missing = []
        while d and not os.path.isdir(d):
            missing.append(d)
            d = os.path.dirname(d)
        for new in reversed(missing):
            os.mkdir(new)
            self.made.append(new)

    def path(self, *parts: str) -> str:
        p = os.path.join(self.root, *parts)
        self._makedirs(os.path.dirname(p))
        return self.track(p)

    def track(self, p: str) -> str:
        self.files.append(p)
        return p


def _copy_manifest(m: ExperimentManifest, out: _Outputs) -> None:
    target = out.path("manifest.json")
    if m.source_path:
        shutil.copyfile(m.source_path, target)
    else:
        analysis.write_json(target, m.to_dict())


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
    label = policy.label
    res = model.run(tokens, policy)
    generated = model.generate(
        res.state,
        m.generate_steps,
        mode=m.sampling,
        top_k=m.top_k,
        seed=m.seed if m.sampling == "topk" else None,
    )
    sizes = res.state.step_sizes
    curve = [(t, mean_compression_rate(sizes[t - 1], t)) for t in sorted(set(checkpoints))]
    analysis.write_csv(out.path(label, "tokens.txt"), [[t] for t in generated.tolist()])
    analysis.write_csv(out.path(label, "compression.csv"), [("step", "compression_rate"), *curve])
    if policy != Full():
        div = analysis.output_divergence(full_logits, res.logits)
        rows = zip(range(1, div.kl.size + 1), div.top1_match.astype(int).tolist(), div.kl.tolist())
        analysis.write_csv(out.path(label, "divergence_vs_full.csv"), [("step", "top1_match", "kl"), *rows])
    return res.logits


def cmd_generate(m: ExperimentManifest) -> int:
    _require(m, "model_config", "policies", "input", "out")
    if m.generate_steps < 0:
        raise ValueError(f"generate steps must be >= 0, got {m.generate_steps}")
    if m.sampling not in SAMPLING_MODES:
        raise ValueError(f"sampling must be greedy or topk, got {m.sampling!r}")
    if m.top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {m.top_k}")
    model = init_model(load_model_config(m.model_config))
    tokens = m.input.load(model.config.vocab_size)
    policies = _parse_policies(m)
    total = int(tokens.size) + m.generate_steps
    checkpoints = sorted(m.checkpoints) if m.checkpoints else [total]
    _check_checkpoints(checkpoints, total)
    with _Outputs(m.out) as out:
        _copy_manifest(m, out)
        # The full policy's prompt logits are the divergence reference: decode
        # it first and reuse them, or decode the reference alone when absent.
        full = next((p for p in policies if p == Full()), None)
        full_logits = None if full is not None else model.run(tokens, Full()).logits
        for policy in sorted(policies, key=lambda p: p is not full):
            logits = _generate_policy(model, tokens, policy, m, checkpoints, out, full_logits)
            if policy is full:
                full_logits = logits
    return 0


def cmd_ppl(m: ExperimentManifest) -> int:
    _require(m, "model_config", "policies", "input", "out")
    model = init_model(load_model_config(m.model_config))
    tokens = m.input.load(model.config.vocab_size)
    policies = _parse_policies(m)
    with _Outputs(m.out) as out:
        _copy_manifest(m, out)
        rows = [(p.label, model.perplexity(tokens, p)) for p in policies]
        analysis.write_csv(out.path("perplexity.csv"), [("policy", "perplexity"), *rows])
    return 0


def cmd_trace(m: ExperimentManifest) -> int:
    _require(m, "model_config", "input")
    if not (m.trace or m.out):  # as in _require, an empty path is a missing one
        raise ValueError("trace needs --trace PATH or --out DIR")
    model = init_model(load_model_config(m.model_config))
    tokens = m.input.load(model.config.vocab_size)
    rec = trace_mod.record(model, tokens, byte_cap=m.byte_cap)
    with _Outputs(m.out or None) as out:
        if m.out:
            _copy_manifest(m, out)
        trace_mod.save(rec, out.track(m.trace) if m.trace else out.path("trace.bin"))
    return 0


def cmd_replay(m: ExperimentManifest) -> int:
    _require(m, "trace", "policies", "out")
    rec = trace_mod.load(m.trace)
    policies = _parse_policies(m)
    with _Outputs(m.out) as out:
        _copy_manifest(m, out)
        summary_rows = [("policy", "final_compression", "mean_compression")]
        for policy in policies:
            label = policy.label
            rates = trace_mod.replay_policy(rec, policy).compression
            curve = enumerate(rates.tolist(), start=1)
            analysis.write_csv(out.path(label, "compression.csv"), [("step", "compression_rate"), *curve])
            summary_rows.append((label, float(rates[-1]), float(rates.mean())))
        analysis.write_csv(out.path("comparison.csv"), summary_rows)
    return 0


def cmd_analyze(m: ExperimentManifest) -> int:
    _require(m, "trace", "out")
    for name, least in (("max_map_steps", 1), ("recent_k", 1), ("overlap_pairs", 2)):
        if getattr(m, name) < least:
            raise ValueError(f"{name.replace('_', '-')} must be >= {least}, got {getattr(m, name)}")
    rec = trace_mod.load(m.trace)
    meta = rec.meta
    with _Outputs(m.out) as out:
        _copy_manifest(m, out)
        profile = analysis.sparsity_profile(rec)
        rows = [(li, hd, f, 1.0 - f) for li, row in enumerate(profile.per_head.tolist()) for hd, f in enumerate(row)]
        analysis.write_csv(out.path("sparsity.csv"), [("layer", "head", "important_fraction", "sparsity"), *rows])
        fraction_rows = [("layer", "head", "k", "recent_fraction")]
        overlap_rows = [("layer", "head", "query_cosine", "jaccard")]
        spearman: dict[str, float] = {}
        for li in range(meta.n_layers):
            for hd in range(meta.n_heads):
                sim = analysis.query_similarity_map(rec, li, hd)
                frac = analysis.recent_similarity_fraction(sim, m.recent_k)
                fraction_rows.append((li, hd, m.recent_k, frac))
                capped = sim[: m.max_map_steps, : m.max_map_steps]
                analysis.write_similarity_csv(out.path(f"similarity_l{li}_h{hd}.csv"), capped)
                del sim, capped  # so the next head's map is built after this one is freed, not beside it
                cos, jac = analysis.overlap_similarity_samples(
                    rec, li, hd, m.overlap_pairs, seed=m.seed
                )
                overlap_rows.extend((li, hd, c, j) for c, j in zip(cos.tolist(), jac.tolist()))
                spearman[f"l{li}_h{hd}"] = analysis.spearman_rank_correlation(cos, jac)
        analysis.write_csv(out.path("recent_fraction.csv"), fraction_rows)
        analysis.write_csv(out.path("overlap.csv"), overlap_rows)
        fracs = [row[3] for row in fraction_rows[1:]]
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


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, model=False, policies=False, inputs=False,
                outdir=False, tracef=False) -> None:
    p.add_argument("--manifest", help="JSON manifest; flags override its fields")
    if model:
        p.add_argument("--model-config", help="model config JSON")
    if policies:
        p.add_argument("--policy", dest="policies", metavar="POLICY", action="append",
                       help="policy string like corm:256+256 or h2o:768+256 (repeatable)")
    if inputs:
        p.add_argument("--input", help="input token file")
        p.add_argument("--input-format", choices=("ids", "bytes"), default="ids",
                       help="ids: whitespace-separated ints; bytes: raw bytes")
        p.add_argument("--synthetic", help="seeded random input, SEED:LENGTH")
    if outdir:
        p.add_argument("--out", help="output directory")
    if tracef:
        p.add_argument("--trace", help="trace file path")
    p.add_argument("--seed", type=int, help="sampling seed")


def _parser() -> argparse.ArgumentParser:
    """The `corm` command line; each flag's dest is the manifest field it sets (see `_merge_manifest`)."""
    parser = argparse.ArgumentParser(
        prog="corm",
        description="KV-cache eviction experiments on a deterministic toy transformer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate tokens under each policy")
    _add_common(p, model=True, policies=True, inputs=True, outdir=True)
    p.add_argument("--steps", dest="generate_steps", metavar="STEPS", type=int,
                   help="tokens to generate after the prompt")
    p.add_argument("--sampling", choices=SAMPLING_MODES)
    p.add_argument("--top-k", type=int, help="candidates for topk sampling")
    p.add_argument("--checkpoints", help="comma-separated steps for compression reporting")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ppl", help="teacher-forced perplexity under each policy")
    _add_common(p, model=True, policies=True, inputs=True, outdir=True)
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("trace", help="record a full-cache attention trace")
    _add_common(p, model=True, inputs=True, outdir=True, tracef=True)
    p.add_argument("--byte-cap", type=int, help="refuse larger traces")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("replay", help="replay policies against a saved trace")
    _add_common(p, policies=True, outdir=True, tracef=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("analyze", help="sparsity/similarity/overlap reports from a trace")
    _add_common(p, outdir=True, tracef=True)
    p.add_argument("--recent-k", type=int, help="recency window for argmax fraction")
    p.add_argument("--overlap-pairs", type=int, help="sampled pairs per head")
    p.add_argument("--max-map-steps", type=int, help="cap on written similarity-map size")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()  # held until the command returns: freeing it sooner raised peak RSS by up to 3 MB in some runs
    args = parser.parse_args(argv)
    try:
        m = _merge_manifest(args)
        return args.func(m)
    except (ValueError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
