"""Deterministic decoder-only toy transformer with pluggable cache eviction.

Architecture: pre-norm residual blocks with RMS normalization, multi-head (or
grouped-query) attention, a 2-layer GELU MLP, untied input/output embeddings.
Weights are drawn from a seeded PCG64 generator so the same config is
bit-identical everywhere, then rounded to float32 (the storage precision);
all activation and score math runs in float64.

Attention logits of layer l, head h are scaled by a deterministic gain
``depth_gain**l * exp(jitter_lh)``. Trained models show strong layer-to-layer
differences in attention sharpness; an IID random init has none, so the gain
ramp builds that heterogeneity in (deeper layers sharper, heads jittered).
Set depth_gain=1 and head_gain_jitter=0 for statistically uniform layers.

Prefill is strictly token-by-token: the eviction policy's update hook runs
per layer and kv head after every position, during prompt processing exactly
as during generation. Each layer keeps its kv heads' entries in one
preallocated block (see `corm.policies.KvBlock`); evicted entries are
compacted away in place, and each entry's original absolute position is
retained so rotary encoding and position-based bookkeeping stay correct
after eviction.

Attention is computed per layer in one call for each run of consecutive kv
heads whose caches hold equally many entries, with their query heads: the
whole layer under `full` or a budgeted policy at budget, each head alone
when eviction has left the heads at different lengths. Only equal lengths
are batched, never padded ones, so every head's scores come from the same
products and reductions as a single-head computation and the logits are
bit-identical to per-head attention.

Weight draw order (one generator, consumed in sequence): token embedding;
learned position table (only when configured); per layer: wq, wk, wv, wo,
w1, w2; output projection; head-gain jitter. All normal draws use scale
1/sqrt(d_model).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .attention import (
    AttentionRow,
    attention_output,
    attention_rows,
    scaled_dot_scores,
    softmax_normalize,
    stable_argsort_desc,
)
from .policies import (
    CormGqa,
    Full,
    KvCacheState,
    PolicyConfig,
    apply_policy,
    layer_caches,
    policy_label,
    validate_policy,
)
from .positional import (
    AbsoluteLearned,
    AbsoluteSinusoidal,
    Alibi,
    PeConfig,
    Rope,
    alibi_slopes,
    pe_from_dict,
    pe_kind_tag,
    pe_to_dict,
    rope_apply_many,
    sinusoidal_table,
)

__all__ = [
    "ModelConfig",
    "ToyTransformer",
    "DecoderState",
    "StepResult",
    "RunResult",
    "init_model",
    "load_model_config",
    "save_model_config",
    "weight_checksum",
]

RMS_EPS = 1e-6
WEIGHTS_MAGIC = b"CORMWTS1"
WEIGHTS_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Shape, positional encoding, and seed of a toy model.

    n_kv_heads < n_heads selects grouped-query attention (n_heads must be a
    multiple); None means one kv head per query head. d_model must divide
    evenly into n_heads. max_positions only bounds the learned absolute
    position table.
    """

    n_layers: int
    n_heads: int
    d_model: int
    vocab_size: int
    seed: int
    n_kv_heads: int | None = None
    pe: PeConfig = field(default_factory=Rope)
    mlp_ratio: int = 4
    depth_gain: float = 1.35
    head_gain_jitter: float = 0.3
    max_positions: int = 4096

    def __post_init__(self) -> None:
        if self.n_layers < 1 or self.n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        kv = self.kv_heads
        if kv < 1 or self.n_heads % kv != 0:
            raise ValueError(f"n_heads={self.n_heads} not divisible by n_kv_heads={kv}")
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if isinstance(self.pe, Rope) and self.d_h % 2 != 0:
            raise ValueError(f"rotary encoding needs even head dimension, got d_h={self.d_h}")
        if isinstance(self.pe, Alibi) and self.pe.slopes is not None and len(self.pe.slopes) != self.n_heads:
            raise ValueError(
                f"{len(self.pe.slopes)} alibi slopes for {self.n_heads} heads"
            )

    @property
    def kv_heads(self) -> int:
        return self.n_kv_heads if self.n_kv_heads is not None else self.n_heads

    @property
    def d_h(self) -> int:
        return self.d_model // self.n_heads

    @property
    def group_size(self) -> int:
        return self.n_heads // self.kv_heads

    @property
    def mlp_hidden(self) -> int:
        return self.mlp_ratio * self.d_model

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "n_kv_heads": self.kv_heads,
            "d_model": self.d_model,
            "vocab_size": self.vocab_size,
            "seed": self.seed,
            "pe": pe_to_dict(self.pe),
            "mlp_ratio": self.mlp_ratio,
            "depth_gain": self.depth_gain,
            "head_gain_jitter": self.head_gain_jitter,
            "max_positions": self.max_positions,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        required = ("n_layers", "n_heads", "d_model", "vocab_size", "seed")
        missing = [k for k in required if k not in d]
        if missing:
            raise ValueError(f"model config missing fields: {', '.join(missing)}")
        return cls(
            n_layers=int(d["n_layers"]),
            n_heads=int(d["n_heads"]),
            d_model=int(d["d_model"]),
            vocab_size=int(d["vocab_size"]),
            seed=int(d["seed"]),
            n_kv_heads=int(d["n_kv_heads"]) if d.get("n_kv_heads") is not None else None,
            pe=pe_from_dict(d["pe"]) if "pe" in d else Rope(),
            mlp_ratio=int(d.get("mlp_ratio", 4)),
            depth_gain=float(d.get("depth_gain", 1.35)),
            head_gain_jitter=float(d.get("head_gain_jitter", 0.3)),
            max_positions=int(d.get("max_positions", 4096)),
        )


def load_model_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ModelConfig.from_dict(json.load(fh))


def save_model_config(config: ModelConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray


@dataclass
class StepResult:
    """Output of one decode step: next-token logits plus per-head attention."""

    step: int
    logits: np.ndarray
    rows: list[list[AttentionRow]]  # [layer][query head], over surviving entries
    queries: np.ndarray  # (n_layers, n_heads, d_h); post-rotary when rotary is on


@dataclass
class RunResult:
    """Teacher-forced pass over a token sequence."""

    state: "DecoderState"
    logits: np.ndarray  # (T, vocab_size)
    step_rows: list[np.ndarray] | None = None  # per step: (L, H, t) float32
    step_queries: list[np.ndarray] | None = None  # per step: (L, H, d_h) float32


@dataclass
class DecoderState:
    """Mutable decode state for one sequence: caches, step counter, last logits."""

    policy: PolicyConfig
    caches: list[list[KvCacheState]]  # [layer][kv head], one block per layer
    step: int = 0
    last_logits: np.ndarray | None = None


def _rms_norm(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + RMS_EPS)


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def _draw(rng: np.random.Generator, shape: tuple[int, ...], scale: float) -> np.ndarray:
    # float64 draw, rounded to the float32 storage precision, then used as float64
    return (rng.standard_normal(shape) * scale).astype(np.float32).astype(np.float64)


class ToyTransformer:
    """A seeded random decoder whose per-step attention rows are observable."""

    def __init__(self, config: ModelConfig):
        self.config = config
        c = config
        rng = np.random.Generator(np.random.PCG64(c.seed))
        scale = 1.0 / np.sqrt(c.d_model)
        self.embedding = _draw(rng, (c.vocab_size, c.d_model), scale)
        self.pos_table = (
            _draw(rng, (c.max_positions, c.d_model), scale)
            if isinstance(c.pe, AbsoluteLearned)
            else None
        )
        self.layers: list[LayerWeights] = []
        for _ in range(c.n_layers):
            self.layers.append(
                LayerWeights(
                    wq=_draw(rng, (c.d_model, c.n_heads * c.d_h), scale),
                    wk=_draw(rng, (c.d_model, c.kv_heads * c.d_h), scale),
                    wv=_draw(rng, (c.d_model, c.kv_heads * c.d_h), scale),
                    wo=_draw(rng, (c.n_heads * c.d_h, c.d_model), scale),
                    w1=_draw(rng, (c.d_model, c.mlp_hidden), scale),
                    w2=_draw(rng, (c.mlp_hidden, c.d_model), scale),
                )
            )
        self.out_proj = _draw(rng, (c.d_model, c.vocab_size), scale)
        jitter = rng.uniform(-1.0, 1.0, size=(c.n_layers, c.n_heads))
        depth = c.depth_gain ** np.arange(c.n_layers, dtype=np.float64)[:, None]
        self.head_gain = (
            (depth * np.exp(c.head_gain_jitter * jitter)).astype(np.float32).astype(np.float64)
        )
        if isinstance(c.pe, Alibi):
            self._slopes = (
                np.asarray(c.pe.slopes, dtype=np.float64)
                if c.pe.slopes is not None
                else alibi_slopes(c.n_heads)
            )
        else:
            self._slopes = None
        self._sin_table = np.zeros((0, c.d_model), dtype=np.float64)

    # -- plumbing ----------------------------------------------------------

    def _kv_head(self, head: int) -> int:
        return head // self.config.group_size

    def _embed(self, token: int, t: int) -> np.ndarray:
        c = self.config
        h = self.embedding[token].copy()
        if isinstance(c.pe, AbsoluteSinusoidal):
            table = self._sin_table
            if t > table.shape[0]:
                table = self._sin_table = sinusoidal_table(max(t, 2 * table.shape[0]), c.d_model)
            h += table[t - 1]
        elif isinstance(c.pe, AbsoluteLearned):
            if t - 1 >= c.max_positions:
                raise ValueError(
                    f"step {t} exceeds the learned position table ({c.max_positions})"
                )
            h += self.pos_table[t - 1]
        return h

    def init_state(self, policy: PolicyConfig) -> DecoderState:
        """Fresh decode state; validates the policy against the model shape."""
        validate_policy(policy)
        c = self.config
        if isinstance(policy, CormGqa):
            if policy.group_size is not None and policy.group_size != c.group_size:
                raise ValueError(
                    f"policy group size {policy.group_size} does not match the "
                    f"model's {c.group_size} query heads per kv head"
                )
        elif not isinstance(policy, Full) and c.group_size > 1:
            raise ValueError(
                f"{policy_label(policy)} is a per-head policy and cannot run on a "
                f"grouped-query model (group size {c.group_size}); use gqa_corm or full"
            )
        caches = [layer_caches(c.kv_heads, c.d_h, c.d_h) for _ in range(c.n_layers)]
        return DecoderState(policy=policy, caches=caches)

    # -- stepping ----------------------------------------------------------

    def decode_step(self, state: DecoderState, token: int) -> StepResult:
        """Process one token: append to caches, attend, update logits, evict.

        Attention is computed over the surviving cache entries only, batched
        over runs of kv heads with equal cache lengths; rotary encoding uses
        each entry's original absolute position. The policy hook runs after
        the step's output is complete, so an eviction first affects the next
        step.
        """
        c = self.config
        if not 0 <= token < c.vocab_size:
            raise ValueError(f"token id {token} outside vocabulary of {c.vocab_size}")
        t = state.step + 1
        gs = c.group_size
        h = self._embed(token, t)
        rows_all: list[list[AttentionRow]] = []
        queries = np.empty((c.n_layers, c.n_heads, c.d_h), dtype=np.float64)
        slopes = None if self._slopes is None else self._slopes.reshape(c.kv_heads, gs, 1)

        for li, lw in enumerate(self.layers):
            x = _rms_norm(h)
            q = (x @ lw.wq).reshape(c.n_heads, c.d_h)
            k = (x @ lw.wk).reshape(c.kv_heads, c.d_h)
            v = (x @ lw.wv).reshape(c.kv_heads, c.d_h)
            if isinstance(c.pe, Rope):
                pos = np.full(1, t - 1, dtype=np.int64)
                qk = rope_apply_many(np.concatenate([q, k])[:, None, :], pos, c.pe.base)[:, 0, :]
                q, k = qk[: c.n_heads], qk[c.n_heads :]
            queries[li] = q
            caches = state.caches[li]
            for kv, cache in enumerate(caches):
                cache.append(k[kv], v[kv], t)
            block = caches[0].block

            # query heads grouped by the kv head they read: (kv heads, group size, ...)
            q_groups = q.reshape(c.kv_heads, gs, c.d_h)
            gain = self.head_gain[li].reshape(c.kv_heads, gs, 1)
            rows_layer: list[AttentionRow] = []
            outs = np.empty((c.kv_heads, gs, c.d_h), dtype=np.float64)
            for a, b in block.equal_size_runs():
                n = block.sizes[a]
                logits = scaled_dot_scores(q_groups[a:b], block.keys[a:b, None, :n], c.d_h) * gain[a:b]
                if slopes is not None:
                    logits = logits - slopes[a:b] * (t - block.positions[a:b, None, :n])
                scores = softmax_normalize(logits)
                rows_layer.extend(attention_rows(t, scores))
                outs[a:b] = attention_output(scores, block.values[a:b, None, :n])
            h = h + outs.reshape(-1) @ lw.wo
            h = h + _gelu(_rms_norm(h) @ lw.w1) @ lw.w2

            for kv, cache in enumerate(caches):
                apply_policy(state.policy, cache, rows_layer[kv * gs : (kv + 1) * gs], t)
            rows_all.append(rows_layer)

        logits = _rms_norm(h) @ self.out_proj
        state.step = t
        state.last_logits = logits
        return StepResult(step=t, logits=logits, rows=rows_all, queries=queries)

    def prefill(self, tokens: Sequence[int], policy: PolicyConfig) -> DecoderState:
        """Process a prompt strictly one position at a time, eviction active."""
        return self.run(tokens, policy).state

    def run(
        self,
        tokens: Sequence[int],
        policy: PolicyConfig,
        *,
        capture: bool = False,
        shadows: Sequence = (),
        on_step: Callable[[int, DecoderState], None] | None = None,
    ) -> RunResult:
        """Teacher-forced pass, returning per-position logits.

        capture=True additionally records every step's full attention rows and
        query vectors as float32 (the trace storage precision); `shadows` are
        policy simulators fed those same rows. Both need full rows, so they
        require the Full policy.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("token sequence must be non-empty")
        want_rows = capture or len(shadows) > 0
        if want_rows and not isinstance(policy, Full):
            raise ValueError("row capture and shadow simulation need the full cache policy")
        state = self.init_state(policy)
        logits = np.empty((tokens.size, self.config.vocab_size), dtype=np.float64)
        step_rows: list[np.ndarray] | None = [] if capture else None
        step_queries: list[np.ndarray] | None = [] if capture else None
        for i, tok in enumerate(tokens):
            sr = self.decode_step(state, int(tok))
            logits[i] = sr.logits
            if want_rows:
                rows_f32 = np.stack(
                    [np.stack([row.scores for row in layer]) for layer in sr.rows]
                ).astype(np.float32)
                if capture:
                    step_rows.append(rows_f32)
                    step_queries.append(sr.queries.astype(np.float32))
                for sh in shadows:
                    sh.step(sr.step, rows_f32)
            if on_step is not None:
                on_step(sr.step, state)
        return RunResult(state=state, logits=logits, step_rows=step_rows, step_queries=step_queries)

    def generate(
        self,
        state: DecoderState,
        n_steps: int,
        *,
        mode: str = "greedy",
        top_k: int = 0,
        seed: int | None = None,
        on_step: Callable[[int, DecoderState], None] | None = None,
    ) -> np.ndarray:
        """Continue from a prefilled state; greedy or seeded top-k sampling."""
        if state.last_logits is None:
            raise ValueError("generate needs a prefilled state")
        if mode not in ("greedy", "topk"):
            raise ValueError(f"mode must be 'greedy' or 'topk', got {mode!r}")
        rng = None
        if mode == "topk":
            if top_k < 1:
                raise ValueError(f"top_k must be >= 1, got {top_k}")
            if seed is None:
                raise ValueError("topk sampling needs an explicit seed")
            rng = np.random.Generator(np.random.PCG64(seed))
        out = np.empty(n_steps, dtype=np.int64)
        for i in range(n_steps):
            logits = state.last_logits
            if mode == "greedy":
                tok = int(np.argmax(logits))
            else:
                cand = stable_argsort_desc(logits)[:top_k]
                tok = int(rng.choice(cand, p=softmax_normalize(logits[cand])))
            out[i] = tok
            sr = self.decode_step(state, tok)
            if on_step is not None:
                on_step(sr.step, state)
        return out

    def perplexity(self, tokens: Sequence[int], policy: PolicyConfig) -> float:
        """exp(mean next-token NLL), teacher-forced, eviction active as in generation."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size < 2:
            raise ValueError("perplexity needs at least 2 tokens")
        res = self.run(tokens, policy)
        nll = 0.0
        for i in range(tokens.size - 1):
            row = res.logits[i]
            m = row.max()
            logz = m + np.log(np.exp(row - m).sum())
            step_nll = float(logz - row[tokens[i + 1]])
            if not np.isfinite(step_nll):
                raise ValueError(f"non-finite loss at step {i + 1}")
            nll += step_nll
        return float(np.exp(nll / (tokens.size - 1)))

    # -- reference forward (oracle) -----------------------------------------

    def forward_full_sequence(self, tokens: Sequence[int]) -> np.ndarray:
        """From-scratch batched forward over the whole sequence, full cache.

        Independent of the incremental path: materializes (T, T) causal
        attention per head instead of stepping a cache. Used as the
        equivalence oracle for Full-policy decoding.
        """
        c = self.config
        tokens = np.asarray(tokens, dtype=np.int64)
        T = tokens.size
        if np.any(tokens < 0) or np.any(tokens >= c.vocab_size):
            raise ValueError("token id outside vocabulary")
        h = self.embedding[tokens].copy()  # (T, d_model)
        if isinstance(c.pe, AbsoluteSinusoidal):
            h += sinusoidal_table(T, c.d_model)
        elif isinstance(c.pe, AbsoluteLearned):
            if T > c.max_positions:
                raise ValueError(f"sequence of {T} exceeds the learned position table")
            h += self.pos_table[:T]
        positions = np.arange(T, dtype=np.int64)
        causal = positions[None, :] > positions[:, None]  # True above the diagonal
        for li, lw in enumerate(self.layers):
            x = _rms_norm(h)
            q = (x @ lw.wq).reshape(T, c.n_heads, c.d_h).transpose(1, 0, 2)
            k = (x @ lw.wk).reshape(T, c.kv_heads, c.d_h).transpose(1, 0, 2)
            v = (x @ lw.wv).reshape(T, c.kv_heads, c.d_h).transpose(1, 0, 2)
            if isinstance(c.pe, Rope):
                q = rope_apply_many(q, positions, c.pe.base)
                k = rope_apply_many(k, positions, c.pe.base)
            outs = np.empty((c.n_heads, T, c.d_h), dtype=np.float64)
            for hd in range(c.n_heads):
                kv = self._kv_head(hd)
                logits = q[hd] @ k[kv].T / np.sqrt(c.d_h) * self.head_gain[li, hd]
                if self._slopes is not None:
                    logits = logits - self._slopes[hd] * (positions[:, None] - positions[None, :])
                logits = np.where(causal, -np.inf, logits)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                probs = e / e.sum(axis=1, keepdims=True)
                outs[hd] = probs @ v[kv]
            h = h + outs.transpose(1, 0, 2).reshape(T, -1) @ lw.wo
            h = h + _gelu(_rms_norm(h) @ lw.w1) @ lw.w2
        return _rms_norm(h) @ self.out_proj

    # -- weight persistence --------------------------------------------------

    def _weight_arrays(self) -> list[np.ndarray]:
        arrays = [self.embedding]
        if self.pos_table is not None:
            arrays.append(self.pos_table)
        for lw in self.layers:
            arrays.extend([lw.wq, lw.wk, lw.wv, lw.wo, lw.w1, lw.w2])
        arrays.append(self.out_proj)
        arrays.append(self.head_gain)
        return arrays

    def save_weights(self, path) -> None:
        """Binary weight dump: magic, version, dims header, float32 payload.

        Layout (little-endian): 8-byte magic "CORMWTS1"; u32 version; u32 each
        of n_layers, n_heads, n_kv_heads, d_model, vocab_size, mlp_hidden,
        table_rows (0 without a learned table), pe kind id; then every weight
        array row-major float32 in draw order, head gains last.
        """
        c = self.config
        _, pe_id = pe_kind_tag(c.pe)
        header = struct.pack(
            "<8sIIIIIIIII",
            WEIGHTS_MAGIC,
            WEIGHTS_VERSION,
            c.n_layers,
            c.n_heads,
            c.kv_heads,
            c.d_model,
            c.vocab_size,
            c.mlp_hidden,
            0 if self.pos_table is None else c.max_positions,
            pe_id,
        )
        with open(path, "wb") as fh:
            fh.write(header)
            for arr in self._weight_arrays():
                fh.write(arr.astype("<f4").tobytes(order="C"))

    def load_weights(self, path) -> None:
        """Load weights saved by save_weights into this model (dims must match)."""
        c = self.config
        head_fmt = "<8sIIIIIIIII"
        head_size = struct.calcsize(head_fmt)
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < head_size:
            raise ValueError("weight file truncated before header")
        magic, version, nl, nh, nkv, dm, vs, mh, rows, pe_id = struct.unpack_from(head_fmt, blob)
        if magic != WEIGHTS_MAGIC:
            raise ValueError(f"bad weight-file magic {magic!r}")
        if version != WEIGHTS_VERSION:
            raise ValueError(f"unsupported weight-file version {version}")
        expect = (c.n_layers, c.n_heads, c.kv_heads, c.d_model, c.vocab_size, c.mlp_hidden)
        if (nl, nh, nkv, dm, vs, mh) != expect:
            raise ValueError(f"weight dims {(nl, nh, nkv, dm, vs, mh)} do not match config {expect}")
        if pe_id != pe_kind_tag(c.pe)[1]:
            raise ValueError("weight file was saved with a different positional encoding")
        offset = head_size
        for arr in self._weight_arrays():
            nbytes = arr.size * 4
            if offset + nbytes > len(blob):
                raise ValueError("weight file truncated inside payload")
            loaded = np.frombuffer(blob, dtype="<f4", count=arr.size, offset=offset)
            arr[...] = loaded.reshape(arr.shape).astype(np.float64)
            offset += nbytes
        if offset != len(blob):
            raise ValueError("trailing bytes after weight payload")


def init_model(config: ModelConfig) -> ToyTransformer:
    """Build a model with freshly drawn seeded weights."""
    return ToyTransformer(config)


def weight_checksum(model: ToyTransformer) -> int:
    """CRC32 of the first-drawn weight (the token embedding), for determinism checks."""
    return zlib.crc32(model.embedding.astype("<f4").tobytes(order="C"))
