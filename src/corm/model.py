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

Decoding runs layer by layer over a chunk of tokens: `run` feeds a prompt in
chunks of `PREFILL_CHUNK` tokens, `decode_step` takes a chunk and keeps each
position's attention rows and queries, and `generate` feeds it chunks of
one. For each layer, the chunk's RMS norm, Q/K/V projections and rotary run
once over its stacked rows. Then, under a policy that may evict, each
position in turn appends its entry to the layer's cache, attends over the
surviving entries, and runs the policy's update hook once for all of the
layer's kv heads, exactly as a token-by-token pass would. Under one that
never evicts (`Policy.evicts`, as `full`), a chunk of n > 1 appends its n
entries in one call and attends in one call of each stage, position i over
the first t0 + i + 1 entries. Then `wo` and the MLP run once over the chunk.
Position t of layer l reads only layer l-1's rows at positions <= t and
layer l's own cache, so this order computes what a token-by-token pass
computes, and with the same bits: a stacked projection
`np.matmul(X[:, None, :], W)` makes one BLAS gemv per row, the call that
`x @ W` makes for a single row (a plain `X @ W` gemm changes bits), and RMS
norm, GELU, rotary and the position tables work element by element or row
by row, whatever the chunk's shape. Each layer keeps its kv heads' entries
in one preallocated block (`corm.policies.KvCacheState`); evicted entries
are compacted away in place, and each entry's original absolute position is
retained so rotary encoding and position-based bookkeeping stay correct
after eviction.

Attention makes one call of each attention function per layer and position
(a `(kv_heads, group, m)` block, m the longest head) or per layer and
never-evicting chunk (an `(n, kv_heads, group, m)` block). Its runs go with
it: the position's runs of kv heads with equally many entries
(`KvCacheState.equal_size_runs`), or one run per chunk position,
`(i, i + 1, t0 + i + 1)`. Only the score gemv, the softmax row sum and the
output gemv run once per run over exactly its entries, and the elementwise
steps (scale, head gain, ALiBi bias at each query's step, max, exp, divide)
once over the block, in place in the block each stage returns. So every
head's scores come from the same products and reductions as a single-head,
single-position computation, and the logits are bit-identical to per-head
attention. A position's block under `full`, or a budgeted policy at budget,
is one run and pays for no padding.

Weight draw order (one generator, consumed in sequence): token embedding;
learned position table (only when configured); per layer: wq, wk, wv, wo,
w1, w2; output projection; head-gain jitter. All normal draws use scale
1/sqrt(d_model).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attention import (
    AttentionRow,
    attention_output,
    scaled_dot_scores,
    softmax_normalize,
    stable_argsort_desc,
)
from .policies import KvCacheState, Policy, apply_policy
from .positional import PeConfig, Rope
from .schema import from_json

__all__ = [
    "ModelConfig",
    "ToyTransformer",
    "DecoderState",
    "StepResult",
    "RunResult",
    "SAMPLING_MODES",
    "init_model",
    "load_model_config",
]

RMS_EPS = 1e-6
_LOG_F32_MAX = math.log(float(np.finfo(np.float32).max))
_GELU_SCALE = np.sqrt(2.0 / np.pi)  # of the tanh approximation
# Tokens per forward call in `run`. One chunk for the whole prompt raised the
# peak RSS of a 160-token decode on a 4L/8H/d256 model from 63.5 to 68.4 MB
# (+7.8 %); 64-token chunks kept it at 63.5 MB and still stack the dense work.
PREFILL_CHUNK = 64
SAMPLING_MODES = ("greedy", "topk")  # `generate`'s modes

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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        for name in ("d_h", "mlp_ratio", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("depth_gain", "head_gain_jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # head gains are at most max(1, |depth_gain|**(n_layers - 1)) * exp(|head_gain_jitter|); in logs, no overflow
        log_gain = abs(self.head_gain_jitter)
        if abs(self.depth_gain) > 1.0:
            log_gain += (self.n_layers - 1) * math.log(abs(self.depth_gain))
        if log_gain >= _LOG_F32_MAX:
            raise ValueError(
                f"depth_gain={self.depth_gain} over {self.n_layers} layers with head_gain_jitter="
                f"{self.head_gain_jitter} gives head gains that overflow float32"
            )
        self.pe.check(self.n_heads, self.d_model)

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

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return from_json(cls, d, "model config")


def load_model_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ModelConfig.from_dict(json.load(fh))


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
    """Output of one decode chunk of n positions: each position's next-token logits, attention rows and queries."""

    logits: np.ndarray  # (n, vocab_size)
    rows: list[list[list[AttentionRow]]]  # [position][layer][query head], over surviving entries; views of a fresh block
    queries: np.ndarray  # (n, n_layers, n_heads, d_h); post-rotary when rotary is on


@dataclass
class RunResult:
    """Teacher-forced pass over a token sequence."""

    state: "DecoderState"
    logits: np.ndarray  # (T, vocab_size)


@dataclass
class DecoderState:
    """Mutable decode state for one sequence: caches (their `step` is the last step), last logits, cache sizes."""

    policy: Policy
    caches: list[KvCacheState]  # [layer]: one block of every kv head of the layer
    last_logits: np.ndarray | None = None
    step_sizes: list[list[int]] = field(default_factory=list)  # [t - 1]: every cache's size after step t, layer-major


def _stacked(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # one BLAS gemv per row of x (n, d), the product a 1-D `row @ w` computes;
    # a gemm over the n rows would change the bits
    return np.matmul(x[:, None, :], w)[:, 0]


def _rms_norm(x: np.ndarray) -> np.ndarray:
    # np.mean's own arithmetic (a sum, then a true divide by the count) without its dispatch
    return x / np.sqrt(np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1] + RMS_EPS)


def _gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation, 0.5 * x * (1.0 + tanh(_GELU_SCALE * (x + 0.044715 * (x * x * x)))),
    # evaluated in place in one buffer. The cube is two IEEE multiplies, not `x**3`:
    # numpy's `power` is some 50 times slower, and its bits depend on the numpy build.
    u = x * x
    u *= x
    u *= 0.044715
    u += x
    u *= _GELU_SCALE
    np.tanh(u, out=u)
    u += 1.0
    return 0.5 * x * u


def _draw(rng: np.random.Generator, shape: tuple[int, ...], scale: float) -> np.ndarray:
    # float64 draw, rounded to the float32 storage precision, then used as float64
    return (rng.standard_normal(shape) * scale).astype(np.float32).astype(np.float64)


def _layer_rows(scores: np.ndarray, step: int, sizes: Sequence[int], group: int) -> list[AttentionRow]:
    # one row per query head of a (kv_heads, group, m) softmax block, over its
    # kv head's entries; softmax output is finite, in [0, 1] and normalized
    return [AttentionRow(step, scores[hk, g, :s], validated=True) for hk, s in enumerate(sizes) for g in range(group)]


class ToyTransformer:
    """A seeded random decoder whose per-step attention rows are observable."""

    def __init__(self, config: ModelConfig):
        self.config = config
        c = config
        rng = np.random.Generator(np.random.PCG64(c.seed))
        scale = 1.0 / np.sqrt(c.d_model)
        self.embedding = _draw(rng, (c.vocab_size, c.d_model), scale)
        # the learned table's rows; an empty draw leaves the generator as it was
        self.pos_table = _draw(rng, (c.pe.drawn_rows(c.max_positions), c.d_model), scale)
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
        self._gains = self.head_gain.reshape(c.n_layers, c.kv_heads, c.group_size, 1)  # [layer], as a score block
        slopes = c.pe.head_slopes(c.n_heads)
        self._slopes = None if slopes is None else slopes.reshape(c.kv_heads, c.group_size, 1)  # as a score block

    # -- plumbing ----------------------------------------------------------

    def _kv_head(self, head: int) -> int:
        return head // self.config.group_size

    def init_state(self, policy: Policy) -> DecoderState:
        """Fresh decode state; checks that the policy can serve the model's heads."""
        c = self.config
        group = policy.group_size_for(c.n_heads, c.kv_heads)
        if group != c.group_size:
            raise ValueError(
                f"policy group size {group} does not match the "
                f"model's {c.group_size} query heads per kv head"
            )
        caches = [KvCacheState(c.kv_heads, c.d_h) for _ in range(c.n_layers)]
        return DecoderState(policy=policy, caches=caches)

    # -- stepping ----------------------------------------------------------

    def _forward(
        self,
        state: DecoderState,
        tokens: np.ndarray,
        rows: list[list[list[AttentionRow]]] | None = None,
        queries: np.ndarray | None = None,
    ) -> np.ndarray:
        """Steps `cache.step + 1 ...` of `tokens` (n,) int64, layer by layer; returns their (n, vocab) logits.

        The chunk's dense stages run once per layer over its stacked rows
        (module docstring). Attention reads the surviving cache entries
        only; rotary encoding uses each entry's original absolute position.
        Under a policy that may evict, and for a chunk of one, attention and
        the policy run once per layer and position: the policy gets the
        layer's softmax block, zero past each kv head's size, after the
        position's attention output, so an eviction first affects the next
        position. Under a policy that never evicts, a chunk appends once and
        attends once per layer, and the policy is not called. Each
        position's cache sizes go to `state.step_sizes`. With `rows` (n empty
        lists) and `queries` (n, n_layers, n_heads, d_h), the call also keeps
        each position's attention rows, layer by layer, and its post-rotary
        queries (`StepResult`).

        Errors are a token-by-token pass's: the first bad token id, or the
        first step past the learned position table, whichever comes first.
        """
        c = self.config
        n, t0 = tokens.size, state.caches[0].step
        kv, gs, d_h = c.kv_heads, c.group_size, c.d_h
        ids = tokens.tolist()
        ok = n  # tokens before the first bad id
        if min(ids) < 0 or max(ids) >= c.vocab_size:
            ok = next(i for i, tok in enumerate(ids) if not 0 <= tok < c.vocab_size)
        # the steps before a bad token embed first, as they would one by one
        table = c.pe.embedding_rows(self.pos_table, t0 + ok) if ok else None
        if ok < n:
            raise ValueError(f"token id {tokens[ok]} outside vocabulary of {c.vocab_size}")
        h = self.embedding[tokens]
        if table is not None:
            self.pos_table = table
            h += table[t0 : t0 + n]
        positions = np.arange(t0, t0 + n)[:, None]
        sizes: list[list[int]] = [[] for _ in range(n)]
        # a single row needs no stacking: numpy's matmul makes a one-row product a gemv
        mm = np.matmul if n == 1 else _stacked

        for li, lw in enumerate(self.layers):
            x = _rms_norm(h)
            q = mm(x, lw.wq).reshape(n, c.n_heads, d_h)
            k = mm(x, lw.wk).reshape(n, kv, d_h)
            v = mm(x, lw.wv).reshape(n, kv, d_h)
            q, k = c.pe.rotate(q, k, positions)
            if queries is not None:
                queries[:, li] = q
            q = q.reshape(n, kv, gs, d_h)  # query heads grouped by the kv head they read
            cache = state.caches[li]
            if state.policy.evicts or n == 1:  # a lone position costs less without the chunk block
                outs = np.empty((n, kv, gs, d_h))
                for i in range(n):
                    cache.append(k[i], v[i])
                    scores, outs[i] = self._attend(li, q[i], cache, cache.step, cache.equal_size_runs())
                    if rows is not None:
                        rows[i].append(_layer_rows(scores, cache.step, cache.sizes, gs))
                    apply_policy(state.policy, cache, scores)
                    sizes[i] += cache.sizes
            else:
                # nothing is evicted: position i reads the first t0 + i + 1 entries, one run each
                cache.append(k, v)
                runs = [(i, i + 1, t0 + i + 1) for i in range(n)]
                scores, outs = self._attend(li, q, cache, np.arange(t0 + 1, t0 + n + 1)[:, None, None, None], runs)
                for i, t in enumerate(range(t0 + 1, t0 + n + 1)):
                    if rows is not None:
                        rows[i].append(_layer_rows(scores[i], t, [t] * kv, gs))
                    sizes[i] += [t] * kv
            h = h + mm(outs.reshape(n, -1), lw.wo)
            h = h + mm(_gelu(mm(_rms_norm(h), lw.w1)), lw.w2)

        logits = mm(_rms_norm(h), self.out_proj)
        state.last_logits = logits[-1]
        state.step_sizes += sizes
        return logits

    def _attend(self, li: int, q: np.ndarray, cache: KvCacheState, steps, runs) -> tuple[np.ndarray, np.ndarray]:
        """Layer li's softmax block and outputs, one call of each stage, for one position's
        queries q, (kv_heads, group, d_h), or a chunk's, (n, kv_heads, group, d_h), over the
        block's entries; `runs` tiles q's first axis and `steps` are the queries' steps (ALiBi)."""
        m, d_h = cache.width, self.config.d_h
        keys, values = cache.keys[:, None, :m], cache.values[:, None, :m]
        if q.ndim == 4:
            keys, values = (np.broadcast_to(a, (len(q),) + a.shape) for a in (keys, values))
        logits = scaled_dot_scores(q, keys, d_h, runs)
        logits *= self._gains[li]
        if self._slopes is not None:
            logits -= self._slopes * (steps - cache.positions[:, None, :m])
        scores = softmax_normalize(logits, runs)
        return scores, attention_output(scores, values, runs)

    def decode_step(self, state: DecoderState, tokens: int | Sequence[int]) -> StepResult:
        """Process a chunk of n tokens (an int is a chunk of one) through the forward (`_forward`).

        Returns the chunk's (n, vocab) logits and, for each of its
        positions, every layer's attention rows and post-rotary queries,
        with the bits of n one-token calls.
        """
        c = self.config
        tokens = np.array(tokens, dtype=np.int64, ndmin=1)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("a decode chunk must be a non-empty 1-D sequence of token ids")
        n = tokens.size
        rows: list[list[list[AttentionRow]]] = [[] for _ in range(n)]
        queries = np.empty((n, c.n_layers, c.n_heads, c.d_h), dtype=np.float64)
        logits = self._forward(state, tokens, rows, queries)
        return StepResult(logits=logits, rows=rows, queries=queries)

    def run(self, tokens: Sequence[int], policy: Policy) -> RunResult:
        """Teacher-forced pass, returning per-position logits.

        The tokens go through the forward in chunks of `PREFILL_CHUNK`, with
        the bits of a token-by-token pass (module docstring); the state
        records every step's cache sizes (`DecoderState.step_sizes`).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError("token sequence must be non-empty")
        state = self.init_state(policy)
        logits = np.empty((tokens.size, self.config.vocab_size), dtype=np.float64)
        for a in range(0, tokens.size, PREFILL_CHUNK):
            logits[a : a + PREFILL_CHUNK] = self._forward(state, tokens[a : a + PREFILL_CHUNK])
        return RunResult(state=state, logits=logits)

    def generate(
        self,
        state: DecoderState,
        n_steps: int,
        *,
        mode: str = "greedy",
        top_k: int = 0,
        seed: int | None = None,
    ) -> np.ndarray:
        """Continue from a prefilled state, one `decode_step` per token; greedy or seeded top-k sampling."""
        if state.last_logits is None:
            raise ValueError("generate needs a prefilled state")
        if mode not in SAMPLING_MODES:
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
            self.decode_step(state, tok)
        return out

    def perplexity(self, tokens: Sequence[int], policy: Policy) -> float:
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
        rows = c.pe.embedding_rows(self.pos_table, T)
        if rows is not None:
            h += rows[:T]
        positions = np.arange(T, dtype=np.int64)
        causal = positions[None, :] > positions[:, None]  # True above the diagonal
        slopes = c.pe.head_slopes(c.n_heads)
        for li, lw in enumerate(self.layers):
            x = _rms_norm(h)
            q = (x @ lw.wq).reshape(T, c.n_heads, c.d_h)
            k = (x @ lw.wk).reshape(T, c.kv_heads, c.d_h)
            v = (x @ lw.wv).reshape(T, c.kv_heads, c.d_h).transpose(1, 0, 2)
            q, k = (a.transpose(1, 0, 2) for a in c.pe.rotate(q, k, positions[:, None]))
            outs = np.empty((c.n_heads, T, c.d_h), dtype=np.float64)
            for hd in range(c.n_heads):
                kv = self._kv_head(hd)
                logits = q[hd] @ k[kv].T / np.sqrt(c.d_h) * self.head_gain[li, hd]
                if slopes is not None:
                    logits = logits - slopes[hd] * (positions[:, None] - positions[None, :])
                logits = np.where(causal, -np.inf, logits)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                probs = e / e.sum(axis=1, keepdims=True)
                outs[hd] = probs @ v[kv]
            h = h + outs.transpose(1, 0, 2).reshape(T, -1) @ lw.wo
            h = h + _gelu(_rms_norm(h) @ lw.w1) @ lw.w2
        return _rms_norm(h) @ self.out_proj


def init_model(config: ModelConfig) -> ToyTransformer:
    """Build a model with freshly drawn seeded weights."""
    return ToyTransformer(config)
