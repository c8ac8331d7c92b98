"""KV-cache eviction testbed.

A deterministic toy decoder whose per-step attention rows are observable,
a family of cache eviction policies (budget-free recency-message eviction
plus fixed-budget baselines), a binary trace format with offline replay, and
analysis tooling for sparsity / query-similarity / overlap measurements.
"""

from .attention import (
    AttentionRow,
    attention_output,
    cosine_similarity,
    scaled_dot_scores,
    softmax_normalize,
)
from .model import DecoderState, ModelConfig, ToyTransformer, init_model
from .policies import (
    Corm,
    CormGqa,
    Full,
    H2O,
    KvCacheState,
    Scissorhands,
    StreamingLlm,
    Tova,
    classify_important,
    compression_rate,
    parse_policy,
    policy_label,
)
from .positional import (
    AbsoluteLearned,
    AbsoluteSinusoidal,
    Alibi,
    NoPositional,
    Rope,
    alibi_slopes,
    apply_rope,
)
from .trace import AttentionTrace, load, record, replay_policy, save

__version__ = "0.1.0"
