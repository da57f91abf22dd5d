"""Frozen synthetic text encoder and trainable prompts.

The encoder is the simplest frozen differentiable stand-in that preserves the
"frozen encoder, trainable tokens" contract: mean-pool the context tokens and
the class token, apply a fixed linear projection, L2-normalize. Prompt
contexts are the complete trainable parameter set of the artifact.

Mean pooling makes a class's M contexts enter only through their sum, so M
adds no capacity. It changes only the initial spread (sigma*sqrt(M) for the
sum) and the effective step: SGD at rate lr moves the pooled vector by
lr*M/(M+1)^2 times its gradient. CoOp's context tokens matter because CLIP's
text transformer mixes them (arXiv 2109.01134); this encoder does not.

Since the pool sees only that sum, the M tokens of a block share one
gradient, g_pooled/(M+1), and encode_backward returns it once per block,
with a token axis of length 1 that broadcasts over the M stored contexts.
The contexts themselves stay (C or 1, M, d_token), so the forward pass and
the checkpoint format are those of M separate tokens.

encode_all and encode_backward also take a PromptStack: the contexts of S
runs that share the class tokens, on a leading run axis. Each run's slice
of a stacked product or sum has the bits of the run's own 2-d one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError
from .seeding import DOMAIN_ENCODER, DOMAIN_PROMPT, substream, unit_rows

MODE_CLASS_SPECIFIC = "class_specific"
MODE_SHARED = "shared"
PROMPT_MODES = (MODE_CLASS_SPECIFIC, MODE_SHARED)

# PRNG streams.
_STREAM_PROJECTION = 0  # DOMAIN_ENCODER
_STREAM_CLASS_TOKENS = 1  # DOMAIN_ENCODER
_STREAM_CONTEXT_INIT = 0  # DOMAIN_PROMPT
_STREAM_TEMPLATE = 1  # DOMAIN_PROMPT


@dataclass(frozen=True)
class FrozenTextEncoder:
    """Fixed linear map from token space (d_token) to embedding space (d).

    projection has shape (d_token, d) and is applied as pooled @ projection;
    it never receives gradient updates.
    """

    projection: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        proj = np.asarray(self.projection, dtype=np.float64)
        if proj.ndim != 2:
            raise ConfigError("projection must be a 2-d matrix")
        proj.flags.writeable = False
        object.__setattr__(self, "projection", proj)

    @property
    def token_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def dim(self) -> int:
        return self.projection.shape[1]

    @staticmethod
    def create(seed: int, token_dim: int, dim: int) -> "FrozenTextEncoder":
        """Random dense projection, deterministic from seed. Entries are scaled
        by 1/sqrt(d_token) so projected vectors stay O(1)."""
        rng = substream(seed, DOMAIN_ENCODER, _STREAM_PROJECTION)
        proj = rng.standard_normal((token_dim, dim)) / np.sqrt(token_dim)
        return FrozenTextEncoder(proj, seed=seed)


def make_class_tokens(encoder_seed: int, num_classes: int, token_dim: int) -> np.ndarray:
    """Frozen per-class tokens: unit rows drawn from the encoder's seed on a
    separate stream, so class identities are distinguishable but fixed."""
    rng = substream(encoder_seed, DOMAIN_ENCODER, _STREAM_CLASS_TOKENS)
    return unit_rows(rng, num_classes, token_dim)


def template_vector(encoder_seed: int, token_dim: int) -> np.ndarray:
    """The fixed shared context vector used by init="template" (the stand-in
    for a hand-written prompt prefix)."""
    rng = substream(encoder_seed, DOMAIN_PROMPT, _STREAM_TEMPLATE)
    return unit_rows(rng, 1, token_dim)[0]


@dataclass
class PromptSet:
    """Trainable context tokens plus frozen class tokens.

    contexts has shape (C, M, d_token) in class_specific mode or (1, M, d_token)
    in shared mode (one block broadcast to every class). class_tokens never
    receive gradients.
    """

    contexts: np.ndarray
    class_tokens: np.ndarray
    mode: str = MODE_CLASS_SPECIFIC
    encoder_seed: int | None = None

    def __post_init__(self):
        self.contexts = np.asarray(self.contexts, dtype=np.float64)
        tokens = np.asarray(self.class_tokens, dtype=np.float64)
        tokens.flags.writeable = False
        self.class_tokens = tokens
        if self.mode not in PROMPT_MODES:
            raise ConfigError(f"unknown prompt mode {self.mode!r}")
        if self.contexts.ndim != 3 or self.class_tokens.ndim != 2:
            raise ConfigError("contexts must be (C or 1, M, d_token); class_tokens (C, d_token)")
        if self.num_context_tokens < 1:
            raise ConfigError("need M >= 1 context tokens")
        if self.contexts.shape[2] != self.class_tokens.shape[1]:
            raise ConfigError("contexts and class_tokens must share d_token")
        expected = 1 if self.mode == MODE_SHARED else self.num_classes
        if self.contexts.shape[0] != expected:
            raise ConfigError(
                f"mode {self.mode} expects a context block of {expected} rows, "
                f"got {self.contexts.shape[0]}"
            )

    @property
    def num_classes(self) -> int:
        return self.class_tokens.shape[0]

    @property
    def num_context_tokens(self) -> int:
        return self.contexts.shape[1]

    @property
    def token_dim(self) -> int:
        return self.class_tokens.shape[1]


@dataclass
class PromptStack:
    """The contexts of S prompt sets that share their class tokens, mode and
    shape, on a leading run axis: (S, C or 1, M, d_token). Build it with
    PromptStack.of, which rebinds each set's contexts to its slice, so an
    update of the stack is an update of every set. Of one set, of returns
    that set as it is."""

    contexts: np.ndarray
    class_tokens: np.ndarray
    mode: str

    @staticmethod
    def of(prompt_sets) -> "PromptStack | PromptSet":
        first = prompt_sets[0]
        if len(prompt_sets) == 1:
            return first
        contexts = np.stack([p.contexts for p in prompt_sets])
        for prompts, view in zip(prompt_sets, contexts):
            prompts.contexts = view
        return PromptStack(contexts, first.class_tokens, first.mode)

    @property
    def num_classes(self) -> int:
        return self.class_tokens.shape[0]

    @property
    def num_context_tokens(self) -> int:
        return self.contexts.shape[-2]

    @property
    def token_dim(self) -> int:
        return self.class_tokens.shape[1]


def init_prompt_set(
    num_classes: int,
    token_dim: int,
    num_context_tokens: int = 4,
    mode: str = MODE_CLASS_SPECIFIC,
    init: str = "gaussian",
    init_std: float = 0.02,
    encoder_seed: int = 0,
    init_seed: int = 0,
) -> PromptSet:
    """Build a fresh PromptSet: frozen class tokens from the encoder seed,
    contexts from init_seed (zero-mean Gaussian) or the fixed template vector."""
    blocks = 1 if mode == MODE_SHARED else num_classes
    shape = (blocks, num_context_tokens, token_dim)
    if init == "gaussian":
        rng = substream(init_seed, DOMAIN_PROMPT, _STREAM_CONTEXT_INIT)
        contexts = init_std * rng.standard_normal(shape)
    elif init == "template":
        contexts = np.broadcast_to(template_vector(encoder_seed, token_dim), shape).copy()
    else:
        raise ConfigError(f"unknown prompt init {init!r}")
    tokens = make_class_tokens(encoder_seed, num_classes, token_dim)
    return PromptSet(contexts, tokens, mode=mode, encoder_seed=encoder_seed)


@dataclass(frozen=True)
class PromptEncoding:
    """Forward cache of encode_all: unit embeddings plus the pre-normalization
    norms the backward pass needs."""

    embeddings: np.ndarray  # (C, d) unit rows; (S, C, d) for a PromptStack
    norms: np.ndarray  # (C,); (S, C) for a PromptStack


def encode_all(encoder: FrozenTextEncoder, prompts: PromptSet | PromptStack) -> PromptEncoding:
    """Embed every class prompt: pool the M contexts with the class token
    (divide by M+1), project, normalize."""
    if prompts.token_dim != encoder.token_dim:
        raise ConfigError("prompt token_dim does not match encoder token_dim")
    m = prompts.num_context_tokens
    pooled = (prompts.contexts.sum(axis=-2) + prompts.class_tokens) / (m + 1.0)
    pre = pooled @ encoder.projection  # (C, d)
    # the sum np.linalg.norm(pre, axis=-1) computes, without its Python overhead
    norms = np.sqrt(np.add.reduce(pre * pre, axis=-1))
    if norms.min() < 1e-12:
        raise NumericsError("degenerate prompt embedding: zero vector before normalization")
    return PromptEncoding(pre / norms[..., None], norms)


def encode_backward(
    encoder: FrozenTextEncoder,
    prompts: PromptSet | PromptStack,
    encoding: PromptEncoding,
    grad_embeddings: np.ndarray,
) -> np.ndarray:
    """Chain a gradient w.r.t. the unit prompt embeddings back to contexts.

    Per class: g_u = (I - e e^T) g_e / |u|, then through the fixed projection
    and the mean pool. Every context token of a block gets the same gradient,
    so it is returned once per block: shape (C, 1, d_token), or (1, 1,
    d_token) in shared mode, where the per-class contributions accumulate
    into the single block; a stack's has the run axis in front. It
    broadcasts against prompts.contexts.
    """
    e = encoding.embeddings
    radial = (e * grad_embeddings).sum(axis=-1, keepdims=True)
    g_pre = (grad_embeddings - e * radial) / encoding.norms[..., None]
    g_pooled = g_pre @ encoder.projection.T  # (C, d_token)
    per_token = g_pooled / (prompts.num_context_tokens + 1.0)
    if prompts.mode == MODE_SHARED:
        per_token = per_token.sum(axis=-2, keepdims=True)
    return per_token[..., None, :]


def prompts_from_dict(doc: dict) -> PromptSet:
    """The PromptSet of a prompt checkpoint's fields (see
    train.checkpoint_to_dict), whose arrays may be lists or arrays."""
    try:
        contexts = np.asarray(doc["contexts"], dtype=np.float64)
        class_tokens = np.asarray(doc["class_tokens"], dtype=np.float64)
        mode, encoder_seed = doc["mode"], doc["encoder_seed"]
    except KeyError as exc:
        raise ConfigError(f"prompt checkpoint missing field: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"prompt checkpoint is malformed: {exc}") from exc
    if encoder_seed is not None and not (type(encoder_seed) is int and encoder_seed >= 0):
        raise ConfigError(f"prompt checkpoint encoder_seed {encoder_seed!r} is not a seed")
    prompts = PromptSet(contexts, class_tokens, mode=mode, encoder_seed=encoder_seed)
    if prompts.num_context_tokens != doc.get("num_context_tokens"):
        raise ConfigError("prompt checkpoint header disagrees with its contexts")
    if prompts.token_dim != doc.get("token_dim"):
        raise ConfigError("prompt checkpoint header disagrees with its token_dim")
    return prompts
