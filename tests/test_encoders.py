import numpy as np
import pytest

from tailprompt.encoders import (
    MODE_CLASS_SPECIFIC,
    MODE_SHARED,
    FrozenTextEncoder,
    PromptSet,
    encode_all,
    encode_backward,
    init_prompt_set,
    prompts_from_dict,
)
from tailprompt.errors import ConfigError, NumericsError

from oracles import encode_backward_per_token, encode_prompt_scalar


def _setup(mode=MODE_CLASS_SPECIFIC, c=4, dt=6, d=10, m=3, seed=2):
    enc = FrozenTextEncoder.create(seed, dt, d)
    prompts = init_prompt_set(
        c, dt, num_context_tokens=m, mode=mode, init_std=0.7, encoder_seed=seed, init_seed=seed + 1
    )
    return enc, prompts


class TestEncoder:
    def test_create_deterministic(self):
        a = FrozenTextEncoder.create(5, 8, 16)
        b = FrozenTextEncoder.create(5, 8, 16)
        assert np.array_equal(a.projection, b.projection)

    def test_projection_read_only(self):
        enc = FrozenTextEncoder.create(0, 4, 4)
        with pytest.raises(ValueError):
            enc.projection[0, 0] = 1.0

    def test_identity(self):
        # an identity projection embeds a prompt as its normalized pooled token
        enc = FrozenTextEncoder(np.eye(5))
        prompts = PromptSet(np.full((1, 1, 5), 0.5), np.eye(5)[:1])
        pooled = np.array([0.75, 0.25, 0.25, 0.25, 0.25])
        got = encode_all(enc, prompts).embeddings[0]
        assert np.allclose(got, pooled / np.linalg.norm(pooled), atol=1e-15)
        assert enc.seed is None


class TestEncodeForward:
    @pytest.mark.parametrize("mode", [MODE_CLASS_SPECIFIC, MODE_SHARED])
    def test_unit_rows(self, mode):
        enc, prompts = _setup(mode=mode)
        out = encode_all(enc, prompts)
        assert out.embeddings.shape == (4, 10)
        assert np.allclose(np.linalg.norm(out.embeddings, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("mode", [MODE_CLASS_SPECIFIC, MODE_SHARED])
    def test_matches_loop_oracle(self, mode):
        enc, prompts = _setup(mode=mode)
        out = encode_all(enc, prompts)
        for i in range(prompts.num_classes):
            want = encode_prompt_scalar(
                prompts.contexts.tolist(),
                prompts.class_tokens.tolist(),
                enc.projection.tolist(),
                mode,
                i,
            )
            assert np.allclose(out.embeddings[i], want, atol=1e-13)

    def test_token_dim_mismatch(self):
        enc, _ = _setup(dt=6)
        _, prompts = _setup(dt=5)
        with pytest.raises(ConfigError):
            encode_all(enc, prompts)

    def test_degenerate_zero_prompt(self):
        enc = FrozenTextEncoder(np.eye(4))
        prompts = PromptSet(np.zeros((2, 1, 4)), np.zeros((2, 4)))
        with pytest.raises(NumericsError, match="degenerate"):
            encode_all(enc, prompts)


class TestEncodeBackward:
    @pytest.mark.parametrize("mode", [MODE_CLASS_SPECIFIC, MODE_SHARED])
    def test_against_finite_differences(self, mode):
        # f(contexts) = sum(A * embeddings) is linear in the embedding, so
        # grad_embeddings = A exactly; compare the chained context gradient
        # against central differences on f.
        enc, prompts = _setup(mode=mode)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 10))

        def f(contexts):
            p = PromptSet(contexts, prompts.class_tokens, mode=mode, encoder_seed=prompts.encoder_seed)
            return float((a * encode_all(enc, p).embeddings).sum())

        enc_out = encode_all(enc, prompts)
        got = encode_backward(enc, prompts, enc_out, a)
        assert got.shape == (prompts.contexts.shape[0], 1, 6)
        got = np.broadcast_to(got, prompts.contexts.shape)

        h = 1e-6
        fd = np.zeros_like(prompts.contexts)
        it = np.nditer(prompts.contexts, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            up = prompts.contexts.copy()
            down = prompts.contexts.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (f(up) - f(down)) / (2 * h)
            it.iternext()
        assert np.allclose(got, fd, atol=1e-7)

    def test_shared_rows_identical(self):
        # one token row for the shared block: its 3 tokens get it by broadcasting
        enc, prompts = _setup(mode=MODE_SHARED)
        out = encode_all(enc, prompts)
        g = encode_backward(enc, prompts, out, np.ones((4, 10)))
        assert g.shape == (1, 1, 6)

    def test_class_specific_rows_identical_within_class(self):
        # every context token of one class receives the same pooled gradient
        enc, prompts = _setup()
        out = encode_all(enc, prompts)
        g = encode_backward(enc, prompts, out, np.ones((4, 10)))
        assert g.shape == (4, 1, 6)

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("mode", [MODE_CLASS_SPECIFIC, MODE_SHARED])
    def test_pooled_gradient_is_the_per_token_one_broadcast(self, mode, m):
        enc, prompts = _setup(mode=mode, m=m)
        out = encode_all(enc, prompts)
        grad_embeddings = np.random.default_rng(m).standard_normal((4, 10))
        got = encode_backward(enc, prompts, out, grad_embeddings)
        assert got.shape == (prompts.contexts.shape[0], 1, 6)
        want = encode_backward_per_token(enc, prompts, out, grad_embeddings)
        assert np.array_equal(np.broadcast_to(got, prompts.contexts.shape), want)

    def test_radial_component_removed(self):
        # gradient along the embedding direction must not move the embedding
        enc, prompts = _setup()
        out = encode_all(enc, prompts)
        g = encode_backward(enc, prompts, out, out.embeddings.copy())
        assert np.abs(g).max() < 1e-12


class TestInit:
    def test_gaussian_deterministic(self):
        a = init_prompt_set(3, 5, init_seed=4)
        b = init_prompt_set(3, 5, init_seed=4)
        assert np.array_equal(a.contexts, b.contexts)
        c = init_prompt_set(3, 5, init_seed=5)
        assert not np.array_equal(a.contexts, c.contexts)

    def test_gaussian_scale(self):
        p = init_prompt_set(50, 64, num_context_tokens=4, init_std=0.02, init_seed=1)
        assert abs(p.contexts.std() - 0.02) < 0.002

    def test_template_rows_all_equal(self):
        p = init_prompt_set(3, 5, num_context_tokens=2, init="template", encoder_seed=9)
        flat = p.contexts.reshape(-1, 5)
        assert np.array_equal(flat, np.tile(flat[0], (flat.shape[0], 1)))

    def test_unknown_init(self):
        with pytest.raises(ConfigError):
            init_prompt_set(3, 5, init="zeros")

    def test_shared_single_block(self):
        p = init_prompt_set(6, 5, mode=MODE_SHARED)
        assert p.contexts.shape == (1, 4, 5)
        assert p.class_tokens.shape == (6, 5)

    def test_class_tokens_read_only(self):
        p = init_prompt_set(3, 5)
        with pytest.raises(ValueError):
            p.class_tokens[0, 0] = 1.0
        # contexts stay writable: they are the trainable parameters
        p.contexts[0, 0, 0] = 1.0


class TestSerialization:
    # round trips through a written checkpoint are in tests/test_train.py
    def test_bad_mode_rejected(self):
        prompts = _setup()[1]
        doc = {
            "mode": "global",
            "num_context_tokens": prompts.num_context_tokens,
            "token_dim": prompts.token_dim,
            "contexts": prompts.contexts,
            "class_tokens": prompts.class_tokens,
            "encoder_seed": prompts.encoder_seed,
        }
        with pytest.raises(ConfigError):
            prompts_from_dict(doc)
