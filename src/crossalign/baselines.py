"""Regression baselines: image-to-response and response-to-image.

Direct encoding reuses the visual tower with its projection widened to the
neuron count n and trains with MSE against z-scored responses. Direct
decoding runs the spike trunk (n -> 512 -> 1024), reshapes to (256, 2, 2) and
mirrors the conv stack with five transposed convolutions (kernel 4, stride 2,
padding 1; channels 128, 64, 32, 16, c), batch norm and LeakyReLU between
blocks and a final sigmoid into [0, 1].

Retrieval (``crossalign.evaluation``) scores both baselines by negated
Euclidean distance, so that higher is better everywhere in the toolkit; the
induced ranking equals the usual smallest-distance rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crossalign import tensor as T
from crossalign.encoders import (
    BN_EPS,
    BN_MOMENTUM,
    LEAKY_SLOPE,
    SPIKE_HIDDEN,
    BnParams,
    VisualEncoderParams,
    _check_mode,
    _uniform_fan_in,
    make_conv_tower,
)
from crossalign.tensor import Tensor

DECODER_CHANNELS = (128, 64, 32, 16)


@dataclass
class DirectEncoderParams:
    """Visual tower whose projection outputs one value per neuron."""

    tower: VisualEncoderParams
    neurons: int

    @property
    def channels(self) -> int:
        return self.tower.channels

    def named_parameters(self) -> dict[str, Tensor]:
        return self.tower.named_parameters()

    def named_buffers(self) -> dict[str, np.ndarray]:
        return self.tower.named_buffers()


@dataclass
class DeconvBlock:
    weight: Tensor  # (C_in, C_out, 4, 4)
    bias: Tensor
    bn: BnParams


@dataclass
class DirectDecoderParams:
    """Spike trunk plus mirrored transposed-conv stack ending in sigmoid."""

    hidden_weight: Tensor
    hidden_bias: Tensor
    bn_hidden: BnParams
    expand_weight: Tensor  # (1024, 512)
    expand_bias: Tensor
    blocks: list[DeconvBlock]
    final_weight: Tensor  # (16, c, 4, 4)
    final_bias: Tensor
    neurons: int
    channels: int

    def named_parameters(self) -> dict[str, Tensor]:
        out = {
            "hidden.weight": self.hidden_weight,
            "hidden.bias": self.hidden_bias,
            "bn_hidden.gamma": self.bn_hidden.gamma,
            "bn_hidden.beta": self.bn_hidden.beta,
            "expand.weight": self.expand_weight,
            "expand.bias": self.expand_bias,
        }
        for i, blk in enumerate(self.blocks, 1):
            out[f"deconv{i}.weight"] = blk.weight
            out[f"deconv{i}.bias"] = blk.bias
            out[f"bn{i}.gamma"] = blk.bn.gamma
            out[f"bn{i}.beta"] = blk.bn.beta
        out["final.weight"] = self.final_weight
        out["final.bias"] = self.final_bias
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        out = {
            "bn_hidden.running_mean": self.bn_hidden.running_mean,
            "bn_hidden.running_var": self.bn_hidden.running_var,
        }
        for i, blk in enumerate(self.blocks, 1):
            out[f"bn{i}.running_mean"] = blk.bn.running_mean
            out[f"bn{i}.running_var"] = blk.bn.running_var
        return out


def init_direct_encoder(seed: int, c: int, n: int) -> DirectEncoderParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return DirectEncoderParams(tower=make_conv_tower(rng, c, latent_dim=n), neurons=n)


def init_direct_decoder(seed: int, c: int, n: int) -> DirectDecoderParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    blocks = []
    cin = 256
    for cout in DECODER_CHANNELS:
        blocks.append(
            DeconvBlock(
                weight=_uniform_fan_in(rng, (cin, cout, 4, 4), cin * 16),
                bias=Tensor(np.zeros(cout), requires_grad=True),
                bn=BnParams.identity(cout),
            )
        )
        cin = cout
    return DirectDecoderParams(
        hidden_weight=_uniform_fan_in(rng, (SPIKE_HIDDEN, n), n),
        hidden_bias=Tensor(np.zeros(SPIKE_HIDDEN), requires_grad=True),
        bn_hidden=BnParams.identity(SPIKE_HIDDEN),
        expand_weight=_uniform_fan_in(rng, (1024, SPIKE_HIDDEN), SPIKE_HIDDEN),
        expand_bias=Tensor(np.zeros(1024), requires_grad=True),
        blocks=blocks,
        final_weight=_uniform_fan_in(rng, (16, c, 4, 4), 16 * 16),
        final_bias=Tensor(np.zeros(c), requires_grad=True),
        neurons=n,
        channels=c,
    )


def direct_encode_predict(params: DirectEncoderParams, images: Tensor, mode: str) -> Tensor:
    """Predict a response vector per image: (B, c, 64, 64) -> (B, n)."""
    from crossalign.encoders import visual_encode

    return visual_encode(params.tower, images, mode)


def direct_decode_predict(params: DirectDecoderParams, spikes: Tensor, mode: str) -> Tensor:
    """Predict an image per response vector: (B, n) -> (B, c, 64, 64)."""
    training = _check_mode(mode)
    if spikes.ndim != 2 or spikes.shape[1] != params.neurons:
        raise ValueError(
            f"decoder expects (B, {params.neurons}) responses, got {spikes.shape}"
        )
    x = T.linear(spikes, params.hidden_weight, params.hidden_bias)
    x = T.batch_norm(
        x, params.bn_hidden.gamma, params.bn_hidden.beta,
        params.bn_hidden.running_mean, params.bn_hidden.running_var,
        training=training, momentum=BN_MOMENTUM, eps=BN_EPS,
    )
    x = T.leaky_relu(x, LEAKY_SLOPE)
    x = T.linear(x, params.expand_weight, params.expand_bias)
    x = x.reshape((x.shape[0], 256, 2, 2))
    for blk in params.blocks:
        x = T.conv_transpose2d(x, blk.weight, blk.bias, stride=2, padding=1)
        x = T.batch_norm(
            x, blk.bn.gamma, blk.bn.beta, blk.bn.running_mean, blk.bn.running_var,
            training=training, momentum=BN_MOMENTUM, eps=BN_EPS,
        )
        x = T.leaky_relu(x, LEAKY_SLOPE)
    x = T.conv_transpose2d(x, params.final_weight, params.final_bias, stride=2, padding=1)
    return T.sigmoid(x)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared difference over all elements."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return (diff * diff).mean()

