"""The two embedding towers.

The visual tower maps a (c, 64, 64) image through five conv blocks
(kernel 4, stride 2, padding 1; channels 16, 32, 64, 128, 256, each followed
by batch norm and LeakyReLU), flattens the final (256, 2, 2) map to 1024
values and projects linearly to the latent dimension d. The spike tower maps
an n-dimensional firing-rate vector through a 512-unit hidden layer (batch
norm + LeakyReLU) and a linear projection to the same latent space.

Spike inputs are expected z-scored per neuron with training-set statistics;
that normalization lives with the dataset, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from crossalign import tensor as T
from crossalign.tensor import Tensor

LEAKY_SLOPE = 0.01
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
VISUAL_CHANNELS = (16, 32, 64, 128, 256)
SPIKE_HIDDEN = 512


@dataclass
class BnParams:
    """Learnable affine plus running statistics for one batch-norm layer."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    @staticmethod
    def identity(width: int) -> "BnParams":
        return BnParams(
            gamma=Tensor(np.ones(width), requires_grad=True),
            beta=Tensor(np.zeros(width), requires_grad=True),
            running_mean=np.zeros(width, dtype=T.get_default_dtype()),
            running_var=np.ones(width, dtype=T.get_default_dtype()),
        )


@dataclass
class ConvBlock:
    weight: Tensor
    bias: Tensor
    bn: BnParams


@dataclass
class VisualEncoderParams:
    """Weights of the image tower; ``input_size`` is 64 for the standard stack."""

    blocks: list[ConvBlock]
    proj_weight: Tensor
    proj_bias: Tensor
    channels: int
    latent_dim: int
    input_size: int = 64

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, blk in enumerate(self.blocks, 1):
            out[f"conv{i}.weight"] = blk.weight
            out[f"conv{i}.bias"] = blk.bias
            out[f"bn{i}.gamma"] = blk.bn.gamma
            out[f"bn{i}.beta"] = blk.bn.beta
        out["proj.weight"] = self.proj_weight
        out["proj.bias"] = self.proj_bias
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, blk in enumerate(self.blocks, 1):
            out[f"bn{i}.running_mean"] = blk.bn.running_mean
            out[f"bn{i}.running_var"] = blk.bn.running_var
        return out


@dataclass
class SpikeEncoderParams:
    """Weights of the response tower (n -> 512 -> d)."""

    hidden_weight: Tensor
    hidden_bias: Tensor
    bn: BnParams
    proj_weight: Tensor
    proj_bias: Tensor
    neurons: int
    latent_dim: int

    def named_parameters(self) -> dict[str, Tensor]:
        return {
            "hidden.weight": self.hidden_weight,
            "hidden.bias": self.hidden_bias,
            "bn.gamma": self.bn.gamma,
            "bn.beta": self.bn.beta,
            "proj.weight": self.proj_weight,
            "proj.bias": self.proj_bias,
        }

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {"bn.running_mean": self.bn.running_mean, "bn.running_var": self.bn.running_var}


@dataclass
class VnaParams:
    """The trained pair of towers."""

    visual: VisualEncoderParams
    spike: SpikeEncoderParams

    @property
    def channels(self) -> int:
        return self.visual.channels

    @property
    def neurons(self) -> int:
        return self.spike.neurons

    def named_parameters(self) -> dict[str, Tensor]:
        out = {f"visual.{k}": v for k, v in self.visual.named_parameters().items()}
        out.update({f"spike.{k}": v for k, v in self.spike.named_parameters().items()})
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        out = {f"visual.{k}": v for k, v in self.visual.named_buffers().items()}
        out.update({f"spike.{k}": v for k, v in self.spike.named_buffers().items()})
        return out


# -- initialization -----------------------------------------------------------


def _uniform_fan_in(rng: np.random.Generator, shape: tuple, fan_in: int) -> Tensor:
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def make_conv_tower(
    rng: np.random.Generator,
    channels: int,
    latent_dim: int,
    block_channels=VISUAL_CHANNELS,
    input_size: int = 64,
) -> VisualEncoderParams:
    """Build a conv tower with fresh weights; weights uniform in +-sqrt(1/fan_in)."""
    blocks = []
    cin = channels
    size = input_size
    for cout in block_channels:
        blocks.append(
            ConvBlock(
                weight=_uniform_fan_in(rng, (cout, cin, 4, 4), cin * 16),
                bias=Tensor(np.zeros(cout), requires_grad=True),
                bn=BnParams.identity(cout),
            )
        )
        cin = cout
        size //= 2
    flat = block_channels[-1] * size * size
    return VisualEncoderParams(
        blocks=blocks,
        proj_weight=_uniform_fan_in(rng, (latent_dim, flat), flat),
        proj_bias=Tensor(np.zeros(latent_dim), requires_grad=True),
        channels=channels,
        latent_dim=latent_dim,
        input_size=input_size,
    )


def make_spike_encoder(rng: np.random.Generator, neurons: int, latent_dim: int) -> SpikeEncoderParams:
    return SpikeEncoderParams(
        hidden_weight=_uniform_fan_in(rng, (SPIKE_HIDDEN, neurons), neurons),
        hidden_bias=Tensor(np.zeros(SPIKE_HIDDEN), requires_grad=True),
        bn=BnParams.identity(SPIKE_HIDDEN),
        proj_weight=_uniform_fan_in(rng, (latent_dim, SPIKE_HIDDEN), SPIKE_HIDDEN),
        proj_bias=Tensor(np.zeros(latent_dim), requires_grad=True),
        neurons=neurons,
        latent_dim=latent_dim,
    )


def init_params(seed: int, c: int, n: int, d: int) -> tuple[VisualEncoderParams, SpikeEncoderParams]:
    """Seed-determined initialization of both towers.

    Weights are uniform in +-sqrt(1/fan_in), biases zero, batch-norm gamma 1 /
    beta 0 with running statistics (0, 1).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return make_conv_tower(rng, c, d), make_spike_encoder(rng, n, d)


# -- forward passes -----------------------------------------------------------


def _check_mode(mode: str) -> bool:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def visual_feature_map(params: VisualEncoderParams, images: Tensor, mode: str) -> Tensor:
    """Run the conv blocks only, returning the pre-flatten feature map."""
    training = _check_mode(mode)
    expect = (params.channels, params.input_size, params.input_size)
    if images.ndim != 4 or images.shape[1:] != expect:
        raise ValueError(
            f"visual encoder expects (B, {expect[0]}, {expect[1]}, {expect[2]}) images, got {images.shape}"
        )
    x = images
    for blk in params.blocks:
        x = T.conv2d(x, blk.weight, blk.bias, stride=2, padding=1)
        x = T.batch_norm(
            x, blk.bn.gamma, blk.bn.beta, blk.bn.running_mean, blk.bn.running_var,
            training=training, momentum=BN_MOMENTUM, eps=BN_EPS,
        )
        x = T.leaky_relu(x, LEAKY_SLOPE)
    return x


def visual_encode(params: VisualEncoderParams, images: Tensor, mode: str) -> Tensor:
    """Embed a batch of images: (B, c, 64, 64) -> (B, d)."""
    x = visual_feature_map(params, images, mode)
    b = x.shape[0]
    x = x.reshape((b, -1))
    return T.linear(x, params.proj_weight, params.proj_bias)


def spike_encode(params: SpikeEncoderParams, spikes: Tensor, mode: str) -> Tensor:
    """Embed a batch of z-scored response vectors: (B, n) -> (B, d)."""
    training = _check_mode(mode)
    if spikes.ndim != 2 or spikes.shape[1] != params.neurons:
        raise ValueError(
            f"spike encoder expects (B, {params.neurons}) responses, got {spikes.shape}"
        )
    x = T.linear(spikes, params.hidden_weight, params.hidden_bias)
    x = T.batch_norm(
        x, params.bn.gamma, params.bn.beta, params.bn.running_mean, params.bn.running_var,
        training=training, momentum=BN_MOMENTUM, eps=BN_EPS,
    )
    x = T.leaky_relu(x, LEAKY_SLOPE)
    return T.linear(x, params.proj_weight, params.proj_bias)
