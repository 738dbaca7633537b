"""ResNet-18 and its searchable variants (paper Sections 3.1-3.2).

:class:`SearchableResNet18` exposes exactly the Figure-2 knobs:

- stem convolution ``kernel_size`` / ``stride`` / ``padding``;
- optional max-pooling stage (``pool_choice``) with its own
  ``kernel_size_pool`` / ``stride_pool``;
- ``initial_output_feature`` f, widening through the four stages as
  ``[f, 2f, 4f, 8f]`` (the standard ResNet-18 progression — see DESIGN.md
  for why the paper's "amplified by a factor of four" text is overridden
  by its own Table 4/5 memory numbers);
- input channels 5 or 7 and a binary classification head.

The stock baseline (``build_baseline_resnet18``) is the f=64, 7x7/2/3 stem
with 3x3/2 max pool — torchvision's ResNet-18 adapted to N input channels
and 2 classes, the comparison model of paper Table 5.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.tensor.tensor import Tensor
from repro.utils.rng import SeedSequenceFactory

__all__ = ["BasicBlock", "SearchableResNet18", "build_baseline_resnet18", "build_model", "STAGE_WIDTH_MULTIPLIERS"]

# ResNet-18 widens by powers of two over its four stages.
STAGE_WIDTH_MULTIPLIERS = (1, 2, 4, 8)
BLOCKS_PER_STAGE = 2


class BasicBlock(Module):
    """The two-convolution residual block of ResNet-18.

    ``conv3x3 - BN - ReLU - conv3x3 - BN``, added to the (possibly
    1x1-projected) input, then ReLU.  ``init`` is passed to every conv
    (see :class:`~repro.nn.layers.Conv2d`).
    """

    def __init__(
        self, in_channels: int, out_channels: int, stride: int = 1, rng=None, *, init: bool = True
    ) -> None:
        super().__init__()
        # Integer seeds: a conv builds its generator only when it initializes.
        seeds = SeedSequenceFactory(0 if rng is None else int(rng))
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, bias=False,
            rng=seeds.seed_for("conv1"), init=init,
        )
        self.bn1 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        self.conv2 = Conv2d(
            out_channels, out_channels, 3, stride=1, padding=1, bias=False,
            rng=seeds.seed_for("conv2"), init=init,
        )
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.downsample: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False,
                       rng=seeds.seed_for("down"), init=init),
                BatchNorm2d(out_channels),
            )
        else:
            self.downsample = Identity()

    def forward(self, x: Tensor) -> Tensor:
        identity = self.downsample(x)
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return (out + identity).relu()


class SearchableResNet18(Module):
    """ResNet-18 parameterized by the paper's Figure-2 search space.

    Parameters
    ----------
    in_channels:
        5 (DEM + R, G, B, NIR) or 7 (+ NDVI, NDWI); any positive value is
        accepted so the model generalizes beyond the paper's dataset.
    num_classes:
        Output logits; 2 for drainage-crossing presence/absence.
    kernel_size, stride, padding:
        Stem convolution geometry (searched over {3,7} x {1,2} x {1,2,3}).
    pool_choice:
        1 to include the stem max-pool stage, 0 to skip it.
    kernel_size_pool, stride_pool:
        Max-pool geometry, only meaningful when ``pool_choice`` is 1.
    initial_output_feature:
        Stage-one width f (searched over {32, 48, 64}); later stages use
        2f, 4f, 8f and the FC head consumes 8f features.
    seed:
        Deterministic weight-init seed.
    init:
        ``False`` builds a weight-free skeleton (read-only zero weights,
        no generators) for architecture measurement: tracing, FLOPs and
        serialized size need shapes only.  Training and serving need
        ``init=True``.
    """

    def __init__(
        self,
        in_channels: int = 5,
        num_classes: int = 2,
        kernel_size: int = 7,
        stride: int = 2,
        padding: int = 3,
        pool_choice: int = 1,
        kernel_size_pool: int = 3,
        stride_pool: int = 2,
        initial_output_feature: int = 64,
        seed: int = 0,
        *,
        init: bool = True,
    ) -> None:
        super().__init__()
        if in_channels < 1:
            raise ValueError(f"in_channels must be positive, got {in_channels}")
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        if initial_output_feature < 1:
            raise ValueError(f"initial_output_feature must be positive, got {initial_output_feature}")
        if pool_choice not in (0, 1):
            raise ValueError(f"pool_choice must be 0 or 1, got {pool_choice}")

        seeds = SeedSequenceFactory(seed)
        f = initial_output_feature
        self.in_channels = in_channels
        self.num_classes = num_classes
        self.config = {
            "kernel_size": kernel_size,
            "stride": stride,
            "padding": padding,
            "pool_choice": pool_choice,
            "kernel_size_pool": kernel_size_pool,
            "stride_pool": stride_pool,
            "initial_output_feature": f,
        }

        self.conv1 = Conv2d(
            in_channels, f, kernel_size, stride=stride, padding=padding, bias=False,
            rng=seeds.seed_for("stem"), init=init,
        )
        self.bn1 = BatchNorm2d(f)
        self.relu = ReLU()
        self.maxpool: Module = (
            MaxPool2d(kernel_size_pool, stride_pool) if pool_choice == 1 else Identity()
        )

        widths = [f * m for m in STAGE_WIDTH_MULTIPLIERS]
        strides = [1, 2, 2, 2]
        in_width = f
        for stage_idx, (width, stage_stride) in enumerate(zip(widths, strides), start=1):
            blocks = []
            for block_idx in range(BLOCKS_PER_STAGE):
                block_stride = stage_stride if block_idx == 0 else 1
                blocks.append(
                    BasicBlock(
                        in_width,
                        width,
                        stride=block_stride,
                        rng=seeds.seed_for("stage", stage_idx, "block", block_idx),
                        init=init,
                    )
                )
                in_width = width
            setattr(self, f"layer{stage_idx}", Sequential(*blocks))

        self.avgpool = GlobalAvgPool2d()
        self.fc = Linear(widths[-1], num_classes, rng=seeds.seed_for("fc"), init=init)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (N, {self.in_channels}, H, W), got shape {tuple(x.shape)}"
            )
        x = self.maxpool(self.relu(self.bn1(self.conv1(x))))
        x = self.layer1(x)
        x = self.layer2(x)
        x = self.layer3(x)
        x = self.layer4(x)
        return self.fc(self.avgpool(x))

    def predict(self, x: Tensor):
        """Class predictions (argmax over logits) as an int array."""
        from repro.tensor.tensor import no_grad

        with no_grad():
            logits = self.forward(x)
        return logits.data.argmax(axis=1)


def build_baseline_resnet18(in_channels: int = 5, num_classes: int = 2, seed: int = 0) -> SearchableResNet18:
    """The stock ResNet-18 configuration used as the paper's benchmark."""
    return SearchableResNet18(
        in_channels=in_channels,
        num_classes=num_classes,
        kernel_size=7,
        stride=2,
        padding=3,
        pool_choice=1,
        kernel_size_pool=3,
        stride_pool=2,
        initial_output_feature=64,
        seed=seed,
    )


_CONFIG_KEYS = (
    "kernel_size",
    "stride",
    "padding",
    "pool_choice",
    "kernel_size_pool",
    "stride_pool",
    "initial_output_feature",
)


def build_model(
    config: Mapping[str, Any] | Any, num_classes: int = 2, seed: int = 0, *, init: bool = True
) -> SearchableResNet18:
    """Build a :class:`SearchableResNet18` from a search-space configuration.

    ``config`` may be a mapping or any object exposing the Figure-2 field
    names as attributes (e.g. :class:`repro.nas.config.ModelConfig`); it
    must also carry ``channels`` (the input channel count).  Pass
    ``init=False`` when the model is only traced or sized, never run.
    """

    def get(key: str):
        if isinstance(config, Mapping):
            return config[key]
        return getattr(config, key)

    kwargs = {key: int(get(key)) for key in _CONFIG_KEYS}
    return SearchableResNet18(
        in_channels=int(get("channels")),
        num_classes=num_classes,
        seed=seed,
        init=init,
        **kwargs,
    )
