"""Each tunable setting's default and bound, checked by the library and the CLI."""

import math
from collections import namedtuple

Setting = namedtuple("Setting", "default test text")  # text: the bound, as a refusal says it
SETTINGS = {
    "seed": Setting(7, lambda v: v >= 0, ">= 0"),
    "beta": Setting(1.0, lambda v: v > 0, "> 0"),
    # a smaller step overflows the checkpoint search
    "step": Setting(0.05, lambda v: 1e-300 <= v <= 0.05, "in [1e-300, 0.05]"),
    "dim": Setting(768, lambda v: v >= 2, ">= 2"),  # the width-2 conv needs 2 values
    "pair_cap": Setting(200, lambda v: v >= 0, ">= 0"),  # bounds similarity sets' quadratic cost
    "epochs": Setting(300, lambda v: v >= 1, ">= 1"),
    "learning_rate": Setting(0.01, math.isfinite, "finite"),
    "momentum": Setting(0.9, math.isfinite, "finite"),
    "batch_size": Setting(32, lambda v: v >= 1, ">= 1"),
    "folds": Setting(10, lambda v: v >= 2, ">= 2"),
    "threshold_k": Setting(0, lambda v: v >= 0, ">= 0"),
}


def check(setting: str, value, param: str | None = None) -> None:
    """Refuse ``value`` outside ``setting``'s bound, naming ``param`` (the setting by default)."""
    if not SETTINGS[setting].test(value):
        raise ValueError(f"{param or setting} must be {SETTINGS[setting].text}, got {value!r}")
