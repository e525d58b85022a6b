"""Run configuration: pruning, loss weights, fusion, optimizer, and ablation flags."""
from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Mapping

import numpy as np

from .corpus import MIN_MAX_LEN
from .encoder import EncoderConfig
from .errors import InputFormatError
from .jsonl import finite

GATE_MODES = ("gated", "concat")
HISTORY_MODES = ("flow", "last")


@dataclass
class EncoderSettings:
    """Width/depth of the reference encoder; vocab size comes from the data."""

    d: int = 64
    n_layers: int = 1
    n_heads: int = 2


@dataclass
class RunConfig:
    k: int = 5
    alpha1: float = 0.75
    alpha2: float = 0.25
    beta: float = 0.5
    nil_threshold: float = 0.5
    seed: int = 0
    encoder: EncoderSettings = field(default_factory=EncoderSettings)
    max_len_local: int = 256
    max_len_global: int = 512
    lr_local: float = 5e-6
    lr_global: float = 1e-5
    warmup: float = 0.1
    epochs_local: int = 5
    epochs_global: int = 5
    stop_accuracy: float | None = None
    nil_verifier: bool = True
    no_rerank: bool = False
    no_query_update: bool = False
    gate_mode: str = "gated"
    history_mode: str = "flow"

    def __post_init__(self) -> None:
        # every value, the encoder's too, must have the type of its default:
        # an int passes for a float, a bool never passes for a number, and
        # a None default takes None or a number; a number in a float field
        # must convert to a finite float
        for obj in (self, self.encoder):
            for f in fields(obj):
                default = f.default_factory() if f.default is MISSING else f.default
                value = getattr(obj, f.name)
                if default is None and value is None:
                    continue
                want = (int, float) if default is None or type(default) is float else type(default)
                if (
                    isinstance(value, bool) != isinstance(default, bool)
                    or not isinstance(value, want)
                    or (want == (int, float) and not finite(value))
                ):
                    kind = want.__name__ if want != (int, float) else "a finite number"
                    kind = "null or " + kind if default is None else kind
                    raise InputFormatError(f"config field {f.name!r} must be {kind}, got {value!r}")
        if self.k < 1:
            raise InputFormatError("k must be >= 1")
        if self.alpha1 < 0 or self.alpha2 < 0 or self.alpha1 + self.alpha2 <= 0:
            raise InputFormatError("loss weights must be non-negative with a positive sum")
        for name in ("beta", "nil_threshold", "warmup", "stop_accuracy"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise InputFormatError(f"{name} must be in [0, 1]")
        if self.gate_mode not in GATE_MODES:
            raise InputFormatError(f"gate_mode must be one of {GATE_MODES}")
        if self.history_mode not in HISTORY_MODES:
            raise InputFormatError(f"history_mode must be one of {HISTORY_MODES}")
        if min(self.max_len_local, self.max_len_global) < MIN_MAX_LEN:
            raise InputFormatError(f"max_len_local and max_len_global must be >= {MIN_MAX_LEN}")
        if min(self.seed, self.epochs_local, self.epochs_global, self.lr_local, self.lr_global) < 0:
            raise InputFormatError("seed, epochs_local, epochs_global, lr_local and lr_global must be >= 0")
        try:
            EncoderConfig(vocab_size=1, max_len=self.max_len_local, seed=self.seed, **asdict(self.encoder))
        except ValueError as exc:
            raise InputFormatError(f"bad encoder config: {exc}") from exc
        # a position table or FFN matrix of more bytes than numpy can index
        # would end in a ValueError from the initializer
        d = self.encoder.d
        tables = {"max_len_local": self.max_len_local * d, "max_len_global": self.max_len_global * d, "d": 4 * d * d}
        for name, size in tables.items():
            if 8 * size > np.iinfo(np.intp).max:
                raise InputFormatError(f"config field {name!r} too large: {size} float64s exceed numpy's largest array")

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        kwargs = dict(data)
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise InputFormatError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(kwargs.get("encoder"), Mapping):
            bad = set(kwargs["encoder"]) - {f.name for f in fields(EncoderSettings)}
            if bad:
                raise InputFormatError(f"unknown encoder config keys: {sorted(bad)}")
            kwargs["encoder"] = EncoderSettings(**kwargs["encoder"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """Read a JSON config object; any error names ``path``."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise InputFormatError("config must be a JSON object")
            return cls.from_dict(data)
        # a UTF-8 or JSON decode error, JSON nested too deeply, or a bad value
        except (ValueError, RecursionError) as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
