"""Run configuration: pruning, loss weights, fusion, optimizer, and ablation flags."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping

from .errors import InputFormatError

GATE_MODES = ("gated", "concat")
HISTORY_MODES = ("flow", "last")


@dataclass
class EncoderSettings:
    """Width/depth of the reference encoder; vocab size comes from the data."""

    d: int = 64
    n_layers: int = 1
    n_heads: int = 2

    def to_dict(self) -> dict:
        return {"d": self.d, "n_layers": self.n_layers, "n_heads": self.n_heads}


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
    nil_override: bool = True
    no_rerank: bool = False
    no_query_update: bool = False
    gate_mode: str = "gated"
    history_mode: str = "flow"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputFormatError("k must be >= 1")
        if self.alpha1 < 0 or self.alpha2 < 0 or self.alpha1 + self.alpha2 <= 0:
            raise InputFormatError("loss weights must be non-negative with a positive sum")
        if not 0.0 <= self.beta <= 1.0:
            raise InputFormatError("beta must be in [0, 1]")
        if self.gate_mode not in GATE_MODES:
            raise InputFormatError(f"gate_mode must be one of {GATE_MODES}")
        if self.history_mode not in HISTORY_MODES:
            raise InputFormatError(f"history_mode must be one of {HISTORY_MODES}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            key = "K" if f.name == "k" else f.name
            out[key] = v.to_dict() if isinstance(v, EncoderSettings) else v
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        kwargs = dict(data)
        if "K" in kwargs:
            if "k" in kwargs:
                raise InputFormatError("config may not set both 'K' and 'k'")
            kwargs["k"] = kwargs.pop("K")
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise InputFormatError(f"unknown config keys: {sorted(unknown)}")
        if "encoder" in kwargs and isinstance(kwargs["encoder"], Mapping):
            enc = kwargs["encoder"]
            bad = set(enc) - {"d", "n_layers", "n_heads"}
            if bad:
                raise InputFormatError(f"unknown encoder config keys: {sorted(bad)}")
            kwargs["encoder"] = EncoderSettings(**enc)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InputFormatError(f"bad config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputFormatError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
