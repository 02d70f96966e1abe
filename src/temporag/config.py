"""Run configuration: one JSON file drives every command.

Unknown keys are rejected rather than ignored, and the effective
configuration is echoed at startup so runs are reproducible from logs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .pipeline import MIN_BUDGET_TOKENS, FusionMode
from .rescore import DecayParams, RescoreConfig, TimeNorm
from .frames import SelectorConfig
from .ingest import FRAME_INDEX_LIMIT
from .types import is_finite_number
from .vectorindex import MIN_HASH_DIM


@dataclass(frozen=True)
class ProviderConfig:
    """Which provider backs each external call, plus endpoint overrides.

    A URL set here overrides its TEMPORAG_*_URL environment variable. Keys,
    tokens and the LVLM model come only from the environment
    (``providers.HttpClient``).
    """

    lvlm: str = "stub"  # stub | http
    embed: str = "hash"  # hash | http
    detector: str = "stub"  # stub | http | fixture
    embed_dim: int = 64
    embed_seed: int = 7
    lvlm_url: str | None = None
    embed_url: str | None = None
    detector_url: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Union of all module settings. Defaults follow the reference setup:

    acceptance threshold 0.3 for both dense retrieval and keyframe gating,
    unit decay strengths, top 10 snippets from a 3x candidate pool, and a
    2048-token prompt budget.
    """

    tau: float = 0.3
    lambda0: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    time_norm: str = TimeNorm.NORMALIZED_BY_DURATION.value
    top_k: int = 10
    pool_multiplier: int = 3
    fusion: str = FusionMode.LEXICAL.value
    budget_tokens: int = 2048
    n_bins: int = 8
    max_frames: int = 16
    providers: ProviderConfig = field(default_factory=ProviderConfig)

    @property
    def lambdas(self) -> tuple[float, float, float]:
        return (self.lambda0, self.lambda1, self.lambda2)

    def decay_params(self) -> DecayParams:
        return DecayParams(lambdas=self.lambdas, time_norm=TimeNorm(self.time_norm))

    def rescore_config(self) -> RescoreConfig:
        return RescoreConfig(top_k=self.top_k, pool_multiplier=self.pool_multiplier)

    def selector_config(self) -> SelectorConfig:
        return SelectorConfig(
            max_frames=self.max_frames, sim_threshold=self.tau, n_bins=self.n_bins
        )

    def fusion_mode(self) -> FusionMode:
        return FusionMode(self.fusion)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def replace(self, **overrides) -> "RunConfig":
        """A copy with ``overrides``, checked as a loaded config is."""
        cfg = dataclasses.replace(self, **overrides)
        _validate(cfg)
        return cfg


_RUN_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_PROVIDER_FIELDS = {f.name for f in dataclasses.fields(ProviderConfig)}
_VALID_FUSIONS = {m.value for m in FusionMode}
_VALID_TIME_NORMS = {m.value for m in TimeNorm}
# The widest text embeddings in common use. The hash embedder holds dim
# float64s per distinct token, so a larger value is a typo that would end
# in an allocation failure, not a usable index.
MAX_EMBED_DIM = 4096


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _RUN_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    providers_data = data.get("providers", {})
    if not isinstance(providers_data, dict):
        raise ConfigError("providers must be an object")
    unknown = set(providers_data) - _PROVIDER_FIELDS
    if unknown:
        raise ConfigError(f"unknown provider keys: {', '.join(sorted(unknown))}")
    try:
        providers = ProviderConfig(**providers_data)
        cfg = RunConfig(**{**{k: v for k, v in data.items() if k != "providers"},
                           "providers": providers})
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not isinstance(cfg.fusion, str) or cfg.fusion not in _VALID_FUSIONS:
        raise ConfigError(f"fusion must be one of {sorted(_VALID_FUSIONS)}, got {cfg.fusion!r}")
    if not isinstance(cfg.time_norm, str) or cfg.time_norm not in _VALID_TIME_NORMS:
        raise ConfigError(
            f"time_norm must be one of {sorted(_VALID_TIME_NORMS)}, got {cfg.time_norm!r}"
        )
    for name in ("top_k", "pool_multiplier", "budget_tokens", "n_bins", "max_frames"):
        value = getattr(cfg, name)
        if type(value) is not int or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if name in ("n_bins", "max_frames") and value > FRAME_INDEX_LIMIT:
            raise ConfigError(f"{name} must be at most 2**32, the frame index range, got {value}")
    if cfg.budget_tokens < MIN_BUDGET_TOKENS:
        raise ConfigError(
            f"budget_tokens must be at least {MIN_BUDGET_TOKENS}, got {cfg.budget_tokens}"
        )
    for name, least, kind in (("embed_dim", 1, "positive"), ("embed_seed", 0, "non-negative")):
        value = getattr(cfg.providers, name)
        if type(value) is not int or value < least:
            raise ConfigError(f"providers.{name} must be a {kind} integer, got {value!r}")
    # ``eval`` embeds with the hash embedder whatever ``providers.embed`` names.
    if cfg.providers.embed_dim < MIN_HASH_DIM:
        raise ConfigError(
            f"providers.embed_dim must be a positive integer of at least {MIN_HASH_DIM}, "
            f"got {cfg.providers.embed_dim!r}"
        )
    if cfg.providers.embed_dim > MAX_EMBED_DIM:
        raise ConfigError(
            f"providers.embed_dim must be a positive integer of at most {MAX_EMBED_DIM}, "
            f"got {cfg.providers.embed_dim!r}"
        )
    for name in ("tau", "lambda0", "lambda1", "lambda2"):
        value = getattr(cfg, name)
        if not is_finite_number(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if name != "tau" and value < 0:
            raise ConfigError(f"{name} must be non-negative")
    if cfg.providers.lvlm not in ("stub", "http"):
        raise ConfigError(f"providers.lvlm must be stub or http, got {cfg.providers.lvlm!r}")
    if cfg.providers.embed not in ("hash", "http"):
        raise ConfigError(f"providers.embed must be hash or http, got {cfg.providers.embed!r}")
    if cfg.providers.detector not in ("stub", "http", "fixture"):
        raise ConfigError(
            f"providers.detector must be stub, http or fixture, got {cfg.providers.detector!r}"
        )
    for name in ("lvlm_url", "embed_url", "detector_url"):
        value = getattr(cfg.providers, name)
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"providers.{name} must be a string or null, got {value!r}")
    if cfg.n_bins > cfg.max_frames:
        raise ConfigError(f"n_bins ({cfg.n_bins}) must not exceed max_frames ({cfg.max_frames})")


def load_config(path: str | None) -> RunConfig:
    """Load a config file; None loads pure defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)
