"""Run configuration: JSON ingestion, strict validation, canonical hashing.

The config file is a single JSON document of nested sections.  Each section is
read by ``_read`` into its dataclass (``phasematch.DispersionParams`` for
``dispersion``, then ``SupermodeConfig`` .. ``OutputConfig``), which declares
every field's type and default; the ``_parse_*`` functions, and ``DynamicsConfig``
for its seed, add the range and enum checks.  Unknown keys anywhere are
rejected; error messages name the offending field by dotted path.

Loading checks each field on its own and the sections' presence and lengths against
each other; whether the dispersion admits the requested supermodes is decided once, by
``supermode.build_supermodes`` when a command builds them.
"""

import hashlib
import json
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .phasematch import DispersionParams


class ConfigParseError(Exception):
    """The config file is not readable JSON (exit code 2)."""


class ConfigValidationError(Exception):
    """The config contents violate the schema (exit code 3)."""


FAMILIES = ("lossy", "lossless", "cw-single")


def _is_finite(number) -> bool:
    """False for what ``json`` reads as NaN or +-inf (``NaN``, ``Infinity``, ``1e999``) and
    for an integer too large for a float."""
    return abs(number) <= sys.float_info.max


def _value(value, kind, name: str):
    """The JSON ``value`` of field ``name`` as ``kind``: float (any finite number), int (up to
    the largest numpy index), bool, str, ``X | None`` (read as X) or ``tuple[X, ...]``."""
    if isinstance(kind, UnionType):
        (kind,) = [k for k in get_args(kind) if k is not type(None)]
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigValidationError(f"field `{name}` must be a list")
        return tuple(_value(v, get_args(kind)[0], name) for v in value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number:
        if not _is_finite(value):
            raise ConfigValidationError(f"field `{name}` must be finite")
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigValidationError(f"field `{name}` must be of type {kind.__name__}")
    if kind is int and value > sys.maxsize:  # np.iinfo(np.intp).max, numpy's largest index
        raise ConfigValidationError(f"field `{name}` must be <= {sys.maxsize}")
    return value


def _read(cls, section: dict, path: str) -> dict:
    """The fields of dataclass ``cls`` read from ``section`` by their annotations, as keyword
    arguments; a field with a default may be left out, and any other key is rejected."""
    kinds, values = get_type_hints(cls), {}
    for f in fields(cls):
        if f.name in section:
            values[f.name] = _value(section.pop(f.name), kinds[f.name], f"{path}.{f.name}")
        elif f.default is MISSING:
            raise ConfigValidationError(f"missing required field `{path}.{f.name}`")
    if section:
        raise ConfigValidationError(f"unknown field `{path}.{sorted(section)[0]}`")
    return values


@dataclass(frozen=True)
class SupermodeConfig:
    Np: float
    n_signal: int
    k_max: int
    odd_only: bool = True
    parity_retention: str = "auto"


@dataclass(frozen=True)
class ModelConfig:
    family: str
    cutoffs: tuple[int, ...]
    r: float | None = None
    eta: float | None = None
    p: float | None = None


@dataclass(frozen=True)
class DynamicsConfig:
    t_max: float = 10.0
    n_points: int = 101
    dt: float = 1e-3
    tolerance: float = 1e-8
    n_trajectories: int = 1
    seed: int = 1
    omega_grid: tuple[float, ...] = ()
    channel_index: int = 1
    channel_phase_deg: float = -90.0

    def __post_init__(self):
        # here rather than in _parse_dynamics, so the CLI's --seed override meets it too
        if self.seed < 0:
            raise ConfigValidationError("field `dynamics.seed` must be >= 0")


@dataclass(frozen=True)
class WignerConfig:
    x_max: float = 4.5
    points: int = 121


@dataclass(frozen=True)
class OutputConfig:
    directory: str


@dataclass(frozen=True)
class RunConfig:
    dispersion: DispersionParams | None
    supermode: SupermodeConfig | None
    model: ModelConfig | None
    dynamics: DynamicsConfig
    wigner: WignerConfig
    outputs: OutputConfig
    raw: dict = field(compare=False, default_factory=dict)

    def content_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _parse_dispersion(section: dict) -> DispersionParams:
    values = _read(DispersionParams, section, "dispersion")
    if values["M"] < 0:
        raise ConfigValidationError("field `dispersion.M` must be >= 0")
    if values["g0"] <= 0:
        raise ConfigValidationError("field `dispersion.g0` must be positive")
    return DispersionParams(**values)


def _parse_supermode(section: dict) -> SupermodeConfig:
    cfg = SupermodeConfig(**_read(SupermodeConfig, section, "supermode"))
    if cfg.Np <= 0:
        raise ConfigValidationError("field `supermode.Np` must be positive")
    if cfg.n_signal < 1:
        raise ConfigValidationError("field `supermode.n_signal` must be >= 1")
    if cfg.k_max < 1:
        raise ConfigValidationError("field `supermode.k_max` must be >= 1")
    if cfg.parity_retention not in ("auto", "magnitude"):
        raise ConfigValidationError(
            "field `supermode.parity_retention` must be one of auto|magnitude"
        )
    return cfg


def _parse_model(section: dict) -> ModelConfig:
    cfg = ModelConfig(**_read(ModelConfig, section, "model"))
    family = cfg.family
    if family not in FAMILIES:
        raise ConfigValidationError(f"field `model.family` must be one of {'|'.join(FAMILIES)}")
    if not cfg.cutoffs:
        raise ConfigValidationError("field `model.cutoffs` must not be empty")
    if any(c < 2 for c in cfg.cutoffs):
        raise ConfigValidationError("field `model.cutoffs` entries must be >= 2")
    if family == "lossy":
        if cfg.r is None:
            raise ConfigValidationError("missing required field `model.r` for family lossy")
        if cfg.eta is None:
            raise ConfigValidationError("missing required field `model.eta` for family lossy")
        if cfg.eta <= 0:
            raise ConfigValidationError("field `model.eta` must be positive")
    elif cfg.p is None:
        raise ConfigValidationError(f"missing required field `model.p` for family {family}")
    if family == "cw-single" and len(cfg.cutoffs) != 1:
        raise ConfigValidationError("field `model.cutoffs` must have one entry for cw-single")
    if cfg.r is not None and cfg.r < 0:
        raise ConfigValidationError("field `model.r` must be >= 0")
    if cfg.p is not None and cfg.p < 0:
        raise ConfigValidationError("field `model.p` must be >= 0")
    for name in ("p",) if family == "lossy" else ("r", "eta"):
        if getattr(cfg, name) is not None:
            raise ConfigValidationError(f"field `model.{name}` is not read by family {family}")
    return cfg


def _parse_dynamics(section: dict) -> DynamicsConfig:
    # the spectrum no longer integrates over a tau grid, and the steady state has one method
    for key in ("tau_max", "method"):
        if key in section:
            del section[key]
            warnings.warn(f"field `dynamics.{key}` is deprecated and ignored", FutureWarning)
    cfg = DynamicsConfig(**_read(DynamicsConfig, section, "dynamics"))
    for name, value in (("t_max", cfg.t_max), ("dt", cfg.dt), ("tolerance", cfg.tolerance)):
        if value <= 0:
            raise ConfigValidationError(f"field `dynamics.{name}` must be positive")
    if cfg.n_points < 2:
        raise ConfigValidationError("field `dynamics.n_points` must be >= 2")
    if cfg.n_trajectories < 1:
        raise ConfigValidationError("field `dynamics.n_trajectories` must be >= 1")
    return cfg


def _parse_wigner(section: dict) -> WignerConfig:
    cfg = WignerConfig(**_read(WignerConfig, section, "wigner"))
    if cfg.x_max <= 0:
        raise ConfigValidationError("field `wigner.x_max` must be positive")
    if cfg.points < 11:
        raise ConfigValidationError("field `wigner.points` must be >= 11")
    return cfg


def load_config(path) -> RunConfig:
    """Parse and validate a config file; raises ConfigParseError / ConfigValidationError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigValidationError("top-level config must be a JSON object")
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in raw.items()}

    sections = ("dispersion", "supermode", "model", "dynamics", "wigner", "outputs")
    for key in sorted(data):
        if key not in sections:
            raise ConfigValidationError(f"unknown section `{key}`")

    if "outputs" not in data:
        raise ConfigValidationError("missing required section `outputs`")
    for name in sections:
        if name in data and not isinstance(data[name], dict):
            raise ConfigValidationError(f"section `{name}` must be an object")

    dispersion = _parse_dispersion(data["dispersion"]) if "dispersion" in data else None
    supermode = _parse_supermode(data["supermode"]) if "supermode" in data else None
    model = _parse_model(data["model"]) if "model" in data else None
    dynamics = _parse_dynamics(data.get("dynamics", {}))
    wigner = _parse_wigner(data.get("wigner", {}))
    outputs = OutputConfig(**_read(OutputConfig, data["outputs"], "outputs"))

    if model is not None and model.family != "cw-single":
        if dispersion is None:
            raise ConfigValidationError(
                "missing required section `dispersion` for multimode model families"
            )
        if supermode is None:
            raise ConfigValidationError(
                "missing required section `supermode` for multimode model families"
            )
        if len(model.cutoffs) != supermode.n_signal:
            raise ConfigValidationError(
                "field `model.cutoffs` length must equal `supermode.n_signal`"
            )
    return RunConfig(
        dispersion=dispersion,
        supermode=supermode,
        model=model,
        dynamics=dynamics,
        wigner=wigner,
        outputs=outputs,
        raw=raw,
    )
