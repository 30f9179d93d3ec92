"""Run configuration: JSON ingestion, strict validation, canonical hashing.

The config file is a single JSON document of nested sections.  Each section is
read by ``_read`` into its dataclass (``phasematch.DispersionParams`` for
``dispersion``, then ``SupermodeConfig`` .. ``OutputConfig``), whose annotations declare
each field's whole rule: its type, a ``Literal`` for an enum, ``Annotated[X, "> 0"]`` or
``Annotated[X, ">= 2"]`` for a lower bound.  ``_parse_model`` adds the rules that depend
on the model family and ``validate_config`` those between sections.  Unknown keys
anywhere are rejected; error messages name the offending field by dotted path.

Whether the dispersion admits the requested supermodes is decided once, by
``supermode.build_supermodes`` when a command builds them.
"""

import hashlib
import json
import operator
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

from .phasematch import DispersionParams


class ConfigParseError(Exception):
    """The config file is not readable JSON (exit code 2)."""


class ConfigValidationError(Exception):
    """The config contents violate the schema (exit code 3)."""


def _is_finite(number) -> bool:
    """False for what ``json`` reads as NaN or +-inf (``NaN``, ``Infinity``, ``1e999``) and
    for an integer too large for a float."""
    return abs(number) <= sys.float_info.max


_BOUNDS = {">=": operator.ge, ">": operator.gt}


def _value(value, kind, name: str):
    """The JSON ``value`` of field ``name`` as ``kind``: float (any finite number), int (up to
    the largest numpy index), bool, str, a ``Literal`` of strings, ``X | None`` (read as X),
    ``tuple[X, ...]`` or ``Annotated[X, "<op> <bound>"]`` (X with ``op`` one of ``>=`` ``>``)."""
    if type(None) in get_args(kind):
        (kind,) = [k for k in get_args(kind) if k is not type(None)]
    if get_origin(kind) is Annotated:
        kind, rule = get_args(kind)
        value = _value(value, kind, name)
        op, bound = rule.split()
        if not _BOUNDS[op](value, float(bound)):
            raise ConfigValidationError(f"field `{name}` must be {rule}")
        return value
    if get_origin(kind) is Literal:
        if not (isinstance(value, str) and value in get_args(kind)):
            raise ConfigValidationError(f"field `{name}` must be one of {'|'.join(get_args(kind))}")
        return value
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


def _read(cls, section: dict, path: str):
    """Dataclass ``cls`` with its fields read from ``section`` by their annotations; a field
    with a default may be left out, and any other key is rejected."""
    kinds, values = get_type_hints(cls, include_extras=True), {}
    for f in fields(cls):
        if f.name in section:
            values[f.name] = _value(section.pop(f.name), kinds[f.name], f"{path}.{f.name}")
        elif f.default is MISSING:
            raise ConfigValidationError(f"missing required field `{path}.{f.name}`")
    if section:
        raise ConfigValidationError(f"unknown field `{path}.{sorted(section)[0]}`")
    return cls(**values)


@dataclass(frozen=True)
class SupermodeConfig:
    Np: Annotated[float, "> 0"]
    n_signal: Annotated[int, ">= 1"]
    k_max: Annotated[int, ">= 1"]
    odd_only: bool = True
    parity_retention: Literal["auto", "magnitude"] = "auto"


@dataclass(frozen=True)
class ModelConfig:
    family: Literal["lossy", "lossless", "cw-single"]
    cutoffs: tuple[Annotated[int, ">= 2"], ...]
    r: Annotated[float, ">= 0"] | None = None
    eta: Annotated[float, "> 0"] | None = None
    p: Annotated[float, ">= 0"] | None = None


@dataclass(frozen=True)
class DynamicsConfig:
    t_max: Annotated[float, "> 0"] = 10.0
    n_points: Annotated[int, ">= 2"] = 101
    dt: Annotated[float, "> 0"] = 1e-3
    tolerance: Annotated[float, "> 0"] = 1e-8
    n_trajectories: Annotated[int, ">= 1"] = 1
    seed: Annotated[int, ">= 0"] = 1
    omega_grid: tuple[float, ...] = ()
    channel_index: int = 1
    channel_phase_deg: float = -90.0


@dataclass(frozen=True)
class WignerConfig:
    x_max: Annotated[float, "> 0"] = 4.5
    points: Annotated[int, ">= 11"] = 121


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


def _parse_model(section: dict) -> ModelConfig:
    cfg = _read(ModelConfig, section, "model")
    family = cfg.family
    if not cfg.cutoffs:
        raise ConfigValidationError("field `model.cutoffs` must not be empty")
    read, unread = (("r", "eta"), ("p",)) if family == "lossy" else (("p",), ("r", "eta"))
    for name in read:
        if getattr(cfg, name) is None:
            raise ConfigValidationError(
                f"missing required field `model.{name}` for family {family}"
            )
    if family == "cw-single" and len(cfg.cutoffs) != 1:
        raise ConfigValidationError("field `model.cutoffs` must have one entry for cw-single")
    for name in unread:
        if getattr(cfg, name) is not None:
            raise ConfigValidationError(f"field `model.{name}` is not read by family {family}")
    return cfg


def _parse_dynamics(section: dict) -> DynamicsConfig:
    # the spectrum no longer integrates over a tau grid, and the steady state has one method
    for key in ("tau_max", "method"):
        if key in section:
            del section[key]
            warnings.warn(f"field `dynamics.{key}` is deprecated and ignored", FutureWarning)
    return _read(DynamicsConfig, section, "dynamics")


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

    dispersion = (_read(DispersionParams, data["dispersion"], "dispersion")
                  if "dispersion" in data else None)
    supermode = (_read(SupermodeConfig, data["supermode"], "supermode")
                 if "supermode" in data else None)
    model = _parse_model(data["model"]) if "model" in data else None
    dynamics = _parse_dynamics(data.get("dynamics", {}))
    wigner = _read(WignerConfig, data.get("wigner", {}), "wigner")
    outputs = _read(OutputConfig, data["outputs"], "outputs")

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
