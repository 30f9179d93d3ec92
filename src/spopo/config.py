"""Run configuration: JSON ingestion, strict validation, canonical hashing.

The config file is a single JSON document of nested sections, and each section is a
field of ``RunConfig``.  ``_read`` reads the document into ``RunConfig`` and each section
into its dataclass (``phasematch.DispersionParams`` for ``dispersion``, then
``SupermodeConfig`` .. ``OutputConfig``), whose annotations declare each field's whole
rule: its type, a ``Literal`` for an enum, ``Annotated[X, "> 0"]`` or
``Annotated[X, ">= 2"]`` for a lower bound.  A rule between fields sits in the
``__post_init__`` of the dataclass that holds them: the model family's in ``ModelConfig``,
those between sections in ``RunConfig``.  Unknown keys anywhere, and a key repeated within
one object, are rejected; error messages name the offending field by dotted path.

Whether the dispersion admits the requested supermodes is decided once, by
``supermode.build_supermodes`` when a command builds them.
"""

import hashlib
import json
import operator
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Annotated, ClassVar, Literal, get_args, get_origin, get_type_hints

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
    ``tuple[X, ...]``, ``Annotated[X, "<op> <bound>"]`` (X with ``op`` one of ``>=`` ``>``)
    or a dataclass (a section: an object read by ``_read``)."""
    if type(None) in get_args(kind):
        (kind,) = [k for k in get_args(kind) if k is not type(None)]
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigValidationError(f"section `{name}` must be an object")
        return _read(kind, value, name)
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


def _read(cls, section: dict, path: str = ""):
    """Dataclass ``cls`` with its fields read from ``section`` by their annotations, each
    named ``path.field``; a field with a default may be left out, a key in ``cls.deprecated``
    is dropped with a ``FutureWarning``, and any other key is rejected."""
    kinds, values, section = get_type_hints(cls, include_extras=True), {}, dict(section)
    prefix = f"{path}." if path else ""
    for key in getattr(cls, "deprecated", ()):
        if section.pop(key, MISSING) is not MISSING:
            warnings.warn(f"field `{prefix}{key}` is deprecated and ignored", FutureWarning)
    for f in fields(cls):
        if f.name in section and f.metadata.get("schema", True):
            values[f.name] = _value(section.pop(f.name), kinds[f.name], prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigValidationError(f"missing required field `{prefix}{f.name}`")
    if section:
        raise ConfigValidationError(f"unknown field `{prefix}{sorted(section)[0]}`")
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

    def __post_init__(self):
        """The family's rules: lossy reads r and eta, the other two p; cw-single has one mode."""
        family = self.family
        if not self.cutoffs:
            raise ConfigValidationError("field `model.cutoffs` must not be empty")
        read, unread = (("r", "eta"), ("p",)) if family == "lossy" else (("p",), ("r", "eta"))
        for name in read:
            if getattr(self, name) is None:
                raise ConfigValidationError(
                    f"missing required field `model.{name}` for family {family}"
                )
        if family == "cw-single" and len(self.cutoffs) != 1:
            raise ConfigValidationError("field `model.cutoffs` must have one entry for cw-single")
        for name in unread:
            if getattr(self, name) is not None:
                raise ConfigValidationError(f"field `model.{name}` is not read by family {family}")


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
    # the spectrum no longer integrates over a tau grid, and the steady state has one method
    deprecated: ClassVar[tuple[str, ...]] = ("tau_max", "method")


@dataclass(frozen=True)
class WignerConfig:
    x_max: Annotated[float, "> 0"] = 4.5
    points: Annotated[int, ">= 11"] = 121


@dataclass(frozen=True)
class OutputConfig:
    directory: str


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    dispersion: DispersionParams | None = None
    supermode: SupermodeConfig | None = None
    model: ModelConfig | None = None
    dynamics: DynamicsConfig = DynamicsConfig()
    wigner: WignerConfig = WignerConfig()
    outputs: OutputConfig
    # the file's config as read, for the manifest and the hash; it is not a section
    raw: dict = field(compare=False, default_factory=dict, metadata={"schema": False})

    def __post_init__(self):
        """A multimode family builds its supermodes from ``dispersion`` and ``supermode``, and
        takes one cutoff per signal supermode."""
        if self.model is None or self.model.family == "cw-single":
            return
        for name in ("dispersion", "supermode"):
            if getattr(self, name) is None:
                raise ConfigValidationError(
                    f"missing required section `{name}` for multimode model families"
                )
        if len(self.model.cutoffs) != self.supermode.n_signal:
            raise ConfigValidationError(
                "field `model.cutoffs` length must equal `supermode.n_signal`"
            )

    def content_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _unique_keys(pairs: list) -> dict:
    """One JSON object's (key, value) pairs as a dict; a repeated key is a parse error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key `{key}` is repeated")
        obj[key] = value
    return obj


def load_config(path) -> RunConfig:
    """Parse and validate a config file; raises ConfigParseError / ConfigValidationError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, a repeated key or an over-long integer
        raise ConfigParseError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def validate_config(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigValidationError("top-level config must be a JSON object")
    return replace(_read(RunConfig, raw), raw=raw)
