"""Run configuration: JSON ingestion, strict validation, canonical hashing.

The config file is a single JSON document of nested sections; the section
dataclasses below (``DispersionConfig`` .. ``OutputConfig``) give each
section's fields and defaults, and the ``_parse_*`` functions their checks.
Unknown keys anywhere are rejected; error messages name the offending field
by dotted path.
"""

import hashlib
import json
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path


class ConfigParseError(Exception):
    """The config file is not readable JSON (exit code 2)."""


class ConfigValidationError(Exception):
    """The config contents violate the schema (exit code 3)."""


FAMILIES = ("lossy", "lossless", "cw-single")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(number) -> bool:
    """False for what ``json`` reads as NaN or +-inf (``NaN``, ``Infinity``, ``1e999``) and
    for an integer too large for a float."""
    return abs(number) <= sys.float_info.max


def _require(section: dict, path: str, key: str, kind, *, optional=False, default=None):
    if key not in section:
        if optional:
            return default
        raise ConfigValidationError(f"missing required field `{path}.{key}`")
    value = section.pop(key)
    if kind is float and _is_number(value):
        if not _is_finite(value):
            raise ConfigValidationError(f"field `{path}.{key}` must be finite")
        value = float(value)
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigValidationError(f"field `{path}.{key}` must be an integer")
    if not isinstance(value, kind):
        raise ConfigValidationError(
            f"field `{path}.{key}` must be of type {kind.__name__}"
        )
    return value


def _reject_unknown(section: dict, path: str):
    if section:
        key = sorted(section)[0]
        raise ConfigValidationError(f"unknown field `{path}.{key}`")


@dataclass(frozen=True)
class DispersionConfig:
    beta1: float
    beta2s: float
    beta2p: float
    g0: float
    M: int


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
    method: str = "auto"


@dataclass(frozen=True)
class WignerConfig:
    x_max: float = 4.5
    points: int = 121


@dataclass(frozen=True)
class OutputConfig:
    directory: str


@dataclass(frozen=True)
class RunConfig:
    dispersion: DispersionConfig | None
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


def _parse_dispersion(section: dict) -> DispersionConfig:
    path = "dispersion"
    cfg = DispersionConfig(
        beta1=_require(section, path, "beta1", float),
        beta2s=_require(section, path, "beta2s", float),
        beta2p=_require(section, path, "beta2p", float),
        g0=_require(section, path, "g0", float),
        M=_require(section, path, "M", int),
    )
    _reject_unknown(section, path)
    if cfg.M < 0:
        raise ConfigValidationError("field `dispersion.M` must be >= 0")
    if cfg.g0 <= 0:
        raise ConfigValidationError("field `dispersion.g0` must be positive")
    return cfg


def _parse_supermode(section: dict) -> SupermodeConfig:
    path = "supermode"
    cfg = SupermodeConfig(
        Np=_require(section, path, "Np", float),
        n_signal=_require(section, path, "n_signal", int),
        k_max=_require(section, path, "k_max", int),
        odd_only=_require(section, path, "odd_only", bool, optional=True, default=True),
        parity_retention=_require(
            section, path, "parity_retention", str, optional=True, default="auto"
        ),
    )
    _reject_unknown(section, path)
    if cfg.Np <= 0:
        raise ConfigValidationError("field `supermode.Np` must be positive")
    if cfg.n_signal < 1:
        raise ConfigValidationError("field `supermode.n_signal` must be >= 1")
    if cfg.k_max < 1:
        raise ConfigValidationError("field `supermode.k_max` must be >= 1")
    if cfg.parity_retention not in ("auto", "even", "magnitude"):
        raise ConfigValidationError(
            "field `supermode.parity_retention` must be one of auto|even|magnitude"
        )
    return cfg


def _parse_model(section: dict) -> ModelConfig:
    path = "model"
    family = _require(section, path, "family", str)
    if family not in FAMILIES:
        raise ConfigValidationError(
            f"field `model.family` must be one of {'|'.join(FAMILIES)}"
        )
    cutoffs = _require(section, path, "cutoffs", list)
    if not cutoffs or not all(isinstance(c, int) and not isinstance(c, bool) for c in cutoffs):
        raise ConfigValidationError("field `model.cutoffs` must be a nonempty list of integers")
    if any(c < 2 for c in cutoffs):
        raise ConfigValidationError("field `model.cutoffs` entries must be >= 2")
    cfg = ModelConfig(
        family=family,
        cutoffs=tuple(cutoffs),
        r=_require(section, path, "r", float, optional=True),
        eta=_require(section, path, "eta", float, optional=True),
        p=_require(section, path, "p", float, optional=True),
    )
    _reject_unknown(section, path)
    if family == "lossy":
        if cfg.r is None:
            raise ConfigValidationError("missing required field `model.r` for family lossy")
        if cfg.eta is None:
            raise ConfigValidationError("missing required field `model.eta` for family lossy")
        if cfg.eta <= 0:
            raise ConfigValidationError("field `model.eta` must be positive")
    else:
        if cfg.p is None:
            raise ConfigValidationError(
                f"missing required field `model.p` for family {family}"
            )
    if family == "cw-single" and len(cfg.cutoffs) != 1:
        raise ConfigValidationError("field `model.cutoffs` must have one entry for cw-single")
    if cfg.r is not None and cfg.r < 0:
        raise ConfigValidationError("field `model.r` must be >= 0")
    if cfg.p is not None and cfg.p < 0:
        raise ConfigValidationError("field `model.p` must be >= 0")
    return cfg


def _parse_dynamics(section: dict) -> DynamicsConfig:
    path = "dynamics"
    omega = _require(section, path, "omega_grid", list, optional=True, default=[])
    if not all(_is_number(w) and _is_finite(w) for w in omega):
        raise ConfigValidationError("field `dynamics.omega_grid` must be a list of finite numbers")
    cfg = DynamicsConfig(
        t_max=_require(section, path, "t_max", float, optional=True, default=10.0),
        n_points=_require(section, path, "n_points", int, optional=True, default=101),
        dt=_require(section, path, "dt", float, optional=True, default=1e-3),
        tolerance=_require(section, path, "tolerance", float, optional=True, default=1e-8),
        n_trajectories=_require(section, path, "n_trajectories", int, optional=True, default=1),
        seed=_require(section, path, "seed", int, optional=True, default=1),
        omega_grid=tuple(float(w) for w in omega),
        channel_index=_require(section, path, "channel_index", int, optional=True, default=1),
        channel_phase_deg=_require(
            section, path, "channel_phase_deg", float, optional=True, default=-90.0
        ),
        method=_require(section, path, "method", str, optional=True, default="auto"),
    )
    if "tau_max" in section:  # the spectrum no longer integrates over a tau grid
        del section["tau_max"]
        warnings.warn("field `dynamics.tau_max` is deprecated and ignored", FutureWarning)
    _reject_unknown(section, path)
    for name, value in (("t_max", cfg.t_max), ("dt", cfg.dt), ("tolerance", cfg.tolerance)):
        if value <= 0:
            raise ConfigValidationError(f"field `dynamics.{name}` must be positive")
    if cfg.n_points < 2:
        raise ConfigValidationError("field `dynamics.n_points` must be >= 2")
    if cfg.n_trajectories < 1:
        raise ConfigValidationError("field `dynamics.n_trajectories` must be >= 1")
    if cfg.method not in ("auto", "long-time", "null-space"):
        raise ConfigValidationError(
            "field `dynamics.method` must be one of auto|long-time|null-space"
        )
    return cfg


def _check_supermode_fits_dispersion(sm: SupermodeConfig, disp: DispersionConfig):
    """Reject supermode settings the dispersion cannot support."""
    symmetric = disp.beta1 == 0.0  # parity-symmetric phase matching
    if sm.odd_only and not symmetric:
        raise ConfigValidationError("field `supermode.odd_only` requires `dispersion.beta1` = 0")
    if sm.parity_retention == "even" and not symmetric:
        raise ConfigValidationError(
            "field `supermode.parity_retention` = even requires `dispersion.beta1` = 0"
        )
    if sm.k_max > 4 * disp.M + 1:
        raise ConfigValidationError(
            f"field `supermode.k_max` exceeds the {4 * disp.M + 1} pump lines of `dispersion.M`"
        )
    even_only = symmetric and sm.parity_retention != "magnitude"
    available = disp.M + 1 if even_only else 2 * disp.M + 1
    if sm.n_signal > available:
        raise ConfigValidationError(
            f"field `supermode.n_signal` exceeds the {available} retainable signal supermodes"
        )


def _parse_wigner(section: dict) -> WignerConfig:
    path = "wigner"
    cfg = WignerConfig(
        x_max=_require(section, path, "x_max", float, optional=True, default=4.5),
        points=_require(section, path, "points", int, optional=True, default=121),
    )
    _reject_unknown(section, path)
    if cfg.x_max <= 0:
        raise ConfigValidationError("field `wigner.x_max` must be positive")
    if cfg.points < 11:
        raise ConfigValidationError("field `wigner.points` must be >= 11")
    return cfg


def _parse_outputs(section: dict) -> OutputConfig:
    path = "outputs"
    directory = _require(section, path, "directory", str)
    _reject_unknown(section, path)
    return OutputConfig(directory=directory)


def load_config(path) -> RunConfig:
    """Parse and validate a config file; raises ConfigParseError / ConfigValidationError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
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

    known = {"dispersion", "supermode", "model", "dynamics", "wigner", "outputs"}
    for key in sorted(data):
        if key not in known:
            raise ConfigValidationError(f"unknown section `{key}`")

    if "outputs" not in data:
        raise ConfigValidationError("missing required section `outputs`")
    for name in ("dispersion", "supermode", "model", "dynamics", "wigner", "outputs"):
        if name in data and not isinstance(data[name], dict):
            raise ConfigValidationError(f"section `{name}` must be an object")

    dispersion = _parse_dispersion(data["dispersion"]) if "dispersion" in data else None
    supermode = _parse_supermode(data["supermode"]) if "supermode" in data else None
    model = _parse_model(data["model"]) if "model" in data else None
    dynamics = _parse_dynamics(data.get("dynamics", {}))
    wigner = _parse_wigner(data.get("wigner", {}))
    outputs = _parse_outputs(data["outputs"])

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
    if dispersion is not None and supermode is not None:
        _check_supermode_fits_dispersion(supermode, dispersion)
    return RunConfig(
        dispersion=dispersion,
        supermode=supermode,
        model=model,
        dynamics=dynamics,
        wigner=wigner,
        outputs=outputs,
        raw=raw,
    )
