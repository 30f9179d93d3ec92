"""Workload definitions: seeded CLI configs and the ordered op list of each study.

A workload is a fixed sequence of ``spopo <subcommand> --config <file>`` ops.
The workload seed only chooses the pump points (one below and one above
threshold, on a 0.02 grid so the committed references cover every draw) and
the SSE ``--seed``; the op list is the same for every seed.
"""

import random
from dataclasses import dataclass

DESK_DISPERSION = {"beta1": 0.0, "beta2s": 0.01, "beta2p": 0.0025, "g0": 1.0, "M": 10}
DESK_SUPERMODE = {"Np": 4.0, "n_signal": 3, "k_max": 9, "odd_only": True}
ETA = 1.0

# r = centre + 0.01 * k for odd k in [-5, 5]: six points per band, all in the reference tables
R_BANDS = (0.6, 1.2)
R_STEPS = (-5, -3, -1, 1, 3, 5)

CW_CAT = {"family": "cw-single", "p": 2.0, "cutoffs": [16]}
SPECTRUM_OMEGAS = tuple(round(0.2 * i, 10) for i in range(31))  # 31 points on [0, 6]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, config payload, and the key of its model point."""

    name: str          # unique within the workload, e.g. "steady@r0.57"
    command: str
    config: dict
    point: str         # reference key: "r0.57" on a comb model, "cw" for the cat
    seed: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cutoffs: tuple
    ops: tuple

    @property
    def dim(self) -> int:
        d = 1
        for c in self.cutoffs:
            d *= c
        return d


def r_grid() -> list[float]:
    """Every pump value a seed can draw, in reference-table order."""
    return [round(c + 0.01 * k, 2) for c in R_BANDS for k in R_STEPS]


def draw_points(seed: int) -> tuple[float, float, int]:
    """(r below threshold, r above threshold, SSE seed) for a workload seed."""
    rng = random.Random(seed)
    r_lo, r_hi = (round(c + 0.01 * rng.choice(R_STEPS), 2) for c in R_BANDS)
    return r_lo, r_hi, rng.randrange(1, 2**31)


def point_key(r: float) -> str:
    return f"r{r:.2f}"


def _comb_config(r: float, cutoffs, dynamics: dict, wigner: dict | None = None) -> dict:
    cfg = {
        "dispersion": dict(DESK_DISPERSION),
        "supermode": dict(DESK_SUPERMODE),
        "model": {"family": "lossy", "r": r, "eta": ETA, "cutoffs": list(cutoffs)},
        "dynamics": dict(dynamics),
        "outputs": {"directory": "out"},
    }
    if wigner is not None:
        cfg["wigner"] = dict(wigner)
    return cfg


STEADY_CUTOFFS = (6, 4, 3)
EVOLVE_CUTOFFS = (10, 5, 3)
SSE_CUTOFFS = (12, 6, 4)

EVOLVE_DYNAMICS = {"t_max": 5.0, "n_points": 51}
WIGNER = {"x_max": 4.5, "points": 121}
SSE_DYNAMICS = {"t_max": 4.0, "n_points": 41, "dt": 1e-3, "n_trajectories": 8}
SPECTRUM_DYNAMICS = {
    "tau_max": 20.0, "omega_grid": list(SPECTRUM_OMEGAS),
    "channel_index": 1, "channel_phase_deg": -90.0,
}


def _steady_sweep(r_lo, r_hi, _sse_seed) -> tuple:
    return tuple(
        Op(f"{command}@{point_key(r)}", command, _comb_config(r, STEADY_CUTOFFS, {}), point_key(r))
        for r in (r_lo, r_hi) for command in ("steady", "fluxes")
    )


def _spectrum_cat(_r_lo, r_hi, _sse_seed) -> tuple:
    hi = point_key(r_hi)
    return (
        Op(f"spectrum@{hi}", "spectrum", _comb_config(r_hi, STEADY_CUTOFFS, SPECTRUM_DYNAMICS), hi),
        Op("steady@cw", "steady", {"model": dict(CW_CAT), "outputs": {"directory": "out"}}, "cw"),
    )


def _evolve_wigner(r_lo, r_hi, _sse_seed) -> tuple:
    lo, hi = point_key(r_lo), point_key(r_hi)
    return (
        Op(f"evolve@{lo}", "evolve", _comb_config(r_lo, EVOLVE_CUTOFFS, EVOLVE_DYNAMICS, WIGNER), lo),
        Op(f"wigner@{hi}", "wigner", _comb_config(r_hi, EVOLVE_CUTOFFS, EVOLVE_DYNAMICS, WIGNER), hi),
    )


def _sse_ensemble(r_lo, r_hi, sse_seed) -> tuple:
    return tuple(
        Op(f"trajectories@{point_key(r)}", "trajectories",
           _comb_config(r, SSE_CUTOFFS, {**SSE_DYNAMICS, "seed": sse_seed}),
           point_key(r), seed=sse_seed)
        for r in (r_lo, r_hi)
    )


_WORKLOADS = {
    "steady-sweep": (
        STEADY_CUTOFFS, _steady_sweep,
        "d=72 steady and fluxes on one model below threshold and on one above it: "
        "the sparse steady-state solve",
    ),
    "evolve-wigner": (
        EVOLVE_CUTOFFS, _evolve_wigner,
        "d=150 master-equation transient below threshold and Wigner function above it; "
        "no steady state, no SSE",
    ),
    "sse-ensemble": (
        SSE_CUTOFFS, _sse_ensemble,
        "d=288 state-vector SSE trajectories; touches neither master-equation solver",
    ),
}

# Held out of BENCHMARK.json until ROADMAP item 0 lands: at the seed both ops
# fail (``spectrum`` exits 1 on an np.bool_ in its JSON, the cw cat's steady
# state is mixed), and the benchmark's workloads must run without failed ops.
_HELD = {
    "spectrum-cat": (
        STEADY_CUTOFFS, _spectrum_cat,
        "d=72 homodyne spectrum above threshold and the strong-parity cw cat",
    ),
}

WORKLOAD_NAMES = tuple(_WORKLOADS)
HELD_WORKLOAD_NAMES = tuple(_HELD)


def make_workload(name: str, seed: int) -> Workload:
    table = {**_WORKLOADS, **_HELD}
    if name not in table:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(table)}")
    cutoffs, build, why = table[name]
    return Workload(name, why, cutoffs, build(*draw_points(seed)))
