"""The benchmark's reference generator against the solvers it checks.

``perfbench/refs/make_refs.py`` regenerates ``references.json`` through ``spopo`` names (the
long-time steady state, ``liouvillian_matrix``, ``single_mode_set``, ``build_supermodes``'
keywords and the operators' ``.matrix``); a change in ``src`` that breaks one of them shows
only when the references are regenerated, so each of its reference paths is run here on a
small model.  Its ``main``, which writes ``references.json``, is never called.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from spopo import hilbert, model as model_mod, supermode
from spopo.dynamics import evolve_master, homodyne_spectrum, rotated_channel, steady_state

MAKE_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "make_refs.py"


@pytest.fixture(scope="module")
def make_refs():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))  # make_refs.py puts perfbench/ on the path
        spec = importlib.util.spec_from_file_location("perfbench_make_refs", MAKE_REFS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def comb(make_refs):
    mdl = make_refs.comb_model(1.19, (4, 3, 2))
    return mdl, steady_state(mdl)


def photon_ops(space) -> dict:
    ops = {f"n_{i + 1}": hilbert.number_operator(space, i) for i in range(space.mode_count)}
    ops["n_total"] = hilbert.total_number_operator(space)
    return ops


@pytest.mark.parametrize("which", ["comb", "cw"])
def test_steady_reference_matches_steady_state(make_refs, comb, which):
    if which == "comb":
        mdl, rho = comb
    else:
        mdl = model_mod.build_lossless(supermode.single_mode_set(1.0), 2.0, (8,))
        rho = steady_state(mdl)
    ref, _ = make_refs.steady_reference(mdl)
    got = {name: hilbert.expectation(op, rho).real for name, op in photon_ops(mdl.space).items()}
    assert sorted(ref) == sorted([*got, "purity"])
    for name, value in got.items():
        assert ref[name] == pytest.approx(value, rel=1e-10, abs=1e-12), name
    assert ref["purity"] == pytest.approx(float(np.sum(rho.matrix * rho.matrix.T)), rel=1e-10)


def test_spectrum_reference_matches_homodyne_spectrum(make_refs, comb):
    mdl, rho = comb
    omegas = [0.0, 1.0]
    ref = make_refs.spectrum_reference(mdl, rho.matrix, omegas, 1, -90.0)
    channel = rotated_channel(mdl.linear_lindblads()[0].op, -90.0)
    got = homodyne_spectrum(mdl, channel, omegas, rho).S
    assert np.max(np.abs(np.array(ref) / got - 1.0)) <= 1e-10


# the reference hands solve_ivp a real vacuum and a complex right-hand side, and numpy warns
# on the cast back to real; the generator is real, so the cast drops only exact zeros
@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_transient_reference_matches_evolve_master(make_refs, comb):
    mdl, _ = comb
    t = np.array([0.0, 0.1, 0.2])
    names = ["n_1", "n_2", "n_3", "n_total"]
    ref = make_refs.transient_reference(mdl, t, names, rtol=1e-11, atol=1e-13)
    rec = evolve_master(mdl, hilbert.vacuum_state(mdl.space).to_density(), t,
                        photon_ops(mdl.space))
    for name in names:
        assert ref[name] == pytest.approx(rec.observables[name].real, rel=1e-9, abs=1e-12), name
