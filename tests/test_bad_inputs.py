"""Every bad input ends in a typed error that names the entry or argument at
fault, never in a traceback.

A bounded hypothesis sweep mutates one entry of a bundled scenario at a
time, and another feeds non-finite floats to the library's entry points.
Both are derandomized, so a run is the same run every time.  Every argument
of every check is also fed values of the wrong kind for the kind it
declares."""

import inspect
import json
import math
import os
import pickle
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusplab import verify
from cusplab.errors import CuspLabError, InvalidArgument, ParseError, ValidationError
from cusplab.flow import classical_scatter, integrate, radial_convergence, scatter_jacobian
from cusplab.phasespace import CuspData, PhasePoint, bichar_from_cusp
from cusplab.quantum import (
    Grid,
    SolverParams,
    WaveField,
    coherent_data,
    free_propagate,
    poisson_free,
    propagate_window,
)
from cusplab.shell import bundled_scenario_path, load_scenario
from cusplab.symbols import MetricBump, PerturbationSpec, PotentialTerm, flat_spec
from cusplab.verify import JOB_FAMILIES, Beam, Widths, check_eikonal_phase, check_radial

# the overflows these inputs provoke are the point of them
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered")
SCENARIOS = ("flat", "potential", "bump_metric", "classical2d", "eikonal", "highfreq",
             "egorov")
DOCS = {name: json.loads(Path(bundled_scenario_path(name)).read_text()) for name in SCENARIOS}
# what a mutation puts in place of an entry, or of one element of a list
MUTATIONS = (math.nan, math.inf, -math.inf, 1e308, 0, -1, "x", [0.5] * 7, 10**400)
# scenario invariants relate entries to one another, so their errors name
# the invariant, not an entry
INVARIANTS = ("support-inside-box", "grid-accommodates-jobs", "NotPositiveDefinite")
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _paths(node, path=()):
    """The path of every entry of a scenario document, and of every element
    of a list entry."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _names(path):
    """The fields that name the entry at ``path``, without the section
    "scenario" of the top level: the path up to its last key, then up to
    each later index (a list of numbers is one entry, a job is another)."""
    def text(keys):
        return "".join(f".{k}" if isinstance(k, str) else f"[{k}]" for k in keys)[1:]
    last = max(i for i, key in enumerate(path) if isinstance(key, str))
    return [text(path[:k]) for k in range(last + 1, len(path) + 1)]


PATHS = [(name, path) for name in SCENARIOS for path in _paths(DOCS[name])]


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(PATHS), st.sampled_from(MUTATIONS))
def test_a_mutated_scenario_loads_or_names_the_entry(tmp_path_factory, case, value):
    name, path = case
    doc = json.loads(json.dumps(DOCS[name]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scn = tmp_path_factory.mktemp("scn") / "mutated.scn"
    scn.write_text(json.dumps(doc))
    try:
        load_scenario(scn)
    except ParseError as exc:
        field, names = exc.field.removeprefix("scenario."), _names(path)
        assert field in names or field.startswith((names[-1] + ".", names[-1] + "[")), (
            path, value, str(exc))
    except ValidationError as exc:
        assert exc.invariant in INVARIANTS, (path, value, str(exc))


GRID = Grid(n=1, N=64, L=10.0)
PACKET = coherent_data(GRID, 0.5, 0.0, 0.5)
FIELD = poisson_free(PACKET, -1.0)
BUMP = PerturbationSpec(n=1, bumps=(MetricBump(amplitude=0.1, center_z=[0.0], center_t=0.0,
                                               radius_z=1.0, radius_t=1.0, pattern=1.0),))
BEAM = CuspData(Z=[1.0], frak=[0.0])
SEED = PhasePoint(z=[-4.0], t=-2.0, zeta=[1.0], tau=-1.0)
TERM = dict(amplitude=0.1, center_z=[0.0], center_t=0.0, radius_z=1.0, radius_t=1.0)
# (field, call of a non-finite float v) for each entry point and argument
CALLS = [
    ("L", lambda v: Grid(n=1, N=64, L=v)),
    ("dt", lambda v: SolverParams(dt=v)),
    ("margin", lambda v: SolverParams(margin=v)),
    ("h", lambda v: coherent_data(GRID, 0.5, 0.0, v)),
    ("Z0", lambda v: coherent_data(GRID, v, 0.0, 0.5)),
    ("frak0", lambda v: coherent_data(GRID, 0.5, v, 0.5)),
    ("time", lambda v: WaveField(grid=GRID, values=FIELD.values, time=v)),
    ("dt", lambda v: free_propagate(FIELD, v)),
    ("t", lambda v: poisson_free(PACKET, v)),
    ("t_to", lambda v: propagate_window(flat_spec(1), FIELD, v)),
    ("t_final", lambda v: integrate(BUMP, SEED, v)),
    ("tol", lambda v: integrate(BUMP, SEED, 2.0, tol=v)),
    ("tol", lambda v: classical_scatter(BUMP, BEAM, tol=v)),
    ("h_fd", lambda v: scatter_jacobian(BUMP, BEAM, h_fd=v)),
    ("tol", lambda v: scatter_jacobian(BUMP, BEAM, tol=v)),
    ("z", lambda v: PhasePoint(z=[v], t=0.0, zeta=[1.0], tau=-1.0)),
    ("t", lambda v: PhasePoint(z=[0.0], t=v, zeta=[1.0], tau=-1.0)),
    ("zeta", lambda v: PhasePoint(z=[0.0], t=0.0, zeta=[v], tau=-1.0)),
    ("tau", lambda v: PhasePoint(z=[0.0], t=0.0, zeta=[1.0], tau=v)),
    ("Z", lambda v: CuspData(Z=[v], frak=[0.0])),
    ("frak", lambda v: CuspData(Z=[1.0], frak=[v])),
    ("pattern", lambda v: MetricBump(**TERM, pattern=v)),
]
CALLS += [(key, lambda v, term=term, window=window, key=key: term(**{**window, key: v}))
          for term, window in ((MetricBump, {**TERM, "pattern": 1.0}), (PotentialTerm, TERM))
          for key in TERM]
CALLS += [("stride", lambda v: integrate(BUMP, SEED, 2.0).export_csv(os.devnull, v))]


@pytest.mark.parametrize("field, call", CALLS,
                         ids=[f"{i}-{field}" for i, (field, _) in enumerate(CALLS)])
@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(value=NON_FINITE)
def test_a_non_finite_argument_is_refused_by_name(field, call, value):
    with pytest.raises(InvalidArgument) as refused:
        call(value)
    assert refused.value.field == field
    assert str(refused.value).startswith(f"{field} ")
    # typed, and still caught where a ValueError is expected
    assert isinstance(refused.value, CuspLabError) and isinstance(refused.value, ValueError)


@pytest.mark.parametrize("Z, frak, field", [
    ([1e200], [0.0], "Z"),          # |Z|^2 overflows
    ([1.0], [1e200], "frak"),       # so does the time the beam needs to cover frak
    ([1e-150], [1e308], "frak"),    # and |frak| / |Z| with it
], ids=["Z", "frak", "frak-over-Z"])
def test_a_beam_whose_seed_overflows_names_z_or_frak(Z, frak, field):
    # the seed (2 t Z - frak, t, Z, -|Z|^2) overflowed in PhasePoint, a
    # ValueError that named no argument
    with pytest.raises(InvalidArgument) as refused:
        classical_scatter(BUMP, CuspData(Z=Z, frak=frak))
    assert refused.value.field == field


def test_bichar_from_cusp_names_the_datum_that_overflows():
    for c, t, tol, field in [(CuspData(Z=[1e200], frak=[0.0]), -3.0, None, "Z"),
                             (CuspData(Z=[1e150], frak=[-1e308]), 5e157, None, "frak"),
                             (CuspData(Z=[1.0], frak=[0.0]), math.inf, None, "t_init"),
                             # |z|^2 overflows, through 2 t Z or through frak
                             (CuspData(Z=[1e154], frak=[0.0]), -2.5, None, "Z"),
                             (CuspData(Z=[1.0], frak=[1e300]), -3.0, None, "frak"),
                             # (|Z|^2 / rtol)^2, which the flow's step control takes
                             (CuspData(Z=[1e150], frak=[0.0]), -3.0, 1e-11, "Z"),
                             (CuspData(Z=[1.0], frak=[0.0]), -3.0, math.nan, "tol")]:
        with pytest.raises(InvalidArgument) as refused:
            bichar_from_cusp(c, t, tol)
        assert refused.value.field == field


@pytest.mark.parametrize("p0, field", [
    (PhasePoint(z=[-1e155], t=-2.0, zeta=[1.0], tau=-1.0), "z"),
    (PhasePoint(z=[-4.0], t=-2.0, zeta=[1e150], tau=-1e300), "zeta"),
], ids=["z", "zeta"])
@pytest.mark.parametrize("call", [lambda p0: integrate(BUMP, p0, 2.0),
                                  lambda p0: radial_convergence(BUMP, p0)],
                         ids=["integrate", "radial_convergence"])
def test_a_seed_that_the_flow_cannot_carry_is_refused_by_name(p0, field, call):
    # |z|^2 overflowed in the support test, and the beam flew as if it
    # missed the support; |zeta|^2 / tol overflowed the step control, which
    # ended in a ZeroDivisionError
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidArgument) as refused:
            call(p0)
    assert refused.value.field == field
    assert not caught, [str(w.message) for w in caught]


def test_a_refused_argument_survives_a_pickle():
    # an error raised in a pool worker comes back pickled
    exc = pickle.loads(pickle.dumps(InvalidArgument("h", "must be positive")))
    assert exc.field == "h" and str(exc) == "h must be positive"


# the arguments a check requires, valid on n = 1; each check refuses its
# arguments before it computes anything
REQUIRED = {"spec": BUMP, "grid": GRID, "Z0": [1.0], "frak0": [0.0], "frak_far": [12.0],
            "h_list": [0.1, 0.05]}
# values of the wrong kind, for each kind a check argument declares
WRONG_KINDS = {float: ("x", True), int: ("x", True, 2.5), bool: ("x",),
               Beam: ("x", [1.0, 0.0], [math.nan]), Widths: ("x", [0.1, True])}


@pytest.mark.parametrize("family", sorted(JOB_FAMILIES))
def test_a_check_refuses_a_value_of_the_wrong_kind_by_name(family):
    # a string tolerance ended in a TypeError, a string beam in a
    # ValueError, a fractional count or seed in a TypeError, and a beam of
    # the wrong length named the beam it was compared with
    check = getattr(verify, JOB_FAMILIES[family][0])
    args = inspect.signature(check).parameters
    required = {name: REQUIRED[name] for name, arg in args.items() if arg.default is arg.empty}
    cases = [(name, value) for name, (kind, _) in verify.kinds(check).items()
             for value in WRONG_KINDS[kind]]
    assert cases
    for name, value in cases:
        with pytest.raises(InvalidArgument) as refused:
            check(**{**required, name: value})
        assert refused.value.field == name, (name, value)


def test_a_single_number_is_a_beam_where_n_is_1():
    # both calls were refused, as "frak0 = 0.0 is too small" and "Z0 = -1.0
    # is too small"; CuspData and coherent_data take one number on n = 1.
    # frak0 = 0.0 is a beam, refused only as one on its radial set
    with pytest.raises(InvalidArgument, match="^frak0 puts the incoming beam on its radial set"):
        check_radial(BUMP, Z0=1.0, frak0=0.0)
    weak = PerturbationSpec(n=1, potential_terms=(PotentialTerm(**{**TERM, "amplitude": 0.05,
                                                                   "radius_z": 4.0}),))
    grid = Grid(n=1, N=512, L=20.0)
    for check, args in [(check_radial, (BUMP,)), (check_eikonal_phase, (weak, grid))]:
        scalar = check(*args, Z0=-1.0, frak0=0.5).to_dict()
        listed = check(*args, Z0=[-1.0], frak0=[0.5]).to_dict()
        assert json.dumps(scalar) == json.dumps(listed)
