"""Every function in circlepoly is reached by the runners, or is library
API named below with the reason it stays.

One pass runs the eight subcommands in-process at the configs of
perfbench's cli_defaults workload (copied here, since perfbench is not on
the test path), seed 1, under sys.setprofile, and records the code object
of every Python-level call.  A function defined at module or class level
in src/circlepoly that the pass never enters must be on LIBRARY_API; an
entry there that the pass enters, or that names no function, fails too,
so the list stays exact.  README.md, "Library API without a runner",
gives the same list.
"""

import importlib
import inspect
import json
import pkgutil
import sys

import pytest

import circlepoly
from circlepoly import cli

SUBCOMMANDS = ("universality", "lacunary", "fejer", "thm5", "roundtrip", "plancherel", "counterexample", "plot")
CLI_CONFIGS = {
    "thm5": {"b": [[0.3, 0.0], [0.0, 0.0], [0.2, 0.0]]},
    "plancherel": {"radius": 0.05},
    "roundtrip": {"radius": 0.05},
}

BENCHMARK = "patched or called by perfbench (perfbench/spans.py, workloads.py)"
FACTOR_TREES = "layer_strip's factor trees: above 128 factors at a[0] >= 0.2 (series_n2048, large roundtrip n)"
MEASURE_SPECS = "measure kinds and options of a JSON measure spec other than the default mu_r"
ARITHMETIC = "LaurentPoly value-type API (arithmetic, equality, repr) used by the tests and examples"
ON_FAILURE = "constructor of an error raised only when a check fails"
ROWS = "OrthoSystem row access phi[n] / list(phi), read by perfbench's series_n2048 check and the tests"

LIBRARY_API = {
    "_accel._blocked": "blocked ladder_eval of a nonzero run of >= 1024 steps (series_n2048)",
    "errors.NearSingularMomentError.__init__": ON_FAILURE,
    "errors.StrippingError.__init__": ON_FAILURE,
    "errors.ToleranceError.__init__": ON_FAILURE,
    "laurent.LaurentPoly.__eq__": ARITHMETIC,
    "laurent.LaurentPoly.__hash__": ARITHMETIC,
    "laurent.LaurentPoly.__len__": ARITHMETIC,
    "laurent.LaurentPoly.__pow__": ARITHMETIC,
    "laurent.LaurentPoly.__repr__": ARITHMETIC,
    "laurent.LaurentPoly.__rmul__": ARITHMETIC,
    "laurent.LaurentPoly.__rsub__": ARITHMETIC,
    "laurent.LaurentPoly.__setattr__": "refuses assignment, which keeps LaurentPoly immutable",
    "laurent.LaurentPoly.__truediv__": ARITHMETIC,
    "laurent.LaurentPoly.monomial": ARITHMETIC,
    "laurent.LaurentPoly.one": ARITHMETIC,
    "laurent.LaurentPoly.shift": ARITHMETIC,
    "laurent.LaurentPoly.zero": ARITHMETIC,
    "measures.CircleMeasure.from_atoms": MEASURE_SPECS,
    "measures.CircleMeasure.integrate": BENCHMARK,
    "measures.CircleMeasure.integrate_adaptive": BENCHMARK,
    "measures.CircleMeasure.scaled": MEASURE_SPECS,
    "measures.CircleMeasure.uniform": MEASURE_SPECS,
    "measures.CircleMeasure.with_atoms": MEASURE_SPECS,
    "measures._atoms": MEASURE_SPECS,
    "measures._refine": "moments of a closed-form density of a measure spec, and integrate_adaptive",
    "measures.l_functional": BENCHMARK,
    "measures.pairing": BENCHMARK,
    "nlfs._block_pair": FACTOR_TREES,
    "nlfs._outside": FACTOR_TREES,
    "nlfs._peel_blocks": FACTOR_TREES,
    "nlfs._strip_trees": FACTOR_TREES,
    "nlfs._toeplitz_index": FACTOR_TREES,
    "nlfs._tree": FACTOR_TREES,
    "nlfs.measure_from_pair": BENCHMARK,
    "szego.OrthoSystem._row": ROWS,
    "szego.OrthoSystem.phi": ROWS,
    "szego.OrthoSystem.phitilde": ROWS,
    "szego._Rows.__getitem__": ROWS,
    "szego._Rows.__init__": ROWS,
    "szego._Rows.__iter__": ROWS,
    "szego._Rows.__len__": ROWS,
    "szego.SystemReport.max_residual": "read by perfbench and the tests; thm5 reads orthonormality_max only",
    "szego.monic_from_moments": "the moment route; awaits roundtrip's F -> moments -> F column (ROADMAP item 2)",
    "szego.plancherel_check": BENCHMARK,
}


def _defined():
    """{dotted name: object} of every function defined at module or class
    level in circlepoly, cache wrappers included; generated methods (those
    of dataclasses) are left out."""
    out = {}
    for info in pkgutil.iter_modules(circlepoly.__path__):
        mod = importlib.import_module(f"circlepoly.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = [(f"{name}.{k}", v) for k, v in vars(obj).items()] if inspect.isclass(obj) else [(name, obj)]
            for qual, v in members:
                if isinstance(v, (staticmethod, classmethod)):
                    v = v.__func__
                elif isinstance(v, property):
                    v = v.fget
                f = inspect.unwrap(v) if callable(v) else None
                if inspect.isfunction(f) and f.__code__.co_filename == mod.__file__:
                    out[f"{info.name}.{qual}"] = v
    return out


def _calls(v):
    info = getattr(v, "cache_info", None)
    return info().hits + info().misses if info else 0


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """(defined functions, names the pass entered)."""
    base = tmp_path_factory.mktemp("reach")
    out = base / "out"
    configs = dict(CLI_CONFIGS, plot={"csv": str(out / "universality.csv"), "x": "n", "y": ["gap", "L"]})
    defined = _defined()
    # a cached function counts as entered when its cache is consulted
    before = {name: _calls(v) for name, v in defined.items()}
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = {}
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for sub in SUBCOMMANDS:
            argv = [sub, "--out", str(out), "--seed", "1"]
            if sub in configs:
                path = base / f"{sub}.json"
                path.write_text(json.dumps(configs[sub]))
                argv += ["--config", str(path)]
            codes[sub] = cli.main(argv)
    finally:
        sys.setprofile(previous)
    assert codes == dict.fromkeys(SUBCOMMANDS, 0)
    entered = {
        name
        for name, v in defined.items()
        if inspect.unwrap(v).__code__ in seen or _calls(v) != before[name]
    }
    return defined, entered


def test_every_function_is_reached_or_named_library_api(reach):
    defined, entered = reach
    unreached = sorted(set(defined) - entered - set(LIBRARY_API))
    assert not unreached, f"no runner reaches {unreached}: give it a runner, delete it, or name it in LIBRARY_API"


def test_library_api_names_only_unreached_functions(reach):
    defined, entered = reach
    stale = sorted(name for name in LIBRARY_API if name not in defined or name in entered)
    assert not stale, f"LIBRARY_API entries that are reached or gone: {stale}"
