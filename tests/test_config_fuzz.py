"""Config fuzzing: whatever JSON config the CLI is given, it exits 0, 2, 3
or 4 and no exception escapes ``cli.main``.

The configs are mostly malformed: a key of a subcommand's schema table, or
of a nested spec, set to a value of the wrong type, NaN, Infinity, a
negative number, its own hi + 1, 1e9, an unknown key, or [re, im] entries
that are dicts or triples.  The rest are small in-range configs.  A value
that is in range for one key can be large for another (2^18 + 1 points
take seconds), so hi + 1 is only ever drawn for its own key.

A config that slipped past its bounds could allocate without limit, so the
test caps its own address space at its current size plus 2 GiB for its
run; it starts no other process.
"""

import json
import resource

from hypothesis import HealthCheck, given, settings, strategies as st

from circlepoly import cli, experiments, measures
from circlepoly.experiments import write_csv
from circlepoly.schema import integer, list_of, power_of_two

NAN = float("nan")
INF = float("inf")

SCHEMAS = {
    "universality": experiments.UNIVERSALITY_SCHEMA,
    "lacunary": experiments.LACUNARY_SCHEMA,
    "fejer": experiments.FEJER_SCHEMA,
    "thm5": experiments.THM5_SCHEMA,
    "roundtrip": experiments.ROUNDTRIP_SCHEMA,
    "plancherel": experiments.PLANCHEREL_SCHEMA,
    "counterexample": experiments.COUNTEREXAMPLE_SCHEMA,
    "plot": experiments.PLOT_SCHEMA,
}

# the schema of the nested spec a row's reader reads
NESTED = {
    experiments._points: experiments.POINTS_SCHEMA,
    experiments._coeff_source: experiments.COEFFS_SCHEMA,
    experiments._random_coeffs: experiments.RANDOM_SCHEMA,
    experiments._schedule: experiments.SCHEDULE_SCHEMA,
    measures._atoms: measures.ATOM_SCHEMA,
}

# in range, and a few milliseconds a run
SMALL = {
    "universality": {"degrees": [8, 16], "points": {"count": 2}, "quadrature_m": 256},
    "lacunary": {"coeffs": {"random": {"count": 4, "radius": 0.05}}, "degrees": [2, 4], "points": {"count": 2}},
    "fejer": {"shape": {"explicit": [[1.0, 0.0], [0.5, 0.0]]}, "degrees": [4, 8]},
    "thm5": {
        "b": [[0.3, 0.0], [0.0, 0.1]],
        "grid_m": 64,
        "degree_cap": 16,
        "strip_steps": 4,
        "bandwidth": 8,
        "ortho_quadrature": 64,
        "l1_degrees": [1, 2],
    },
    "roundtrip": {"trials": 1, "n": 6, "extract_n": 3, "radius": 0.1},
    "plancherel": {"systems": 1, "n": 3},
    "counterexample": {"r_values": [0.5], "growth_r": [0.9, 0.99], "n_max": 4, "grid": 16},
    "plot": {"x": "n", "y": ["gap"]},
}

JUNK = [
    None, True, False, "x", "0.5", [], {}, [1], [[1, 0, 0]], [{"re": 1, "im": 0}], [[1, "x"]],
    {"bogus": 1}, NAN, INF, -INF, -1, 0, 1.5, 1e9, 2 ** 64, 10 ** 400,
]
# specs that give both alternatives, or an unknown measure key
CLASHES = [
    {"explicit": [[1.0, 0.0]], "count": 2},
    {"explicit": [[0.1, 0.0]], "random": {"count": 2}},
    {"kind": "uniform", "r": 0.5},
    {"kind": "atoms", "list": [{"point": [1, 0], "weight": [1, 0]}], "atoms": []},
]


def _edges(row):
    """lo - 1 and hi + 1 of an integer row; empty for any other."""
    if row is None or row[1] not in (integer, power_of_two):
        return []
    lo, hi = (2, row[2]) if row[1] is power_of_two else row[2:4]
    return [lo - 1, hi + 1]


def _nested_schema(value, row):
    """The schema of the nested spec ``value`` that ``row`` reads, if any."""
    if row is None:
        return None
    if row[1] is measures.measure_from_json:
        kind = value.get("kind")
        return measures.MEASURE_KINDS[kind][0] if isinstance(kind, str) and kind in measures.MEASURE_KINDS else None
    return NESTED.get(row[1])


def _entry_row(row):
    """The row each entry of a list that ``row`` reads is read by, if any."""
    if row is None:
        return None
    if row[1] is list_of:
        return (None, *row[3:])
    if row[1] is experiments._schedule:
        return (None, integer, 1, measures.MAX_QUAD_NODES)
    return row if row[1] is measures._atoms else None


def _junk_for(data, value, row):
    """value, or one entry somewhere inside it, replaced by a malformed value."""
    if isinstance(value, list) and value and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(value) - 1))
        return value[:i] + [_junk_for(data, value[i], _entry_row(row))] + value[i + 1 :]
    if isinstance(value, dict) and data.draw(st.booleans()):
        schema = _nested_schema(value, row) or {}
        key = data.draw(st.sampled_from(sorted(set(value) | set(schema)) + ["bogus"]))
        return {**value, key: _junk_for(data, value.get(key, 1), schema.get(key))}
    return data.draw(st.sampled_from(JUNK + CLASHES + _edges(row)))


def _address_space():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize line")


def test_no_config_escapes_cli_main(tmp_path):
    csv = str(tmp_path / "data.csv")
    write_csv(csv, ["n", "gap", "L"], [[1, 0.5, 0.25], [2, 0.25, 0.125]], "deadbeef0000")
    small = dict(SMALL, plot=dict(SMALL["plot"], csv=csv))
    path = tmp_path / "cfg.json"
    codes = []

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def run(data):
        command = data.draw(st.sampled_from(sorted(SCHEMAS)))
        cfg = dict(small[command])
        if data.draw(st.integers(0, 9)) == 0:
            pass  # in range
        elif data.draw(st.integers(0, 19)) == 0:
            cfg = data.draw(st.sampled_from([None, [], "x", 5]))
        else:
            for _ in range(data.draw(st.integers(1, 2))):
                key = data.draw(st.sampled_from(sorted(SCHEMAS[command]) + ["bogus"]))
                row = SCHEMAS[command].get(key)
                default = cfg.get(key, row[0] if row else 1)
                cfg[key] = _junk_for(data, default, row)
        path.write_text(json.dumps(cfg))
        seed = str(data.draw(st.integers(0, 3)))
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", seed])
        codes.append(code)
        assert code in (0, 2, 3, 4), (command, cfg, code)

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = _address_space() + 2 * 2 ** 30
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        run()
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    # the draws reach both the refusals and the runs
    assert codes.count(2) > len(codes) // 2 and codes.count(0) > 0
