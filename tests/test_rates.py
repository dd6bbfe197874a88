import dataclasses
import logging
import math

import numpy as np
import pytest
from conftest import loop_rate_rows

from fluxrec.config import RATES_KEYS, SCHEMAS, parse_config
from fluxrec.errors import InsufficientDataError, SchemaError
from fluxrec.geometry import GAMMA_A, GAMMA_I, boundary_map
from fluxrec.rates import (
    ExperimentConfig,
    RateRow,
    emit_report,
    fit_log_rate,
    run_rate_study,
    transfer_boundary_values,
)


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(delta_grid=(1e-2, 1e-3, 1e-4, 1e-5), seeds_per_delta=3)


@pytest.fixture(scope="module")
def small_report(small_config):
    return run_rate_study(small_config)


def test_rates_schema_defaults_are_the_experiment_defaults():
    # both lists of the 19 rate-study defaults must agree: an absent config key runs the default
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    schema = SCHEMAS["rates"]
    assert len(schema) == 19 and set(schema) <= set(defaults)
    for name, key in schema.items():
        assert key.default == defaults[name], name
        assert type(key.default) is type(defaults[name]), name


def test_config_validation():
    with pytest.raises(SchemaError, match="'delta_grid': must be a non-empty strictly decreasing"):
        ExperimentConfig(delta_grid=(1e-3, 1e-2))
    with pytest.raises(SchemaError, match="'refine_level': must be >= 1"):
        ExperimentConfig(refine_level=0)
    ExperimentConfig(refine_level=0, allow_inverse_crime=True)  # labeled escape hatch
    with pytest.raises(SchemaError, match="'rho_rule': must be 'discrepancy' or 'fixed'"):
        ExperimentConfig(rho_rule="magic")
    with pytest.raises(SchemaError, match="'seeds_per_delta': must be > 0"):
        ExperimentConfig(seeds_per_delta=0)
    with pytest.raises(SchemaError, match="'fixed_rho_schedule': has 1 entries, delta_grid has 9"):
        ExperimentConfig(rho_rule="fixed", fixed_rho_schedule=(1.0,))


@pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
def test_config_rejects_non_positive_fixed_rho(bad):
    with pytest.raises(SchemaError,
                       match="'fixed_rho_schedule': entries must be positive and finite"):
        ExperimentConfig(delta_grid=(1e-2, 1e-3), rho_rule="fixed",
                         fixed_rho_schedule=(bad, 1e-5))


@pytest.mark.parametrize("name, value, problem", [
    ("m0", float("nan"), "must be > 0"),        # else every row of the study is inadmissible
    ("kappa", float("nan"), r"must lie in \(0, 1\)"),  # else p_star is nan
    ("eps", float("inf"), "must be finite"),
    ("tau_d", float("nan"), "must be > 1"),
], ids=["m0-nan", "kappa-nan", "eps-inf", "tau_d-nan"])
def test_config_applies_the_rates_schema_domains(name, value, problem):
    with pytest.raises(SchemaError, match=f"config key '{name}': {problem}"):
        ExperimentConfig(**{name: value})


# one out-of-domain value per rates key; a key added to the schema without one fails collection
_OUT_OF_DOMAIN = {
    "r_inner": -1.0, "r_outer": 0.0, "h": 0.0, "alpha": 0.0, "k": -1.0, "f": math.nan,
    "u_a": -math.inf, "kappa": 1.0, "s": 0.7, "eps": 0.0, "tau_d": 1.0, "m0": -1.0,
    "refine_level": 0, "delta_grid": (math.inf, 1e-2), "seeds_per_delta": 0, "base_seed": -1,
    "flux_seed": -1, "rho_rule": "magic", "fixed_rho_schedule": (0.0,),
}


@pytest.mark.parametrize("name, value", [
    *((name, _OUT_OF_DOMAIN[name]) for name in RATES_KEYS),
    ("delta_grid", [math.inf, 1e-2]),   # a list is checked as the tuple a config file parses to
    ("fixed_rho_schedule", [math.nan]),
], ids=[*RATES_KEYS, "delta_grid-list", "fixed_rho_schedule-list"])
def test_config_and_config_file_share_one_rulebook(tmp_path, name, value):
    text = ", ".join(map(str, value)) if isinstance(value, (tuple, list)) else str(value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{name} = {text}\n")
    with pytest.raises(SchemaError) as from_file:
        parse_config(str(cfg), RATES_KEYS)
    with pytest.raises(SchemaError) as from_library:
        ExperimentConfig(**{name: value})
    assert str(from_library.value) == str(from_file.value)


@pytest.mark.parametrize("grid", [(1e-2, 1e-3, 0.0), (1e-2, 1e-3, -1e-4), (float("inf"), 1e-2)])
def test_config_rejects_non_positive_or_infinite_deltas(grid):
    problem = "must be finite" if math.inf in grid else "entries must be positive"
    with pytest.raises(SchemaError, match=f"'delta_grid': {problem}$"):
        ExperimentConfig(delta_grid=grid)


@pytest.mark.parametrize("grid", [(2.0, 1e-2, 1e-3, 1e-4), (1.0, 1e-2, 1e-3)])
def test_config_rejects_deltas_at_or_above_1(grid):
    # log(log(1/delta)) of the rate fit is -inf at delta = 1 and NaN above
    with pytest.raises(SchemaError, match="'delta_grid': entries must be below 1"):
        ExperimentConfig(delta_grid=grid)
    ExperimentConfig(delta_grid=(np.nextafter(1.0, 0.0), 1e-2))


def test_p_star():
    cfg = ExperimentConfig()
    assert abs(cfg.p_star - 0.45) <= 1e-15


def test_transfer_exact_on_shared_vertices(coarse_mesh, fine_mesh, rng):
    values = rng.standard_normal(len(boundary_map(coarse_mesh, GAMMA_A)))
    up = transfer_boundary_values(coarse_mesh, fine_mesh, GAMMA_A, values)
    back = transfer_boundary_values(fine_mesh, coarse_mesh, GAMMA_A, up)
    # nested refinement keeps original vertices, so down(up(v)) == v up to
    # the tiny arc-length reparametrization between the two polygons
    np.testing.assert_allclose(back, values, atol=1e-6)
    # constants transfer exactly
    const = transfer_boundary_values(coarse_mesh, fine_mesh, GAMMA_I,
                                     np.ones(len(boundary_map(coarse_mesh, GAMMA_I))))
    np.testing.assert_allclose(const, 1.0, rtol=1e-14)


def test_rows_shape_and_determinism(small_config, small_report):
    assert len(small_report.rows) == 4 * 3
    again = run_rate_study(small_config)
    for a, b in zip(small_report.rows, again.rows):
        assert (a.delta, a.seed, a.rho, a.error, a.residual) == \
               (b.delta, b.seed, b.rho, b.error, b.residual)


def test_single_delta_rows_differ_only_by_seed():
    cfg = ExperimentConfig(delta_grid=(1e-3,), seeds_per_delta=3)
    report = run_rate_study(cfg)
    assert len(report.rows) == 3
    assert np.isnan(report.p_hat)      # fit needs >= 4 deltas
    assert len({r.seed for r in report.rows}) == 3
    assert len({r.delta for r in report.rows}) == 1


def test_median_errors_non_increasing(small_report):
    meds = [e for _, e in small_report.median_errors]
    assert all(b <= 1.1 * a for a, b in zip(meds, meds[1:]))


def test_fit_exact_model_rows():
    rows = []
    p = 0.45
    for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        err = 2.0 * np.log(1.0 / delta) ** (-p)
        for seed in range(3):
            rows.append(RateRow(delta, seed, 1.0, err, delta, True, False))
    p_hat, r2 = fit_log_rate(rows)
    assert abs(p_hat - p) <= 1e-6
    assert r2 >= 1.0 - 1e-12


def test_fit_constant_rows():
    rows = [RateRow(d, 0, 1.0, 0.5, d, True, False)
            for d in (1e-2, 1e-3, 1e-4, 1e-5)]
    p_hat, r2 = fit_log_rate(rows)
    assert abs(p_hat) <= 1e-12


def test_fit_excludes_failed_rows():
    rows = []
    for delta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        err = np.log(1.0 / delta) ** (-0.3)
        rows.append(RateRow(delta, 0, 1.0, err, delta, True, False))
    rows.append(RateRow(1e-7, 0, float("nan"), float("nan"), float("nan"), False, True))
    p_hat, _ = fit_log_rate(rows)
    assert abs(p_hat - 0.3) <= 1e-6
    only_failed = [RateRow(d, 0, float("nan"), float("nan"), float("nan"), False, True)
                   for d in (1e-2, 1e-3, 1e-4, 1e-5)]
    with pytest.raises(InsufficientDataError):
        fit_log_rate(only_failed)


def test_emit_report_roundtrip_and_stability(tmp_path, small_report):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    paths1 = emit_report(small_report, out1)
    emit_report(small_report, out2)
    for p1 in paths1:
        p2 = str(p1).replace(str(out1), str(out2))
        assert open(p1, "rb").read() == open(p2, "rb").read()
    lines = (out1 / "rates.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delta,seed,rho,error,residual,admissible,failed"
    assert len(lines) - 1 == len(small_report.rows)
    for row, line in zip(small_report.rows, lines[1:]):
        delta, seed, rho, error, residual, admissible, failed = line.split(",")
        assert row.delta == float(delta)
        assert row.seed == int(seed)
        assert row.rho == float(rho)
        assert row.error == float(error)
        assert row.residual == float(residual)
        assert row.admissible == bool(int(admissible))
        assert row.failed == bool(int(failed))


def test_emit_report_header_golden(tmp_path, small_report):
    emit_report(small_report, tmp_path)
    assert open(tmp_path / "rates.csv").readline().rstrip("\n") == \
        "delta,seed,rho,error,residual,admissible,failed"
    assert open(tmp_path / "rates_plotdata.csv").readline().rstrip("\n") == \
        "delta,median_error,model_error"


def test_fixed_rho_schedule_rule():
    deltas = (1e-2, 1e-3, 1e-4, 1e-5)
    schedule = (1e-3, 1e-5, 1e-7, 1e-9)
    report = run_rate_study(ExperimentConfig(delta_grid=deltas, seeds_per_delta=2,
                                             rho_rule="fixed",
                                             fixed_rho_schedule=schedule))
    assert report.rho_rule == "fixed"
    by_delta = {d: r for d, r in zip(deltas, schedule)}
    for row in report.rows:
        assert row.rho == by_delta[row.delta]


def test_default_config_signal_not_degenerate():
    report = run_rate_study(ExperimentConfig())
    meds = [e for _, e in report.median_errors]
    assert meds[0] >= 2.0 * meds[-1]
    assert all(b <= 1.1 * a for a, b in zip(meds, meds[1:]))


def test_inverse_crime_config_recovers_better():
    honest = run_rate_study(ExperimentConfig(delta_grid=(1e-2, 1e-3, 1e-4, 1e-5),
                                             seeds_per_delta=2))
    crime = run_rate_study(ExperimentConfig(delta_grid=(1e-2, 1e-3, 1e-4, 1e-5),
                                            seeds_per_delta=2, refine_level=0,
                                            allow_inverse_crime=True))
    # same-mesh data flatters the smallest-noise reconstruction
    honest_best = min(e for _, e in honest.median_errors)
    crime_best = min(e for _, e in crime.median_errors)
    assert crime_best <= honest_best


def _row_bits(row):
    return (row.delta.hex(), row.seed, row.rho.hex(), row.error.hex(), row.residual.hex(),
            row.admissible, row.failed)


@pytest.mark.parametrize("config", [
    # the rates-sweep benchmark op: h = 0.1, one refinement, 10 seeds per delta
    ExperimentConfig(h=0.1, refine_level=1, seeds_per_delta=10, base_seed=0),
    ExperimentConfig(h=0.1, refine_level=1, seeds_per_delta=10, base_seed=10_007),
    # the finest mesh fails its smallest deltas as under-resolved
    ExperimentConfig(h=0.025, delta_grid=(1e-3, 1e-7, 1e-8, 1e-9), seeds_per_delta=6),
    ExperimentConfig(delta_grid=(1e-2, 1e-4), seeds_per_delta=2, rho_rule="fixed",
                     fixed_rho_schedule=(1e-3, 1e-7)),
], ids=["sweep-0", "sweep-10007", "failures", "fixed"])
def test_rows_match_the_per_row_oracle_bitwise(config, caplog):
    with caplog.at_level(logging.WARNING, logger="fluxrec.rates"):
        report = run_rate_study(config)
    rows, warnings = loop_rate_rows(config)
    assert [_row_bits(r) for r in report.rows] == [_row_bits(r) for r in rows]
    assert [rec.getMessage() for rec in caplog.records] == warnings
    assert any(r.failed for r in rows) == (config.h == 0.025)
