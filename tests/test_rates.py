import numpy as np
import pytest

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


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(delta_grid=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        ExperimentConfig(refine_level=0)
    ExperimentConfig(refine_level=0, allow_inverse_crime=True)  # labeled escape hatch
    with pytest.raises(ValueError):
        ExperimentConfig(rho_rule="magic")
    with pytest.raises(SchemaError, match="'fixed_rho_schedule': has 1 entries, delta_grid has 9"):
        ExperimentConfig(rho_rule="fixed", fixed_rho_schedule=(1.0,))


@pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf")])
def test_config_rejects_non_positive_fixed_rho(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        ExperimentConfig(delta_grid=(1e-2, 1e-3), rho_rule="fixed",
                         fixed_rho_schedule=(bad, 1e-5))


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
