"""End-to-end convergence-rate study of the logarithmic error bound.

For a synthesized true flux of prescribed smoothness s, exact data is
generated on a uniformly refined mesh (inverse-crime guard), transferred
to the inversion boundary by arc-length interpolation, perturbed at a
grid of noise levels, and inverted.  The whole sweep goes through each
step at once, one array pass per step: noise, projection, one lock-step
discrepancy search for every rho, the Tikhonov solves, and the L2 error
and admissibility of every row (the batched forms of ``inversion``).
The per-level median errors are regressed against log(1/delta) on
log-log axes.  The theoretical error exponent is
p* = 2 s kappa / (1 + 2 s); the fitted exponent is checked for
upper-bound consistency (faster decay is compatible with an upper rate
bound).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_DELTA_GRID
from .errors import InsufficientDataError, SchemaError
from .fem import BoundaryVector, FactorizedSystem, ProblemData, trace
from .geometry import GAMMA_A, GAMMA_I, Mesh, boundary_map, generate_annulus_mesh, refine_uniform
from .inversion import (
    admissible_rows,
    build_forward_operator,
    discrepancy_search,
    noisy_rows,
    project_rows,
    tikhonov_rows,
)
from .spectral import build_spectral_basis, synthesize_flux_with_smoothness

logger = logging.getLogger(__name__)

RATES_CSV_HEADER = "delta,seed,rho,error,residual,admissible,failed"
PLOTDATA_CSV_HEADER = "delta,median_error,model_error"


@dataclass
class ExperimentConfig:
    """Inputs of one rate study; validated on construction."""

    r_inner: float = 0.5
    r_outer: float = 1.0
    h: float = 0.1
    refine_level: int = 1
    alpha: float = 1.0
    k: float = 1.0
    f: float = 0.0
    u_a: float = 0.0
    s: float = 0.5
    kappa: float = 0.9
    eps: float = 0.01
    delta_grid: tuple[float, ...] = DEFAULT_DELTA_GRID
    seeds_per_delta: int = 5
    base_seed: int = 0
    flux_seed: int = 42
    rho_rule: str = "discrepancy"            # discrepancy | fixed
    fixed_rho_schedule: tuple[float, ...] = ()
    tau_d: float = 1.5
    m0: float = 10.0
    allow_inverse_crime: bool = False        # test-only escape hatch

    def __post_init__(self):
        grid = np.asarray(self.delta_grid, dtype=float)
        if grid.size == 0 or not (np.diff(grid) < 0.0).all():
            raise ValueError("delta_grid must be non-empty and strictly decreasing")
        if not 0.0 < grid[-1] <= grid[0] < 1.0:   # the rate model log(log(1/delta)) needs delta < 1
            raise ValueError("delta_grid entries must be positive and finite, and below 1")
        if self.seeds_per_delta < 1:
            raise ValueError("seeds_per_delta must be >= 1")
        if self.refine_level < 1 and not self.allow_inverse_crime:
            raise ValueError("refine_level must be >= 1 (inverse-crime guard)")
        if self.rho_rule not in ("discrepancy", "fixed"):
            raise ValueError(f"unknown rho rule {self.rho_rule!r}")
        if self.rho_rule == "fixed" and len(self.fixed_rho_schedule) != grid.size:
            raise SchemaError("fixed_rho_schedule", f"has {len(self.fixed_rho_schedule)} "
                              f"entries, delta_grid has {grid.size}")
        if not all(0.0 < rho < math.inf for rho in self.fixed_rho_schedule):
            raise ValueError("fixed_rho_schedule entries must be positive and finite")

    @property
    def p_star(self) -> float:
        return 2.0 * self.s * self.kappa / (1.0 + 2.0 * self.s)


@dataclass
class RateRow:
    delta: float
    seed: int
    rho: float
    error: float
    residual: float
    admissible: bool
    failed: bool


@dataclass
class RateReport:
    rows: list[RateRow]
    p_hat: float
    p_star: float
    r_squared: float
    rho_rule: str
    median_errors: list[tuple[float, float]] = field(default_factory=list)


def transfer_boundary_values(src_mesh: Mesh, dst_mesh: Mesh, tag: str,
                             values: np.ndarray) -> np.ndarray:
    """Arc-length linear interpolation between two loops of the same circle.

    Both loops are parametrized by normalized arc length from their
    common start vertex (nested refinements preserve original indices,
    so the start vertices coincide); interpolation is periodic.
    """
    src = boundary_map(src_mesh, tag)
    dst = boundary_map(dst_mesh, tag)
    t_src = src.arc_coords / src.perimeter
    t_dst = dst.arc_coords / dst.perimeter
    t_ext = np.concatenate([t_src, [1.0]])
    v_ext = np.concatenate([values, [values[0]]])
    return np.interp(t_dst, t_ext, v_ext)


def run_rate_study(config: ExperimentConfig) -> RateReport:
    """Full pipeline: synthesize, generate data on the fine mesh, invert.

    Failed discrepancy brackets are recorded as failed rows, never
    dropped silently; the whole run is a pure function of the config.
    """
    coarse = generate_annulus_mesh(config.r_inner, config.r_outer, config.h)
    fine = coarse
    for _ in range(config.refine_level):
        fine = refine_uniform(fine)

    basis = build_spectral_basis(coarse)
    q_dag = synthesize_flux_with_smoothness(basis, config.s, config.eps, config.flux_seed)

    data_fine = ProblemData.from_constants(fine, config.alpha, config.k, config.f, config.u_a)
    q_fine = BoundaryVector(GAMMA_I, transfer_boundary_values(
        coarse, fine, GAMMA_I, q_dag.values))
    u_fine = trace(FactorizedSystem(fine, data_fine).solve_flux(q_fine), GAMMA_A)
    u_exact = BoundaryVector(GAMMA_A, transfer_boundary_values(
        fine, coarse, GAMMA_A, u_fine.values))

    op = build_forward_operator(
        coarse, ProblemData.from_constants(coarse, config.alpha, config.k,
                                           config.f, config.u_a))

    # every step takes the whole sweep at once: noise, projection, rho, solve and scoring
    sweep = [(float(delta), config.base_seed + 1000 * i + j)
             for i, delta in enumerate(config.delta_grid) for j in range(config.seeds_per_delta)]
    deltas = np.array([delta for delta, _ in sweep])
    data = noisy_rows(coarse, u_exact, deltas, [seed for _, seed in sweep])
    c, perp_sq = project_rows(op, data)
    if config.rho_rule == "discrepancy":
        rhos, failures = discrepancy_search(op, c, perp_sq, deltas, config.tau_d)
    else:
        rhos = [float(rho) for rho in config.fixed_rho_schedule
                for _ in range(config.seeds_per_delta)]
        failures = [""] * len(sweep)

    for (delta, seed), failure in zip(sweep, failures):
        if failure:
            logger.warning("delta=%.3e seed=%d failed: %s", delta, seed, failure)
    solved = [row for row, failure in enumerate(failures) if not failure]
    q, residuals, _ = tikhonov_rows(op, data[solved], c[solved], [rhos[row] for row in solved])
    diff = q - q_dag.values
    errors = np.sqrt((op.w_i * diff * diff).sum(axis=1))   # the lumped L2(GammaI) error
    admissible = admissible_rows(q, q_dag, basis, config.m0)
    rows = [RateRow(delta, seed, float("nan"), float("nan"), float("nan"), False, True)
            for delta, seed in sweep]
    for row, err, residual, ok in zip(solved, errors.tolist(), residuals.tolist(),
                                      admissible.tolist()):
        rows[row] = RateRow(*sweep[row], rhos[row], err, residual, ok, False)

    try:
        p_hat, r_squared = fit_log_rate(rows)
    except InsufficientDataError:
        # short grids still deliver their rows; the fit needs >= 4 deltas
        p_hat, r_squared = float("nan"), float("nan")
    medians = median_errors_by_delta(rows)
    logger.info("rate study: p_hat=%.4f p*=%.4f r2=%.4f", p_hat, config.p_star, r_squared)
    return RateReport(rows, p_hat, config.p_star, r_squared, config.rho_rule, medians)


def median_errors_by_delta(rows: list[RateRow]) -> list[tuple[float, float]]:
    """(delta, median error) over successful rows, delta descending."""
    deltas = sorted({r.delta for r in rows}, reverse=True)
    out = []
    for d in deltas:
        errs = [r.error for r in rows if r.delta == d and not r.failed]
        if errs:
            out.append((d, float(np.median(errs))))
    return out


def fit_log_rate(rows: list[RateRow]) -> tuple[float, float]:
    """Regress log(median error) on log(log(1/delta)).

    Models error ~ c * log(1/delta)^(-p); returns (p_hat, r_squared).
    Failed rows are excluded; needs >= 4 distinct surviving deltas.
    """
    medians = median_errors_by_delta(rows)
    medians = [(d, e) for d, e in medians if e > 0.0]
    if len(medians) < 4:
        raise InsufficientDataError(
            f"need >= 4 distinct deltas with successful rows, got {len(medians)}"
        )
    x = np.log(np.log(1.0 / np.array([d for d, _ in medians])))
    y = np.log(np.array([e for _, e in medians]))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    y_fit = A @ coef
    ss_res = float(((y - y_fit) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return float(-coef[0]), r_squared


def _fmt(x) -> str:
    return repr(float(x))


def emit_report(report: RateReport, out_dir) -> list[str]:
    """Write rates.csv, rates_plotdata.csv and summary.txt; byte-stable."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []

    rates_path = os.path.join(out_dir, "rates.csv")
    lines = [RATES_CSV_HEADER]
    for r in report.rows:
        lines.append(",".join([
            _fmt(r.delta), str(r.seed), _fmt(r.rho), _fmt(r.error),
            _fmt(r.residual), str(int(r.admissible)), str(int(r.failed)),
        ]))
    _write_lines(rates_path, lines)
    paths.append(rates_path)

    plot_path = os.path.join(out_dir, "rates_plotdata.csv")
    lines = [PLOTDATA_CSV_HEADER]
    if report.median_errors:
        d0, e0 = report.median_errors[0]
        c_model = e0 * np.log(1.0 / d0) ** report.p_hat
        for d, e in report.median_errors:
            model = c_model * np.log(1.0 / d) ** (-report.p_hat)
            lines.append(",".join([_fmt(d), _fmt(e), _fmt(model)]))
    _write_lines(plot_path, lines)
    paths.append(plot_path)

    summary_path = os.path.join(out_dir, "summary.txt")
    _write_lines(summary_path, [
        f"p_hat = {_fmt(report.p_hat)}",
        f"p_star = {_fmt(report.p_star)}",
        f"r_squared = {_fmt(report.r_squared)}",
        f"rho_rule = {report.rho_rule}",
    ])
    paths.append(summary_path)
    return paths


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

