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
import os
from dataclasses import dataclass, field

import numpy as np

from .config import RATES_KEYS, check_value
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
from .manifest import write_summary, write_table
from .spectral import build_spectral_basis, synthesize_flux_with_smoothness

logger = logging.getLogger(__name__)

RATES_CSV_HEADER = "delta,seed,rho,error,residual,admissible,failed"
PLOTDATA_CSV_HEADER = "delta,median_error,model_error"


@dataclass
class ExperimentConfig:
    """Inputs of one rate study; each key is checked on construction as in a config file."""

    r_inner: float = RATES_KEYS["r_inner"].default
    r_outer: float = RATES_KEYS["r_outer"].default
    h: float = RATES_KEYS["h"].default
    refine_level: int = RATES_KEYS["refine_level"].default
    alpha: float = RATES_KEYS["alpha"].default
    k: float = RATES_KEYS["k"].default
    f: float = RATES_KEYS["f"].default
    u_a: float = RATES_KEYS["u_a"].default
    s: float = RATES_KEYS["s"].default
    kappa: float = RATES_KEYS["kappa"].default
    eps: float = RATES_KEYS["eps"].default
    delta_grid: tuple[float, ...] = RATES_KEYS["delta_grid"].default
    seeds_per_delta: int = RATES_KEYS["seeds_per_delta"].default
    base_seed: int = RATES_KEYS["base_seed"].default
    flux_seed: int = RATES_KEYS["flux_seed"].default
    rho_rule: str = RATES_KEYS["rho_rule"].default
    fixed_rho_schedule: tuple[float, ...] = RATES_KEYS["fixed_rho_schedule"].default
    tau_d: float = RATES_KEYS["tau_d"].default
    m0: float = RATES_KEYS["m0"].default
    allow_inverse_crime: bool = False        # test-only escape hatch

    def __post_init__(self):
        # the tuples of floats a config file parses to, so that every entry is checked as finite
        self.delta_grid = tuple(map(float, self.delta_grid))
        self.fixed_rho_schedule = tuple(map(float, self.fixed_rho_schedule))
        for name, key in RATES_KEYS.items():
            if not (name == "refine_level" and self.allow_inverse_crime):
                check_value(name, key, getattr(self, name))
        if self.rho_rule == "fixed" and len(self.fixed_rho_schedule) != len(self.delta_grid):
            raise SchemaError("fixed_rho_schedule", f"has {len(self.fixed_rho_schedule)} "
                              f"entries, delta_grid has {len(self.delta_grid)}")

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


def emit_report(report: RateReport, out_dir) -> list[str]:
    """Write rates.csv, rates_plotdata.csv and summary.txt; byte-stable."""
    os.makedirs(out_dir, exist_ok=True)
    rates_path, plot_path, summary_path = (
        os.path.join(out_dir, name) for name in ("rates.csv", "rates_plotdata.csv", "summary.txt"))
    # the header names the RateRow fields, one column each
    write_table(rates_path, RATES_CSV_HEADER, *([getattr(r, name) for r in report.rows]
                                                for name in RATES_CSV_HEADER.split(",")))
    medians, model = report.median_errors, []
    if medians:
        d0, e0 = medians[0]
        c_model = e0 * np.log(1.0 / d0) ** report.p_hat
        model = [c_model * np.log(1.0 / d) ** (-report.p_hat) for d, _ in medians]
    write_table(plot_path, PLOTDATA_CSV_HEADER, [d for d, _ in medians], [e for _, e in medians],
                model)
    write_summary(summary_path, {"p_hat": report.p_hat, "p_star": report.p_star,
                                 "r_squared": report.r_squared, "rho_rule": report.rho_rule})
    return [rates_path, plot_path, summary_path]
