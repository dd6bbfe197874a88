"""Command-line entry point: one binary, one subcommand per module.

Exit codes: 0 success, 1 domain/numerical failure, 2 IO/schema/usage
errors.  Every run writes a JSON manifest next to its outputs with
input/output digests, resolved config, seeds and runtime; all CSV
output is byte-stable for fixed inputs and seeds on the same numpy, scipy
and LAPACK build and BLAS thread count.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__
from .config import PROBLEM_KEYS, SCHEMAS, parse_config, resolve_field
from .errors import FluxRecError, MalformedFileError
from .fem import BoundaryVector, FactorizedSystem, ProblemData, trace
from .geometry import (
    GAMMA_A,
    GAMMA_I,
    boundary_map,
    generate_annulus_mesh,
    load_mesh,
    read_lines,
    read_records,
    refine_uniform,
    save_mesh,
)
from .inversion import add_noise, build_forward_operator, choose_rho_discrepancy, tikhonov_solve
from .manifest import fmt, write_manifest, write_summary, write_table
from .rates import ExperimentConfig, emit_report, run_rate_study
from .spectral import build_spectral_basis, loop_eigenvalues, synthesize_flux_with_smoothness
from .stability import fit_stability_modulus, generate_probe_ensemble, stability_bound
from .vsc import check_vsc_inequality, fit_vsc_constants, sample_admissible_fluxes

TRACE_CSV_HEADER = "vertex_index,arc_coord,value"


def write_boundary_csv(path, mesh, vector: BoundaryVector) -> None:
    bmap = boundary_map(mesh, vector.tag)
    write_table(path, TRACE_CSV_HEADER, bmap.vertex_indices, bmap.arc_coords, vector.values)


def read_boundary_csv(path, mesh, tag) -> BoundaryVector:
    raw = read_lines(path)
    if not raw or raw[0] != TRACE_CSV_HEADER:
        raise MalformedFileError(f"bad header in {path}", 1)
    bmap = boundary_map(mesh, tag)
    indices, arcs = bmap.vertex_indices, bmap.arc_coords
    n = len(indices)
    if len(raw) - 1 != n:
        raise MalformedFileError(f"{path} has {len(raw) - 1} records, expected {n}")
    records = read_records(raw[1:], (int, float, float), ",")
    m = len(records)  # the first m lines are records
    index, arc, values = records["f0"], records["f1"], records["f2"]
    checks = (index != indices[:m], ~(abs(arc - arcs[:m]) <= 1e-9 * bmap.perimeter),
              ~np.isfinite(values))
    wrong = np.flatnonzero(np.logical_or.reduce(checks))
    first = int(wrong[0]) if wrong.size else m  # the first line that is no record or is wrong
    if first == n:
        return BoundaryVector(tag, np.ascontiguousarray(values))
    line = raw[first + 1]
    parts = line.split(",")
    if first == m:
        message = (f"expected 3 fields, got {len(parts)}" if len(parts) != 3
                   else f"malformed record {line!r}")
    elif checks[0][first]:
        # int() of the field's own text: an index beyond int64 reads as -1 in the records
        message = f"vertex_index {int(parts[0])} where the {tag} loop has vertex {indices[first]}"
    elif checks[1][first]:
        message = f"arc_coord {parts[1]} where the {tag} loop has {fmt(arcs[first])}"
    else:
        message = f"non-finite value {parts[2]!r}"
    raise MalformedFileError(message, first + 2)


def _int_from(low: int):
    """Argument type for an integer flag whose values start at low, 0 or 1."""
    kind = {0: "non-negative", 1: "positive"}[low]

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def _config_value(name: str):
    """Argument type for a float flag that overrides config key `name`, in its domain."""
    check = PROBLEM_KEYS[name].check

    def parse(text: str) -> float:
        value = float(text)
        if check(value):
            raise argparse.ArgumentTypeError(f"{check(value)}, got {value}")
        return value

    parse.__name__ = "float"  # argparse reports a ValueError as "invalid float value"
    return parse


def _problem_data(mesh, cfg) -> ProblemData:
    n_v = mesh.n_vertices
    n_a = len(boundary_map(mesh, GAMMA_A))
    return ProblemData(
        resolve_field(cfg["alpha"], n_v, "alpha"),
        resolve_field(cfg["k"], n_a, "k"),
        resolve_field(cfg["f"], n_v, "f"),
        resolve_field(cfg["u_a"], n_a, "u_a"),
    )


# Each cmd_* computes and writes its outputs under args.out; dispatch parses its config and
# writes the manifest from what it returns: (extra config entries, seeds, inputs, outputs).
def cmd_mesh_gen(args, cfg):
    mesh = generate_annulus_mesh(args.r_inner, args.r_outer, args.h)
    for _ in range(args.refine):
        mesh = refine_uniform(mesh)
    save_mesh(mesh, args.out)
    return ({"r_inner": args.r_inner, "r_outer": args.r_outer, "h": args.h, "refine": args.refine},
            [], [], [args.out])


def cmd_forward(args, cfg):
    mesh = load_mesh(args.mesh)
    data = _problem_data(mesh, cfg)
    flux = read_boundary_csv(args.flux, mesh, GAMMA_I)
    u = FactorizedSystem(mesh, data).solve_flux(flux)
    write_boundary_csv(args.out, mesh, trace(u, GAMMA_A))
    return {}, [], [args.mesh, args.flux, args.config], [args.out]


def cmd_spectrum(args, cfg):
    lambdas = loop_eigenvalues(load_mesh(args.mesh))
    write_table(args.out, "n,lambda", np.arange(1, len(lambdas) + 1), lambdas)
    return {}, [], [args.mesh], [args.out]


def cmd_invert(args, cfg):
    mesh = load_mesh(args.mesh)
    data = _problem_data(mesh, cfg)
    op = build_forward_operator(mesh, data)
    u_clean = read_boundary_csv(args.data_trace, mesh, GAMMA_A)
    u_delta = add_noise(mesh, u_clean, args.delta, args.seed)
    if args.rho is not None:
        rho = args.rho
    else:
        rho = choose_rho_discrepancy(op, u_delta, args.delta, cfg["tau_d"])
    result = tikhonov_solve(op, u_delta, rho)

    os.makedirs(args.out, exist_ok=True)
    result_path = os.path.join(args.out, "invert_result.csv")
    # the iterations column is kept for file-format stability; the direct
    # solve has no iterations to count
    write_table(result_path, "rho,residual_norm,solution_norm,iterations", [result.rho],
                [result.residual_norm], [result.solution_norm], [0])
    flux_path = os.path.join(args.out, "flux_rec.csv")
    write_boundary_csv(flux_path, mesh, result.q_rec)
    return ({"delta": args.delta, "rho_flag": args.rho}, [args.seed],
            [args.mesh, args.data_trace, args.config], [result_path, flux_path])


def cmd_vsc_check(args, cfg):
    mesh = load_mesh(args.mesh)
    data = _problem_data(mesh, cfg)
    op = build_forward_operator(mesh, data)
    basis = build_spectral_basis(mesh)
    q_dag = synthesize_flux_with_smoothness(basis, cfg["s"], cfg["eps"], args.seed)

    evaluation = sample_admissible_fluxes(basis, q_dag, cfg["m0"], args.n_samples, args.seed + 2)
    spec = fit_vsc_constants(op, basis, q_dag, cfg["s"], cfg["kappa"])
    report = check_vsc_inequality(op, basis, q_dag, spec, evaluation, m0=cfg["m0"])

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "vsc_report.csv")
    write_table(report_path, "sample_id,lhs,rhs,margin", np.arange(len(report.margin)),
                report.lhs, report.rhs, report.margin)
    summary_path = os.path.join(args.out, "summary.txt")
    write_summary(summary_path, {
        "C": spec.C, "C0": spec.C0, "cprime": spec.cprime, "f_coeff": spec.f_coeff,
        "kappa": cfg["kappa"], "s": cfg["s"], "min_margin": report.min_margin,
        "fraction_nonnegative": report.fraction_nonnegative,
        "holds_empirically": report.holds_empirically})
    return ({"n_samples": args.n_samples}, [args.seed], [args.mesh, args.config],
            [report_path, summary_path])


def cmd_stability_probe(args, cfg):
    mesh = load_mesh(args.mesh)
    system = FactorizedSystem(mesh, _problem_data(mesh, {**cfg, "f": 0.0, "u_a": 0.0}))
    basis = build_spectral_basis(mesh)
    samples = generate_probe_ensemble(system, basis, args.n_samples, args.seed)
    c_fit, c0_fit, max_violation = fit_stability_modulus(samples, cfg["kappa"])

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "stability_report.csv")
    bounds = stability_bound(samples, c_fit, c0_fit, cfg["kappa"])
    write_table(report_path, "sample_id,trace_norm,h1_norm,m_proxy,bound,slack",
                np.arange(len(samples)), samples.trace_norm, samples.h1_norm, samples.m_proxy,
                bounds, bounds - samples.h1_norm)
    summary_path = os.path.join(args.out, "summary.txt")
    write_summary(summary_path, {"C_fit": c_fit, "C0_fit": c0_fit, "kappa": cfg["kappa"],
                                 "max_violation": max_violation, "n_samples": len(samples)})
    return ({"n_samples": args.n_samples}, [args.seed], [args.mesh, args.config],
            [report_path, summary_path])


def cmd_rates(args, cfg):
    report = run_rate_study(ExperimentConfig(**cfg))
    outputs = emit_report(report, args.out)
    return {}, [row.seed for row in report.rows], [args.config], outputs


@functools.cache   # parsing leaves the parser unchanged, so one per process serves every dispatch
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxrec",
        description="Distributed-flux reconstruction experiments on annular domains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mesh-gen", help="generate an annulus mesh")
    p.add_argument("--r-inner", type=float, default=0.5)
    p.add_argument("--r-outer", type=float, default=1.0)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--refine", type=_int_from(0), default=0,
                   help="uniform refinements after generation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh_gen)

    p = sub.add_parser("forward", help="solve the forward problem for a flux file")
    p.add_argument("--mesh", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--flux", required=True, help="flux CSV on GammaI in map order")
    p.add_argument("--out-trace", dest="out", metavar="OUT_TRACE", required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("spectrum", help="boundary eigenvalues on GammaI")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("invert", help="Tikhonov inversion of a measured trace")
    p.add_argument("--mesh", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data-trace", required=True, help="clean trace CSV on GammaA")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rho", type=float, default=None,
                   help="fixed regularization weight (default: discrepancy principle)")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("vsc-check", help="fit constants and check the source condition")
    p.add_argument("--mesh", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--s", type=_config_value("s"), default=None)
    p.add_argument("--kappa", type=_config_value("kappa"), default=None)
    p.add_argument("--n-samples", type=_int_from(1), default=200)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_vsc_check)

    p = sub.add_parser("stability-probe", help="fit the conditional-stability modulus")
    p.add_argument("--mesh", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--kappa", type=_config_value("kappa"), default=None)
    p.add_argument("--n-samples", type=_int_from(1), default=100)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_stability_probe)

    p = sub.add_parser("rates", help="noise-level sweep and logarithmic rate fit")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", dest="out", metavar="OUT_DIR", required=True)
    p.set_defaults(func=cmd_rates)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        started = time.time()
        cfg = parse_config(getattr(args, "config", None), SCHEMAS.get(args.subcommand, {}))
        flags = vars(args)  # a flag overrides the config key of the same name
        cfg.update((key, flags[key]) for key in cfg.keys() & flags.keys() if flags[key] is not None)
        extra, seeds, inputs, outputs = args.func(args, cfg)
        # manifest.json inside an output directory, <file>.manifest.json beside one output file
        path = (os.path.join(args.out, "manifest.json") if os.path.isdir(args.out)
                else args.out + ".manifest.json")
        write_manifest(path, args.subcommand, {**cfg, **extra}, seeds, inputs, outputs, started)
        return 0
    except FluxRecError as exc:
        print(f"fluxrec: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"fluxrec: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fluxrec: io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
