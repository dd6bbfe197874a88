"""The four benchmark workloads.

A workload's constructor writes its input files (the timed set-up).
``argvs`` turns one op into the fluxrec command lines that make it up;
``check`` verifies the files those commands wrote and returns the op's
accuracy figure.  Every op reads its inputs from files and writes its
outputs to files, exactly as the CLI would from a shell.

Each run starts with one reference op whose inputs are fixed, so its
accuracy figure (``result_err``) is comparable across seeds and
commits; the timed ops after it draw their inputs from the run seed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REF_SEED = 0


@dataclass(frozen=True)
class Op:
    seed: int
    reference: bool = False


class CheckFailed(Exception):
    """An op's outputs violate the workload's acceptance thresholds."""


def op_seed(run_seed: int, k: int) -> int:
    """Seed of timed op k; disjoint from REF_SEED for every run seed >= 0."""
    return 10_000 * (run_seed + 1) + k


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise CheckFailed(detail)


def _rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(bool(lines) and lines[0] == header, f"{path.name}: bad header")
    return [line.split(",") for line in lines[1:]]


def _key_values(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _boundary_values(path: Path) -> np.ndarray:
    return np.array([float(r[2]) for r in _rows(path, "vertex_index,arc_coord,value")])


class RatesSweep:
    """``fluxrec rates`` at h = 0.1, one refinement for the data, 10 seeds per delta."""

    name = "rates-sweep"
    guard_h = 0.1
    SEEDS_PER_DELTA = 10

    def __init__(self, fx, inputs: Path, seed: int):
        self.inputs = inputs

    def argvs(self, op: Op, out: Path) -> list[list[str]]:
        cfg = self.inputs / f"rates-{op.seed}.cfg"
        cfg.write_text(f"h = 0.1\nrefine_level = 1\nseeds_per_delta = {self.SEEDS_PER_DELTA}\n"
                       f"base_seed = {op.seed}\n", encoding="utf-8")
        return [["rates", "--config", str(cfg), "--out-dir", str(out / "rates")]]

    def check(self, op: Op, out: Path) -> tuple[float, dict]:
        """Acceptance criterion 8 on the op's report; error is the median at the smallest delta."""
        rows = _rows(out / "rates" / "rates.csv", "delta,seed,rho,error,residual,admissible,failed")
        failed_rows = sum(r[6] != "0" for r in rows)
        _require(len(rows) == 9 * self.SEEDS_PER_DELTA, f"{len(rows)} rate rows")
        _require(failed_rows == 0, f"{failed_rows} failed rate rows")
        summary = _key_values(out / "rates" / "summary.txt")
        p_hat, p_star = float(summary["p_hat"]), float(summary["p_star"])
        r2 = float(summary["r_squared"])
        _require(p_hat >= 0.5 * p_star, f"p_hat {p_hat} < p*/2 = {0.5 * p_star}")
        _require(r2 >= 0.8, f"r_squared {r2} < 0.8")
        medians = [float(r[1]) for r in _rows(out / "rates" / "rates_plotdata.csv",
                                              "delta,median_error,model_error")]
        _require(all(b <= 1.1 * a for a, b in zip(medians, medians[1:])),
                 "median errors not monotone in delta")
        return medians[-1], {"failed_rows": failed_rows}


class Invert:
    """``forward`` then ``invert --delta 1e-4`` with the discrepancy rule, h = 0.05."""

    name = "invert"
    guard_h = 0.05
    DELTA = 1e-4
    TAU_D = 1.5  # the config default the CLI runs with

    def __init__(self, fx, inputs: Path, seed: int):
        mesh = fx.geometry.generate_annulus_mesh(0.5, 1.0, self.guard_h)
        self.mesh_path = inputs / "mesh.txt"
        fx.geometry.save_mesh(mesh, self.mesh_path)
        basis = fx.spectral.build_spectral_basis(mesh)
        self.flux_paths = {}
        for reference, flux_seed in ((False, seed), (True, REF_SEED)):
            path = inputs / f"flux-{int(reference)}.csv"
            q = fx.spectral.synthesize_flux_with_smoothness(basis, 0.5, 0.01, flux_seed)
            fx.cli.write_boundary_csv(path, mesh, q)
            self.flux_paths[reference] = path
        self.weights = np.array(fx.geometry.boundary_map(mesh, fx.geometry.GAMMA_I).weights)

    def argvs(self, op: Op, out: Path) -> list[list[str]]:
        mesh, trace = str(self.mesh_path), str(out / "trace.csv")
        return [
            ["forward", "--mesh", mesh, "--flux", str(self.flux_paths[op.reference]),
             "--out-trace", trace],
            ["invert", "--mesh", mesh, "--data-trace", trace, "--delta", repr(self.DELTA),
             "--seed", str(op.seed), "--out", str(out / "inv")],
        ]

    def check(self, op: Op, out: Path) -> tuple[float, dict]:
        """Discrepancy residual in [delta, tau_d*delta]; error is relative L2(GammaI)."""
        (row,) = _rows(out / "inv" / "invert_result.csv",
                       "rho,residual_norm,solution_norm,iterations")
        residual = float(row[1])
        _require(self.DELTA <= residual <= self.TAU_D * self.DELTA,
                 f"residual {residual} outside [delta, tau_d*delta]")
        q_rec = _boundary_values(out / "inv" / "flux_rec.csv")
        q_true = _boundary_values(self.flux_paths[op.reference])
        _require(q_rec.shape == q_true.shape, "flux_rec.csv has the wrong length")
        w = self.weights
        err = math.sqrt((w * (q_rec - q_true) ** 2).sum() / (w * q_true ** 2).sum())
        return err, {}


class Ensembles:
    """``stability-probe`` then ``vsc-check``, 200 samples each, h = 0.1."""

    name = "ensembles"
    guard_h = 0.1
    N_SAMPLES = 200

    def __init__(self, fx, inputs: Path, seed: int):
        self.mesh_path = inputs / "mesh.txt"
        fx.geometry.save_mesh(fx.geometry.generate_annulus_mesh(0.5, 1.0, self.guard_h),
                              self.mesh_path)

    def argvs(self, op: Op, out: Path) -> list[list[str]]:
        common = ["--mesh", str(self.mesh_path), "--n-samples", str(self.N_SAMPLES),
                  "--seed", str(op.seed)]
        return [["stability-probe", *common, "--out", str(out / "stab")],
                ["vsc-check", *common, "--out", str(out / "vsc")]]

    def check(self, op: Op, out: Path) -> tuple[float, dict]:
        """Criteria 7 and 9 thresholds; error is the stability bound's median overestimate."""
        stab = _key_values(out / "stab" / "summary.txt")
        max_violation = float(stab["max_violation"])
        _require(max_violation <= 0.0, f"stability max_violation {max_violation} > 0")
        frac = float(_key_values(out / "vsc" / "summary.txt")["fraction_nonnegative"])
        _require(frac >= 0.95, f"VSC fraction_nonnegative {frac} < 0.95")
        rows = _rows(out / "stab" / "stability_report.csv",
                     "sample_id,trace_norm,h1_norm,m_proxy,bound,slack")
        ratios = [float(r[5]) / float(r[4]) for r in rows if math.isfinite(float(r[4]))]
        _require(len(ratios) > 0, "no finite stability bounds")
        return statistics.median(ratios), {"vsc_fraction_nonnegative": frac}


class MeshPipeline:
    """``mesh-gen --h 0.035 --refine 1`` (about 11k vertices), then ``spectrum`` on it."""

    name = "mesh-pipeline"
    guard_h = 0.1
    H = 0.035

    def __init__(self, fx, inputs: Path, seed: int):
        self.fx = fx
        self.inputs = inputs

    @staticmethod
    def r_inner(op: Op) -> float:
        # r_inner in [0.5, 0.51) keeps ceil((1 - r_inner) / H) = 15 rings, so every
        # op meshes the same number of vertices while the coordinates change
        if op.reference:
            return 0.5
        return 0.5 + 0.01 * float(np.random.default_rng(op.seed).random())

    def argvs(self, op: Op, out: Path) -> list[list[str]]:
        mesh = str(out / "mesh.txt")
        return [["mesh-gen", "--r-inner", repr(self.r_inner(op)), "--h", repr(self.H),
                 "--refine", "1", "--out", mesh],
                ["spectrum", "--mesh", mesh, "--out", str(out / "spectrum.csv")]]

    def check(self, op: Op, out: Path) -> tuple[float, dict]:
        """Criterion 2 (1% fidelity, pairing) and a byte-exact mesh round trip."""
        lam = np.array([float(r[1]) for r in _rows(out / "spectrum.csv", "n,lambda")[:10]])
        r = self.r_inner(op)
        exact = np.array([1.0] + [math.sqrt(1.0 + (n / r) ** 2)
                                  for n in (1, 1, 2, 2, 3, 3, 4, 4, 5)])
        rel = float((np.abs(lam - exact) / exact).max())
        _require(rel <= 0.01, f"spectral deviation {rel} > 1%")
        _require(all(abs(lam[i] - lam[i + 1]) <= 1e-6 * lam[i] for i in (1, 3, 5, 7)),
                 "eigenvalue pairs not paired")
        round_trip = self.inputs / "round_trip.txt"
        self.fx.geometry.save_mesh(self.fx.geometry.load_mesh(out / "mesh.txt"), round_trip)
        _require(round_trip.read_bytes() == (out / "mesh.txt").read_bytes(),
                 "mesh save/load round trip is not byte-exact")
        return rel, {}


WORKLOADS = {w.name: w for w in (RatesSweep, Invert, Ensembles, MeshPipeline)}
