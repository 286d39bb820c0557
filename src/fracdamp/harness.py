"""Experiment orchestration: runners, deterministic CSV artifacts, manifest.

Every runner takes a validated ExperimentConfig, writes its artifacts under
the output directory, and returns the list of paths written.  Numbers are
formatted with the shortest round-trip decimal representation, summation
orders are fixed, and seeds come from the config, so two runs of the same
config produce byte-identical files; a manifest with content hashes makes
that checkable at a glance.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from . import acceptance as accmod
from . import counterexamples as ce
from .charpoly import DampingParams, roots
from .config import ExperimentConfig
from .duhamel import constant_forcing_mode, forced_mode_at, forced_solve
from .errors import CertificationError, OracleFailure, ValidationError
from .forcing import ForcingSpec, WindowedSinusoid, ZeroForcing
from .probe import ProbeConfig, Verdict, membership_diagnosis, truncation_levels, weighted_partial_sums
from .propagator import GapScanConfig, Trajectory, gap_scan, homogeneous_solve
from .spectrum import (
    SpectralVector,
    SpectrumModel,
    geometric_spectrum,
    partition_interleave,
    sobolev_norm,
)


def fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, header, rows) -> str:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    return str(path)


def write_manifest(out_dir, paths) -> str:
    lines = []
    for p in sorted(paths):
        digest = hashlib.sha256(open(p, "rb").read()).hexdigest()
        lines.append(f"{digest}  {os.path.basename(p)}")
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def build_spectrum(cfg: ExperimentConfig) -> SpectrumModel:
    if cfg.spectrum_kind == "csv":
        return SpectrumModel.from_csv(cfg.spectrum_path)
    return geometric_spectrum(cfg.modes, cfg.base, cfg.scale, cfg.floor)


def _parse_vector(text: str, K: int) -> SpectralVector:
    text = text.strip()
    if text == "zeros":
        return SpectralVector(np.zeros(K))
    if text == "ones":
        return SpectralVector(np.ones(K))
    if text.startswith("basis:"):
        k = int(text.split(":", 1)[1])
        if not 0 <= k < K:
            raise ValidationError(f"initial data basis index {k} outside 0..{K - 1}")
        v = np.zeros(K)
        v[k] = 1.0
        return SpectralVector(v)
    if text.startswith("values:"):
        vals = np.array([float(t) for t in text.split(":", 1)[1].split()])
        if vals.size != K:
            raise ValidationError(f"initial data lists {vals.size} values, spectrum has {K}")
        return SpectralVector(vals)
    raise ValidationError(f"initial data {text!r} not understood")


def build_forcing(cfg: ExperimentConfig, m: SpectrumModel, rng) -> ForcingSpec:
    kind = cfg.forcing_kind
    if kind == "none":
        return ForcingSpec.zero(m.K)
    if kind == "constant":
        w = ce.divergent_weights(cfg.eta, m.K)
        return ForcingSpec.constant(w.amplitudes)
    if kind == "uniform-constant":
        amp = cfg.amplitude / math.sqrt(m.K)
        return ForcingSpec.constant([amp] * m.K)
    if kind == "resonant":
        p = DampingParams(cfg.sigma, cfg.delta)
        spec, _ = ce.statement1_resonant_force(cfg.target_time, cfg.eta, np.arange(m.K), m, p)
        return spec
    if kind == "random":
        return accmod.random_forcing(m, rng, T=cfg.t_stop if cfg.t_stop > 0 else 2.0)
    if kind == "periodic-square":
        amp = cfg.amplitude / math.sqrt(m.K)
        modes = tuple(accmod.smoothed_square_wave(amp, cfg.period, cfg.ramp) for _ in range(m.K))
        return ForcingSpec(modes, period=cfg.period)
    raise ValidationError(f"forcing kind {kind!r} not supported here")


# ---------------------------------------------------------------------------
# Runners


def run_roots(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    m = build_spectrum(cfg)
    p = DampingParams(cfg.sigma, cfg.delta)
    rows = []
    for lam in m.eigenvalues:
        r = roots(p, float(lam))
        rows.append((float(lam), str(r.regime), r.x1, r.x2))
    path = write_csv(os.path.join(out_dir, "roots.csv"), ["lambda", "regime", "x1", "x2"], rows)
    return [path]


def _trajectory_csvs(cfg, m, traj: Trajectory, out_dir, spec: ForcingSpec | None) -> list[str]:
    mode_rows = []
    for i, t in enumerate(traj.times):
        for k in range(m.K):
            mode_rows.append((float(t), k, float(m.eigenvalues[k]), traj.u[i, k], traj.uprime[i, k]))
    paths = [
        write_csv(
            os.path.join(out_dir, "modes.csv"),
            ["t", "k", "lambda", "u", "uprime"],
            mode_rows,
        )
    ]
    norm_rows = []
    fnorm = spec.norm_at(traj.times) if spec is not None else None
    for i, t in enumerate(traj.times):
        vu = SpectralVector(traj.u[i])
        vp = SpectralVector(traj.uprime[i])
        for alpha in cfg.alpha_grid:
            row = [float(t), float(alpha), sobolev_norm(vu, alpha, m), sobolev_norm(vp, alpha, m)]
            if fnorm is not None:
                row.append(float(fnorm[i]))
            norm_rows.append(tuple(row))
    header = ["t", "alpha", "norm_u", "norm_uprime"] + (["forcing_norm"] if fnorm is not None else [])
    paths.append(write_csv(os.path.join(out_dir, "norms.csv"), header, norm_rows))
    return paths


def run_simulate(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    m = build_spectrum(cfg)
    p = DampingParams(cfg.sigma, cfg.delta)
    t_grid = cfg.t_grid()
    if cfg.kind == "simulate-homogeneous":
        U0 = _parse_vector(cfg.u0, m.K)
        U1 = _parse_vector(cfg.u1, m.K)
        traj = homogeneous_solve(m, p, U0, U1, t_grid, threads=cfg.threads)
        return _trajectory_csvs(cfg, m, traj, out_dir, None)
    rng = np.random.default_rng(cfg.seed)
    spec = build_forcing(cfg, m, rng)
    traj = forced_solve(m, p, spec, t_grid)
    return _trajectory_csvs(cfg, m, traj, out_dir, spec)


def run_gap_scan(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    if not cfg.gaps:
        raise ValidationError("config field 'grids.gaps': gap-scan needs at least one gap")
    m = build_spectrum(cfg)
    p = DampingParams(cfg.sigma, cfg.delta)
    t_grid = cfg.t_grid()
    rows = []
    for gap in cfg.gaps:
        a0, a1 = (gap, 0.0) if gap >= 0 else (0.0, -gap)
        res = gap_scan(m, p, GapScanConfig(a0, a1, t_grid, m.eigenvalues))
        for lam, c in zip(res.lambdas, res.amplification):
            rows.append((float(gap), float(lam), float(c)))
    path = write_csv(os.path.join(out_dir, "gapscan.csv"), ["gap", "lambda", "amplification"], rows)
    return [path]


def run_diagram(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    from .probe import boundedness_scan

    sigmas = cfg.sigmas or (cfg.sigma,)
    m = build_spectrum(cfg)
    t = cfg.t_grid()
    pc = ProbeConfig(
        converged_ratio=cfg.converged_ratio,
        diverge_slack=cfg.diverge_slack,
        fit_r2_min=cfg.fit_r2_min,
    )
    rows = []
    for sig in sigmas:
        p = DampingParams(float(sig), cfg.delta)
        norms_fn = accmod.constant_forcing_norms(p, m, cfg.amplitude / math.sqrt(m.K))
        for row in boundedness_scan(norms_fn, cfg.alpha_grid, t, cfg=pc):
            rows.append(
                (float(sig), row.alpha, row.component, str(row.fit.verdict),
                 row.fit.exponent if row.fit.exponent is not None else "")
            )
    path = write_csv(
        os.path.join(out_dir, "diagram.csv"),
        ["sigma", "alpha", "component", "verdict", "fit_exponent"],
        rows,
    )
    return [path]


def _dump_forcing(spec_modes, path, extra_lines=()) -> str:
    """Human-readable, diff-stable description of per-mode forcing variants."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("[forcing]\n")
        for line in extra_lines:
            fh.write(line + "\n")
        for k, v in enumerate(spec_modes):
            if isinstance(v, ZeroForcing):
                continue
            if isinstance(v, WindowedSinusoid):
                fh.write(
                    f"mode.{k} = windowed_sinusoid {fmt(v.amplitude)} {fmt(v.omega)} "
                    f"{fmt(v.phase)} {fmt(v.start)} {fmt(v.stop)} {fmt(v.ramp)}\n"
                )
            elif hasattr(v, "level"):
                fh.write(f"mode.{k} = constant {fmt(v.level)}\n")
            else:
                fh.write(f"mode.{k} = {type(v).__name__}\n")
    return str(path)


def run_counterexample(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    p = DampingParams(cfg.sigma, cfg.delta)
    m = build_spectrum(cfg)
    paths = []
    cert_rows = []
    if cfg.statement == 3:
        w = ce.divergent_weights(cfg.eta, m.K)
        spec = ce.statement3_constant_force(p, w, m)
        levels = truncation_levels(m.K)
        for t in cfg.targets:
            u_vals = np.array([constant_forcing_mode(p, float(lk), float(t))[0] for lk in m.eigenvalues])
            coeffs = np.asarray(w.amplitudes) * u_vals
            for alpha in (p.sigma + 0.1, p.sigma):
                sums = weighted_partial_sums(m.eigenvalues, coeffs, float(alpha), levels)
                verdict = membership_diagnosis(sums).verdict
                cert_rows.append((float(t), float(alpha), str(verdict), float(sums[-1])))
        paths.append(_dump_forcing(spec.modes, os.path.join(out_dir, "forcing.cfg")))
    elif cfg.statement in (1, 2):
        if cfg.statement == 1 and p.sigma != 0.0:
            raise ValidationError("config field 'damping.sigma': statement 1 needs sigma = 0")
        if cfg.statement == 2 and not 0.0 < p.sigma < 1.0:
            raise ValidationError("config field 'damping.sigma': statement 2 needs 0 < sigma < 1")
        parts = partition_interleave(m, max(2, len(cfg.targets)))
        spec, sched = ce.assemble_disjoint(p, m, cfg.targets, parts, eta0=cfg.eta)
        if p.sigma == 0.0:
            alphas_u = (0.6, 0.5)
            alpha_up = 0.1
        else:
            tr = ce.blowup_triple(p)
            alphas_u = (tr.sigma0,)
            alpha_up = tr.sigma1
        for n, T in enumerate(sched.targets):
            used = sched.modes_used[n]
            lams = np.array([float(m.eigenvalues[k]) for k in used])
            vu, vp = [], []
            for k in used:
                rk = roots(p, float(m.eigenvalues[k]))
                u, upv = forced_mode_at(rk, spec.mode(int(k)), float(T))
                vu.append(u)
                vp.append(upv)
            lv = truncation_levels(len(used), n_levels=8)
            for alpha, coeffs in [(a, vu) for a in alphas_u] + [(alpha_up, vp)]:
                sums = weighted_partial_sums(lams, np.asarray(coeffs), float(alpha), lv)
                verdict = membership_diagnosis(sums).verdict
                cert_rows.append((float(T), float(alpha), str(verdict), float(sums[-1])))
        paths.append(_dump_forcing(spec.modes, os.path.join(out_dir, "forcing.cfg")))
    else:
        asm = ce.statement4_sequence(p, m, cfg.n_max)
        lines = [f"eta = {fmt(asm.certificates[0].eta)}", f"kind = backward_switch"]
        for n, c in enumerate(asm.certificates, start=1):
            cert_rows.append((c.T, 1.0, "Diverging" if c.au_sq >= n else "Failed", c.au_sq))
            lines.append(f"certificate.{n}.T = {fmt(c.T)}")
            for k, y0, y1, w in c.forcing.slots:
                lines.append(
                    f"certificate.{n}.slot = {k} {fmt(y0)} {fmt(y1)} {fmt(w)}"
                )
        paths.append(_dump_forcing((), os.path.join(out_dir, "forcing.cfg"), extra_lines=lines))
        if any(c.au_sq < n for n, c in enumerate(asm.certificates, start=1)):
            raise CertificationError("statement 4 certificate fell below its target")
    paths.append(
        write_csv(
            os.path.join(out_dir, "certificate.csv"),
            ["target_time", "alpha", "verdict", "value"],
            cert_rows,
        )
    )
    bad = [r for r in cert_rows if r[2] == str(Verdict.INCONCLUSIVE)]
    if bad:
        raise CertificationError(f"{len(bad)} certificate rows are inconclusive")
    return paths


def run_verify(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    res = accmod.ac3_oracle_equivalence()
    rows = [
        (r.get("sigma"), r.get("delta"), r.get("lambda"), r.get("u0", ""), r.get("u1", ""),
         r.get("err"), r.get("note", ""))
        for r in res.rows
    ]
    path = write_csv(
        os.path.join(out_dir, "verify.csv"),
        ["sigma", "delta", "lambda", "u0", "u1", "max_abs_err", "note"],
        rows,
    )
    print(res.line())
    if not res.passed:
        raise OracleFailure(res.detail)
    return [path]


def run_acceptance(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    from .recipes import ACCEPTANCE_BY_NAME

    name = cfg.recipe
    if name not in ACCEPTANCE_BY_NAME:
        raise ValidationError(f"config field 'experiment.recipe': unknown recipe {name!r}")
    res = ACCEPTANCE_BY_NAME[name]()
    header: list[str] = []
    rows = []
    for r in res.rows:
        if not header:
            header = list(r.keys())
        rows.append(tuple(r.get(h, "") for h in header))
    path = write_csv(os.path.join(out_dir, f"{name}.csv"), header or ["detail"], rows or [(res.detail,)])
    print(res.line())
    if not res.passed:
        raise CertificationError(f"{name} failed: {res.detail}")
    return [path]


_RUNNERS = {
    "roots": run_roots,
    "simulate-homogeneous": run_simulate,
    "simulate-forced": run_simulate,
    "gap-scan": run_gap_scan,
    "diagram": run_diagram,
    "counterexample": run_counterexample,
    "verify": run_verify,
    "acceptance": run_acceptance,
}


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> list[str]:
    """Execute one experiment config; returns the artifact paths (incl. manifest)."""
    cfg.validate()
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    paths = _RUNNERS[cfg.kind](cfg, out)
    paths.append(write_manifest(out, paths))
    return paths
