"""Batch command-line front end.

Subcommands::

    fracdrift theory      --config cfg.json --out DIR
    fracdrift simulate    --config cfg.json --out DIR [--seed N]
    fracdrift estimate    --config cfg.json --out DIR
    fracdrift experiment KIND --config cfg.json --out DIR [--seed N] [--threads K]

Every run writes its outputs under a single directory together with a
``manifest.json`` recording the configuration, its hash, the effective seed,
library versions and OpenBLAS's idle timeout (see below); ``theory`` and
``experiment`` write both JSON and CSV.
An experiment config's keys are the fields of
:class:`fracdrift.harness.ExperimentSpec` (plus ``model_file``), passed
through, so the spec alone sets their defaults, types and rules.  Exit codes:
0 success / all thresholds passed, 1 execution error, 2 experiment threshold
failure, 3 degenerate normalizer.
Errors are written to stderr as ``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

# OpenBLAS reads its settings once, when numpy loads it.  Its idle workers
# spin for about 2^28 cycles before they sleep, up to 0.1 s of CPU per
# process and again after every threaded call; at 4 they sleep after 2^4.
# The thread count stays: OPENBLAS_NUM_THREADS=1 would slow the dense
# Cholesky fallback by about 30% at dimension 3000 and change its bits.  A
# value set by the user wins; when numpy was loaded first the setting is out
# of reach.  ``BLAS_THREAD_TIMEOUT`` is the value OpenBLAS started with.
BLAS_THREAD_TIMEOUT: str | None = None
if "numpy" not in sys.modules:
    BLAS_THREAD_TIMEOUT = os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np

from . import __version__
from .chaos import xi_H
from .covariance import (
    SUMMABLE_HURST,
    s_infty_star,
    s_n,
    trace_q,
    trace_tail_ratio,
    u_infty_star,
)
from .estimators import (
    CONTINUOUS_NORM,
    CONTINUOUS_PROJ,
    DISCRETE_NORM,
    DISCRETE_PROJ,
    DegenerateModelError,
    asymptotic_sigma,
    drift_scales,
    estimate,
    finish_report,
    qww1,
    trace_q1,
)
from .harness import _RUNNERS, ExperimentSpec, run_experiment
from .models import (
    ModelConfig,
    _require_keys,
    integer,
    model_from_dict,
    model_to_dict,
    positive_finite,
    projection_from_dict,
    real,
    seed_value,
)
from .simulate import (
    TrajectoryGrid,
    attach_projection,
    check_integration,
    integrate_path,
    sample_stationary_sequence,
    trajectory_from_csv,
    trajectory_from_npz,
    trajectory_to_csv,
    trajectory_to_npz,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_THRESHOLD = 2
EXIT_DEGENERATE = 3

MANIFEST_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _parsed(build, *args, **kwargs):
    """``build(*args, **kwargs)`` on config values; a bad value is a config error."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _fail(category: str, message: str, code: int) -> int:
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def _model_from_config(cfg: dict) -> ModelConfig:
    if "model" in cfg and "model_file" in cfg:
        raise ConfigError("give either 'model' or 'model_file', not both")
    if "model_file" in cfg:
        return _parsed(model_from_dict, _load_config(_parsed(Path, cfg["model_file"])))
    if "model" not in cfg:
        raise ConfigError("config needs a 'model' (or 'model_file') entry")
    return _parsed(model_from_dict, cfg["model"])


def _projection_from_config(cfg: dict, model: ModelConfig):
    if "projection" not in cfg:
        return None
    return _parsed(projection_from_dict, cfg["projection"], model.n_modes)


def _write_manifest(out_dir: Path, command: str, cfg: dict, seed: int | None) -> None:
    blob = json.dumps(cfg, sort_keys=True).encode()
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool": "fracdrift",
        "version": __version__,
        "command": command,
        "config": cfg,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed": seed,
        "openblas_thread_timeout": BLAS_THREAD_TIMEOUT,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# theory
# --------------------------------------------------------------------------

def cmd_theory(args) -> int:
    cfg = _load_config(args.config)
    _parsed(_require_keys, cfg, {"model", "model_file", "projection", "n_values", "dt"},
            set(), "theory config")
    model = _model_from_config(cfg)
    dt = _parsed(lambda: positive_finite(real(cfg.get("dt", 1.0), "dt"), "dt"))
    what = "each of n_values"
    n_values = _parsed(lambda: [positive_finite(integer(v, what), what)
                                for v in cfg.get("n_values", [16, 64, 256, 1024])])
    projection = _projection_from_config(cfg, model)

    tail_ratio = trace_tail_ratio(model)
    rows: list[tuple[str, float, str]] = []
    rows.append(("trace_q_alpha", trace_q(model), f"last-mode share {tail_ratio:.3g}"))
    rows.append(("trace_q_drift1", trace_q1(model).value, f"last-mode share {tail_ratio:.3g}"))
    if projection is not None:
        rows.append(("qww_drift1", qww1(model, projection).value, ""))

    trunc_note = f"truncation N={model.n_modes}, last-mode trace share {tail_ratio:.3g}"
    clt_regime = model.hurst < SUMMABLE_HURST
    if clt_regime:
        s_lim = s_infty_star(model, dt)
        u_lim = u_infty_star(model)
        rows.append(("s_inf_star", s_lim.value,
                     f"tail estimate {s_lim.tail_estimate:.3g}; {trunc_note}"))
        rows.append(("u_inf_star", u_lim.value,
                     f"tail estimate {u_lim.tail_estimate:.3g}; {trunc_note}"))
        gamma, delta = drift_scales(model, projection)

        def sigma(kind: str) -> float:
            return asymptotic_sigma(model, kind, projection, dt)

        rows.append(("gamma_alpha", gamma, trunc_note))
        rows.append(("sigma1", sigma(DISCRETE_NORM), trunc_note))
        rows.append(("sigma2", sigma(CONTINUOUS_NORM), trunc_note))
        if projection is not None:
            rows.append(("delta_alpha", delta, trunc_note))
            rows.append(("sigma3", sigma(DISCRETE_PROJ), trunc_note))
            rows.append(("sigma4", sigma(CONTINUOUS_PROJ), trunc_note))
        for n in n_values:
            rows.append((f"s_n[{n}]", s_n(model, n, dt), trunc_note))
            rows.append((f"xi_H[{n}]", xi_H(model.hurst, n), "model-independent rate"))
    else:
        rows.append(("clt_regime", 0.0, "H >= 3/4: no Gaussian limit, rate table omitted"))

    out = _out_dir(args)
    payload = {
        "schema_version": 1,
        "model": model_to_dict(model),
        "dt": dt,
        "clt_regime": clt_regime,
        "quantities": [{"name": n, "value": v, "note": note} for n, v, note in rows],
    }
    (out / "theory.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    lines = ["quantity,value,note"] + [f"{name},{value!r},{note}" for name, value, note in rows]
    (out / "theory.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out, "theory", cfg, None)
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _parsed(
        _require_keys,
        cfg,
        {"model", "model_file", "grid", "init", "method", "projection", "observe_every", "seed"},
        {"grid"},
        "simulate config",
    )
    model = _model_from_config(cfg)
    grid_cfg = cfg["grid"]
    _parsed(_require_keys, grid_cfg, {"dt", "n_steps", "burn_in_steps"}, {"dt", "n_steps"},
            "simulate config grid")
    grid = _parsed(lambda: TrajectoryGrid(
        real(grid_cfg["dt"], "grid.dt"), integer(grid_cfg["n_steps"], "grid.n_steps"),
        integer(grid_cfg.get("burn_in_steps", 0), "grid.burn_in_steps"),
    ))
    seed = _parsed(seed_value, args.seed if args.seed is not None else cfg.get("seed", 0))
    method = cfg.get("method", "integrate")
    if method == "integrate":
        init = cfg.get("init", "zero")
        if isinstance(init, dict):
            _parsed(_require_keys, init, {"given"}, {"given"}, "simulate config init")
            init = _parsed(np.asarray, init["given"], dtype=float)
        observe_every = _parsed(integer, cfg.get("observe_every", 1), "observe_every")
        _parsed(check_integration, model, grid, init, observe_every)
        traj = integrate_path(model, grid, init, seed, observe_every)
    elif method == "exact_stationary":
        for key in ("init", "observe_every"):
            if key in cfg:
                raise ConfigError(f"simulate config: method 'exact_stationary' does not "
                                  f"use {key!r}")
        if grid.burn_in_steps:
            raise ConfigError("simulate config: method 'exact_stationary' does not use "
                              "'grid.burn_in_steps'; its draws are stationary from the start")
        traj = sample_stationary_sequence(model, grid.n_steps, grid.dt, seed)
    else:
        raise ConfigError(f"unknown simulate method {method!r}")
    projection = _projection_from_config(cfg, model)
    if projection is not None:
        traj = attach_projection(traj, projection)

    out = _out_dir(args)
    (out / "trajectory.csv").write_text(trajectory_to_csv(traj))
    trajectory_to_npz(traj, out / "trajectory.npz")
    _write_manifest(out, "simulate", cfg, seed)
    return EXIT_OK


# --------------------------------------------------------------------------
# estimate
# --------------------------------------------------------------------------

def _load_trajectory(path: str):
    p = _parsed(Path, path)
    if not p.exists():
        raise ConfigError(f"trajectory file not found: {path}")
    try:
        return trajectory_from_npz(p) if p.suffix == ".npz" else trajectory_from_csv(p.read_text())
    except (KeyError, ValueError) as exc:  # KeyError: an npz without a field
        raise ConfigError(f"trajectory {path}: {exc}") from None


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    _parsed(
        _require_keys,
        cfg,
        {"model", "model_file", "trajectory", "estimator", "projection", "true_alpha"},
        {"trajectory", "estimator"},
        "estimate config",
    )
    model = _model_from_config(cfg)
    traj = _load_trajectory(cfg["trajectory"])
    kind = cfg["estimator"]
    true_alpha = (_parsed(lambda: positive_finite(real(cfg["true_alpha"], "true_alpha"),
                                                  "true_alpha"))
                  if "true_alpha" in cfg else None)
    projection = _projection_from_config(cfg, model)

    if kind in (DISCRETE_NORM, CONTINUOUS_NORM):
        normalizer, values = trace_q1(model), traj.sq_norms
    elif kind in (DISCRETE_PROJ, CONTINUOUS_PROJ):
        if projection is None:
            raise ConfigError("projection estimators need a 'projection' entry")
        if traj.projections is None:
            raise ConfigError("trajectory file carries no projection column")
        normalizer, values = qww1(model, projection), traj.projections**2
    else:
        raise ConfigError(f"unknown estimator kind {kind!r}")

    report = estimate(kind, values, traj.t, normalizer, model.hurst)
    sigma = None
    if model.hurst < SUMMABLE_HURST:
        sigma = asymptotic_sigma(model, kind, projection, traj.grid.dt)
    report = finish_report(report, model, sigma, true_alpha)

    out = _out_dir(args)
    (out / "estimate.json").write_text(report.to_json() + "\n")
    _write_manifest(out, "estimate", cfg, None)
    return EXIT_OK


# --------------------------------------------------------------------------
# experiment
# --------------------------------------------------------------------------

def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    keys = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"kind", "threads"}
    _parsed(_require_keys, cfg, keys | {"model_file"}, {"grid", "replications"},
            "experiment config")
    model = _model_from_config(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    # Every other key is an ExperimentSpec field of the same name.
    passthrough = {k: cfg[k] for k in cfg.keys() - {"model", "model_file", "seed", "projection"}}
    spec = _parsed(ExperimentSpec, kind=args.kind, model=model, seed=seed,
                   projection=_projection_from_config(cfg, model),
                   threads=args.threads, **passthrough)
    report = run_experiment(spec)

    out = _out_dir(args)
    summary = report.to_json_dict()
    summary["model"] = model_to_dict(model)
    (out / f"experiment_{args.kind}_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    (out / f"experiment_{args.kind}_report.csv").write_text(report.to_csv())
    _write_manifest(out, f"experiment {args.kind}", cfg, spec.seed)
    return EXIT_OK if report.passed else EXIT_THRESHOLD


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdrift",
        description="Drift estimation and limit-theorem experiments for "
                    "fractional-noise evolution equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_seed=True):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
        if with_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the seed in the config")

    p_theory = sub.add_parser("theory", help="emit normalizers, CLT constants and rate tables")
    common(p_theory, with_seed=False)
    p_theory.set_defaults(func=cmd_theory)

    p_sim = sub.add_parser("simulate", help="write a trajectory (CSV + binary cache)")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="run an estimator on a trajectory file")
    common(p_est, with_seed=False)
    p_est.set_defaults(func=cmd_estimate)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument("kind", choices=list(_RUNNERS))
    common(p_exp)
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_ERROR)
    except DegenerateModelError as exc:
        return _fail("degenerate", str(exc), EXIT_DEGENERATE)
    except (ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        return _fail("compute", str(exc) or "out of memory", EXIT_ERROR)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
