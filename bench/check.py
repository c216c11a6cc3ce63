"""Checks on what the commands wrote.

* Deterministic values (normalizers, asymptotic sigmas, exact cumulants,
  ``s_n`` and bound shapes) are compared with ``references.json``, generated
  by ``make_references.py`` and cross-checked there against independent
  oracles.  Tolerances are the ones the repository's tests use for the same
  quantities, so a change of algorithm that the tests accept passes here.
* Monte Carlo outputs are judged only by the exit code and the report's own
  checks, never by comparing draws.
* All jobs of one run (same seed) must write identical outputs.  Manifests
  are compared without their timestamp and ``.npz`` files by their arrays,
  because the zip container stores write times.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

#: Relative tolerance per deterministic quantity.
TOLERANCES = {
    "normalizer": 1e-10,             # closed-form trace (drift-scaling test)
    "truncation_tail_ratio": 1e-10,
    "sigma_asymptotic": 1e-5,        # tail-fitted series limit (dual-route test)
    "kappa3_exact": 1e-8,            # trace identities (s_n two-route test)
    "kappa4_exact": 1e-8,
    "s_n": 1e-8,
    "kappa3_bound_shape": 1e-8,
    "kappa4_bound_shape": 1e-8,
}


def deterministic_values(out_dir: Path) -> dict[str, float]:
    """Seed-independent values one command wrote to ``out_dir``, by name."""
    out = {}
    estimate = out_dir / "estimate.json"
    if estimate.exists():
        report = json.loads(estimate.read_text())
        for key in ("normalizer", "truncation_tail_ratio", "sigma_asymptotic"):
            out[f"estimate.{key}"] = report[key]
    for summary in sorted(out_dir.glob("experiment_*_summary.json")):
        for row in json.loads(summary.read_text())["rows"]:
            if row["statistic"] in TOLERANCES:
                out[f"{row['statistic']}[n={row['grid']:g}]"] = row["value"]
    return out


def report_failures(out_dir: Path) -> list[str]:
    """Experiment checks in ``out_dir`` that did not pass."""
    failed = []
    for summary in sorted(out_dir.glob("experiment_*_summary.json")):
        for check in json.loads(summary.read_text())["checks"]:
            if not check["passed"]:
                failed.append(check["name"])
    return failed


def compare(values: dict[str, float], reference: dict[str, float]) -> list[str]:
    """Names whose value misses the reference (or is missing either side)."""
    bad = []
    for name in sorted(set(values) | set(reference)):
        if name not in values or name not in reference:
            bad.append(f"{name}: missing")
            continue
        got, want = values[name], reference[name]
        rtol = TOLERANCES[name.split("[")[0].removeprefix("estimate.")]
        if got is None or want is None:
            if got is not want:
                bad.append(f"{name}: {got!r} vs reference {want!r}")
        elif not math.isclose(got, want, rel_tol=rtol, abs_tol=1e-300):
            bad.append(f"{name}: {got!r} vs reference {want!r} (rtol {rtol:g})")
    return bad


def load_reference(workload: str, scale: str) -> dict[str, float]:
    return json.loads(REFERENCES.read_text())[scale][workload]


def output_digest(job_dir: Path, commands) -> str:
    """Digest of every file the commands wrote, normalized as described above."""
    h = hashlib.sha256()
    for cmd in commands:
        for path in sorted((job_dir / cmd.name).rglob("*")):
            if not path.is_file():
                continue
            h.update(str(path.relative_to(job_dir)).encode() + b"\0")
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                manifest.pop("created_at", None)
                h.update(json.dumps(manifest, sort_keys=True).encode())
            elif path.suffix == ".npz":
                with zipfile.ZipFile(path) as zf:
                    for name in sorted(zf.namelist()):
                        h.update(name.encode() + b"\0" + zf.read(name))
            else:
                h.update(path.read_bytes())
    return h.hexdigest()
