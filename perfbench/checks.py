"""Output checks for each CLI operation, independent of the program's verdict.

Every check reads what the operation wrote and returns a list of problems;
an empty list means the operation passed.  A value passes only when it is a
finite number no larger than its tolerance, so NaN never passes.  Files are
parsed with the standard library, not with cocyclelab's own readers.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# The residuals `verify` reports at the seed, with the tolerances they had
# there.  A report tolerance looser than these does not loosen the check.
VERIFY_TOLS = {
    "structure": 1e-9,
    "transport": 1e-6,
    "recurrence": 1e-6,
    "energy": 1e-6,
    "h0-frame": 1e-6,
    "h0-vertical": 1e-6,
    "cocycle": 1e-5,
    "holonomy": 1e-5,
}
CERT_TOL = 1e-6  # gate of every Backlund step, and of the reduced pair
GMERO_TOL = 1e-6
DRIFT_TOL = 1e-6  # orthogonality drift allowed at the end of `transport`


def within(value, tol) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value <= tol)


def _load(path: Path):
    try:
        return json.loads(path.read_bytes()), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: {exc}"


def _residual_problems(residuals, tols: dict) -> list[str]:
    if not isinstance(residuals, dict):
        return ["residuals missing"]
    out = []
    for key, tol in tols.items():
        if key not in residuals:
            out.append(f"{key} missing")
        elif not within(residuals[key], tol):
            out.append(f"{key} = {residuals[key]!r} (tol {tol:g})")
    return out


def check_generate(outdir: Path, steps: int) -> tuple[list[str], dict | None]:
    """Gated certificate residuals of every step, and the output hashes.

    Returns (problems, hashes); hashes are those in certificates.json after
    checking that they match the bytes of the files they name.
    """
    doc, err = _load(outdir / "certificates.json")
    if err:
        return [err], None
    problems = []
    certs = doc.get("steps", [])
    if len(certs) != steps:
        problems.append(f"{len(certs)} certified steps, expected {steps}")
    gated = {"input-field": CERT_TOL, "holomorphy": GMERO_TOL, "output-field": CERT_TOL}
    for k, step in enumerate(certs):
        problems += [f"step {k}: {p}" for p in _residual_problems(step.get("residuals"), gated)]
    hashes = doc.get("hashes", {})
    for name in ("pair.json", "trivializer.json"):
        try:
            actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if hashes.get(name) != actual:
            problems.append(f"{name}: sha256 in certificates.json does not match the file")
    return problems, hashes


def check_verify(report_path: Path) -> list[str]:
    """Every residual in the report, against min(report tolerance, seed tolerance)."""
    doc, err = _load(report_path)
    if err:
        return [err]
    residuals = doc.get("residuals")
    if not isinstance(residuals, dict) or not residuals:
        return ["report has no residuals"]
    problems = []
    if doc.get("errors"):
        problems.append(f"errors: {doc['errors']}")
    if "holonomy" not in residuals and "cocycle" not in residuals:
        problems.append("neither holonomy nor cocycle was checked")
    report_tols = doc.get("tolerances", {})
    for key in VERIFY_TOLS:
        if key in ("holonomy", "cocycle"):
            continue
        if key not in residuals:
            problems.append(f"{key} missing")
    for key, value in residuals.items():
        tol = report_tols.get(key)
        if not within(tol, math.inf):
            problems.append(f"{key}: no finite tolerance")
            continue
        tol = min(tol, VERIFY_TOLS.get(key, tol))
        if not within(value, tol):
            problems.append(f"{key} = {value!r} (tol {tol:g})")
    return problems


def check_reduce(outdir: Path) -> list[str]:
    doc, err = _load(outdir / "reduction_report.json")
    if err:
        return [err]
    return _residual_problems(doc.get("residuals"), {"reduced-field": CERT_TOL})


def check_transport(csv_path: Path) -> list[str]:
    """Final orthogonality drift of the transported cocycle."""
    try:
        lines = csv_path.read_text().splitlines()
    except OSError as exc:
        return [f"{csv_path.name}: {exc}"]
    if len(lines) < 2 or lines[0].split(",")[-1] != "drift":
        return ["transport CSV has no drift column or no rows"]
    try:
        drift = float(lines[-1].split(",")[-1])
    except ValueError:
        return [f"final drift {lines[-1].split(',')[-1]!r} is not a number"]
    return [] if within(drift, DRIFT_TOL) else [f"final drift = {drift!r} (tol {DRIFT_TOL:g})"]


class Record:
    """Values that must repeat exactly for one version of the program.

    Kept in a JSON file keyed by a hash of the program's source and the numpy
    version, so runs of the same code compare against each other and a code
    change starts a fresh record.  Hashes are never compared across versions.
    """

    def __init__(self, path: Path, code_key: str):
        self.path = path
        self.key = code_key
        doc, _ = _load(path) if path.exists() else ({}, None)
        self.values = doc.get(code_key, {}) if isinstance(doc, dict) else {}

    def same(self, name: str, value) -> bool:
        """True if value equals the one first recorded under name."""
        if name not in self.values:
            self.values[name] = value
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps({self.key: self.values}, sort_keys=True))
            tmp.replace(self.path)
            return True
        return self.values[name] == value
