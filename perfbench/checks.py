"""Correctness checks on what `gsample bench` writes, recomputed with plain
NumPy and the standard library rather than with gsample's own functions."""

from __future__ import annotations

import csv
import hashlib
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from workloads import METHODS, Workload

GAP_TOL = 1e-6  # the solver's own stopping rule: gap <= tol * max(1, |objective|)
SUPPORT_TOL = 1e-9  # a node is in the support when its weight exceeds this
_SIMPLEX_TOL = 1e-10
_REL_TOL = 1e-9


@dataclass
class RecordStats:
    """One records CSV, reduced to what the metrics and checks need."""

    attempted: int = 0
    failed: int = 0
    wall_ms: array = field(default_factory=lambda: array("d"))
    groups: dict = field(default_factory=dict)  # (method, K, snr) -> [ok errors, failures, trials]
    digest: str = ""  # sha256 of every field except wall_ms
    problems: list = field(default_factory=list)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    def mean_error(self, method) -> float:
        values = [e for key, group in self.groups.items() if key[0] == method for e in group[0]]
        return math.fsum(values) / len(values) if values else math.nan


def _data_rows(fh):
    return csv.reader(line for line in fh if not line.startswith("#"))


def read_records(path, workload: Workload) -> RecordStats:
    """Parse a records CSV and check its shape: one record per method, grid
    point and trial; `ok` records carry a finite error_l2 and every other
    record is a `failed:<reason>` record."""
    stats = RecordStats()
    digest = hashlib.sha256()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _data_rows(fh)
        header = next(rows)
        col = {name: i for i, name in enumerate(header)}
        i_method, i_k, i_snr, i_trial = col["method"], col["K"], col["snr_db"], col["trial"]
        i_err, i_wall, i_status = col["error_l2"], col["wall_ms"], col["status"]
        for row in rows:
            stats.attempted += 1
            digest.update("\x1f".join(row[:i_wall] + row[i_wall + 1:]).encode() + b"\n")
            stats.wall_ms.append(float(row[i_wall]))
            method, status, err = row[i_method], row[i_status], float(row[i_err])
            group = stats.groups.setdefault((method, row[i_k], row[i_snr]), [[], 0, set()])
            group[2].add(int(row[i_trial]))
            if status == "ok":
                if not (math.isfinite(err) and err >= 0.0):
                    stats.problems.append(f"ok record with error_l2={err}: {row}")
                group[0].append(err)
            elif status.startswith("failed:"):
                stats.failed += 1
                group[1] += 1
            else:
                stats.problems.append(f"unknown status {status!r}")
    stats.digest = digest.hexdigest()
    if stats.attempted != workload.expected_records:
        stats.problems.append(
            f"{stats.attempted} records, expected {workload.expected_records} "
            f"= {len(METHODS)} methods x {workload.grid_points} grid points "
            f"x {workload.trials} trials")
    if {g[0] for g in stats.groups} != set(METHODS):
        stats.problems.append(f"methods {sorted({g[0] for g in stats.groups})}")
    trials = set(range(workload.trials))
    for key, (ok, failures, seen) in stats.groups.items():
        if seen != trials or len(ok) + failures != workload.trials:
            stats.problems.append(f"group {key} does not hold trials 0..{workload.trials - 1} once each")
    return stats


def check_summary(path, stats: RecordStats) -> list[str]:
    """The summary CSV must hold, per (method, K, SNR), the mean of the ok
    error_l2 values and the ok / failed counts of the records CSV."""
    problems = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _data_rows(fh)
        col = {name: i for i, name in enumerate(next(rows))}
        for row in rows:
            key = (row[col["method"]], row[col["K"]], row[col["snr_db"]])
            seen.add(key)
            if key not in stats.groups:
                problems.append(f"summary group {key} has no records")
                continue
            ok, failures, _ = stats.groups[key]
            mean = float(row[col["mean_error_l2"]])
            want = math.fsum(ok) / len(ok) if ok else math.nan
            if (int(row[col["count"]]) != len(ok)
                    or int(row[col["failures"]]) != failures
                    or not (abs(mean - want) <= _REL_TOL * abs(want)
                            or (math.isnan(mean) and math.isnan(want)))):
                problems.append(f"summary group {key} disagrees with the records")
    if seen != set(stats.groups):
        problems.append("summary and records hold different groups")
    return problems


@dataclass
class DesignCheck:
    bandwidth: int
    objective: float
    gap_rel: float
    support: int
    problems: list


def check_design(rows: np.ndarray, criterion: str, p: np.ndarray) -> DesignCheck:
    """Recompute a relaxed A/D design's objective and Frank-Wolfe duality gap
    from its rows and weights through an eigendecomposition of A(p)."""
    rows = np.asarray(rows, dtype=float)
    p = np.asarray(p, dtype=float)
    problems = []
    if p.shape != (rows.shape[0],) or (p < 0).any() or abs(p.sum() - 1.0) > _SIMPLEX_TOL:
        problems.append("weights are not on the probability simplex")
    w, Q = np.linalg.eigh(rows.T @ (p[:, None] * rows))
    if w[0] <= 0:
        return DesignCheck(rows.shape[1], math.inf, math.inf, 0,
                           problems + ["information matrix is singular"])
    proj = (rows @ Q) ** 2
    if criterion == "d":
        objective = float(-np.sum(np.log(w)))
        grad = -(proj / w).sum(axis=1)
    else:
        objective = float(np.sum(1.0 / w))
        grad = -(proj / w**2).sum(axis=1)
    gap_rel = float(p @ grad - grad.min()) / max(1.0, abs(objective))
    if not gap_rel <= GAP_TOL:
        problems.append(f"relative duality gap {gap_rel:.3e} above {GAP_TOL:g}")
    support = int(np.count_nonzero(p > SUPPORT_TOL))
    return DesignCheck(rows.shape[1], objective, gap_rel, support, problems)


def check_blue(eigenvectors, bandwidth, indices, y, f_true, coeffs, error_l2) -> list[str]:
    """The BLUE coefficients must match a least-squares solve by lstsq, and
    error_l2 the norm of the reconstruction error."""
    V = np.asarray(eigenvectors)[:, :bandwidth]
    ref, *_ = np.linalg.lstsq(V[indices], y, rcond=None)
    ref_err = float(np.linalg.norm(V @ ref - f_true))
    if (np.linalg.norm(coeffs - ref) > 1e-8 * max(1.0, float(np.linalg.norm(ref)))
            or abs(error_l2 - ref_err) > 1e-8 * max(1.0, ref_err)):
        return [f"BLUE estimate at K={bandwidth} disagrees with lstsq"]
    return []
