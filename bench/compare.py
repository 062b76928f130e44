#!/usr/bin/env python3
"""Compare two results files from ``run.py``: one verdict per metric x workload.

    python3 bench/compare.py A.json B.json

``A`` is the reference (the parent commit, or the first of two sets of the
same commit), ``B`` the candidate.  Per end-to-end metric and workload it
prints both values with their quartiles over repeats and one verdict:

    within      B differs from A by no more than the metric's bound
    worse       B is worse than A by more than the bound
    better      B is better than A by more than the bound
    unresolved  beyond the bound, but a run's own spread is wider than the
                bound and the two runs' repeats overlap: not a finding

One row per workload, no combined score.  Layer counts that a deterministic
simulator repeats exactly are compared with ``==``.  Exits non-zero on any
``worse`` or any differing count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import registry
import stats


def verdict(
    reference: float,
    candidate: float,
    reference_repeats: Sequence[float],
    candidate_repeats: Sequence[float],
    better: str,
    bound: float,
) -> str:
    if reference == 0:
        return "within" if candidate == 0 else "unresolved"
    change = (candidate - reference) / abs(reference)
    worsening = change if better == "lower" else -change
    if abs(worsening) <= bound:
        return "within"
    spreads = [stats.spread(repeats) for repeats in (reference_repeats, candidate_repeats) if len(repeats) > 1]
    overlap = (
        bool(reference_repeats)
        and bool(candidate_repeats)
        and min(reference_repeats) <= max(candidate_repeats)
        and min(candidate_repeats) <= max(reference_repeats)
    )
    if spreads and max(spreads) > bound and overlap:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def _quartiles(repeats: Sequence[float]) -> str:
    if len(repeats) < 2:
        return ""
    digest = stats.summarise(repeats)
    return f"[{digest['q1']:.5g}..{digest['q3']:.5g}]"


def compare(reference: Dict[str, Any], candidate: Dict[str, Any]) -> Tuple[List[str], int]:
    lines: List[str] = []
    findings = 0
    shared = [name for name in registry.WORKLOAD_NAMES if name in reference["workloads"] and name in candidate["workloads"]]
    for metric, unit, better, bound in registry.END_TO_END:
        lines.append(f"{metric} ({unit}, {better} is better, bound {bound:g})")
        for name in shared:
            a = reference["workloads"][name].get("end_to_end", {}).get(metric)
            b = candidate["workloads"][name].get("end_to_end", {}).get(metric)
            if a is None or b is None:
                continue
            outcome = verdict(a["value"], b["value"], a["per_repeat"], b["per_repeat"], better, bound)
            findings += outcome == "worse"
            lines.append(
                f"  {name:<18}{a['value']:>12.5g} {_quartiles(a['per_repeat']):<24}"
                f"{b['value']:>12.5g} {_quartiles(b['per_repeat']):<24}{outcome}"
            )
    lines.append("failed operations (any increase is a regression)")
    for name in shared:
        a, b = reference["workloads"][name], candidate["workloads"][name]
        a_ratio, b_ratio = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        worse = b_ratio > a_ratio
        findings += worse
        lines.append(f"  {name:<18}{a['failed']}/{a['attempted']:<12}{b['failed']}/{b['attempted']:<12}{'worse' if worse else 'within'}")
    if reference.get("seed") == candidate.get("seed"):
        lines.append("exact layer counts (same seed, so they must repeat)")
        for name in shared:
            a = reference["workloads"][name].get("per_layer")
            b = candidate["workloads"][name].get("per_layer")
            if a is None or b is None or not registry.simulator_workload(name):
                continue
            differing = [metric for metric in registry.EXACT_COUNTS if a[metric]["value"] != b[metric]["value"]]
            findings += len(differing)
            detail = ", ".join(f"{m}: {a[m]['value']:g} != {b[m]['value']:g}" for m in differing)
            lines.append(f"  {name:<18}{'identical' if not differing else 'DIFFER ' + detail}")
    return lines, findings


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    reference, candidate = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    lines, findings = compare(reference, candidate)
    print("\n".join(lines))
    print(f"{findings} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
