"""Fast self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs the first round of every workload (seed 0) through ``wirediff.cli``
and requires that
  * every output passes its check, except the fixed high-pR ``zeros`` ops,
    which must fail (see ``workloads.ZEROS_HIGH_PR``);
  * the same output with its largest density scaled by 1 + 1e-6 fails;
  * the same output with one dark point moved by 1e-8 relative (``zeros``)
    or by half a grid step (``compare``) fails.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import check  # noqa: E402
from workloads import rounds  # noqa: E402


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def perturb_density(op, text: str) -> str:
    """Scale the largest density value by 1 + 1e-6."""
    if op.params["format"] == "json":
        doc = json.loads(text)
        density = doc["data"]["density"]
        i = max(range(len(density)), key=density.__getitem__)
        density[i] *= 1.0 + 1e-6
        return _json_doc(doc)
    lines = text.split("\n")
    rows = [line.split(",") for line in lines[2:-1]]
    i = max(range(len(rows)), key=lambda r: float(rows[r][-1]))
    rows[i][-1] = format(float(rows[i][-1]) * (1.0 + 1e-6), ".17g")
    return "\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n"


def perturb_dark_point(op, text: str) -> str:
    doc = json.loads(text)
    data = doc["data"]
    if op.command == "zeros":
        data["quantum_zeros_rad"][-1] *= 1.0 + 1e-8
    else:
        step = 2.0 * op.params["theta_max"] / (op.params["theta_points"] - 1)
        data["first_zero_quantum_rad"] += 0.5 * step
    return _json_doc(doc)


def main() -> int:
    from wirediff import cli

    problems = []
    checked = 0
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=out) as work:
        path = os.path.join(work, "out")
        for workload in ("phase-scan", "patterns", "dark-points"):
            for op in next(rounds(workload, 0)):
                if op.repeat_of is not None:
                    continue
                if cli.main(op.argv + ["--output", path]) != 0:
                    problems.append(f"{op.argv}: non-zero exit")
                    continue
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                errors = check(op, text)
                if op.fixed:
                    if not errors:
                        problems.append(f"{op.argv}: known-faulty op passed its check")
                    continue
                if errors:
                    problems.append(f"{op.argv}: correct output rejected: {errors}")
                if op.command in ("zeros", "compare"):
                    if not check(op, perturb_dark_point(op, text)):
                        problems.append(f"{op.argv}: perturbed dark point accepted")
                else:
                    if not check(op, perturb_density(op, text)):
                        problems.append(f"{op.argv}: density perturbed by 1e-6 accepted")
                checked += 1
    for problem in problems:
        print("FAIL", problem)
    print(f"selftest: {checked} outputs checked, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
