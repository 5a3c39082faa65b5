"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per workload x metric with both medians, their quartiles, the
ratio B/A with its base, and a verdict:

* ``ok``          B is no worse than A by more than the metric's bound;
* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile range over the
                  median, either side) is wider than the bound, so the
                  two cannot be told apart at that bound.

``sim_*`` metrics and the per-workload ``sim_digest`` have bound 0:
simulated numbers must not move in the wrong direction at all, and the
digest must be identical. Results taken in different environments or
with different seeds are refused, not compared. Exit status is 1 when
any row is ``worse``, 2 when the files cannot be compared.

Run it on two results of the *same* commit for the A/A check: every
row must come out ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import DETAILS, END_TO_END

HERE = Path(__file__).resolve().parent

#: Environment fields that must match for wall clocks to be comparable
#: (the commit is what a comparison is *about*, so it may differ).
SAME_ENV = ("python", "numpy", "nproc", "cpu", "platform", "seed")


def _bounds() -> dict[str, float]:
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    bounds.update({d.name: d.bound for d in DETAILS})
    return bounds


def _spread(metric: dict) -> float:
    if metric["n"] < 2 or metric["value"] == 0:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: dict, b: dict, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric of one workload."""
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    if a["value"] == b["value"]:
        return "ok"
    lower_is_better = a["better"] == "lower"
    if a["value"] == 0:
        got_worse = (b["value"] > 0) == lower_is_better
        return "worse" if got_worse else "ok"
    change = (b["value"] - a["value"]) / abs(a["value"])
    worsening = change if lower_is_better else -change
    return "worse" if worsening > bound else "ok"


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """Rows of the comparison table and the number of ``worse`` rows."""
    bounds = _bounds()
    names = [m.name for m in END_TO_END] + [d.name for d in DETAILS]
    rows = [
        f"{'workload':22s} {'metric':20s} {'A value [q1, q3]':>34s} "
        f"{'B value [q1, q3]':>34s} {'B/A (base A)':>22s} verdict"
    ]
    worse = 0
    for workload, passes_a in a["workloads"].items():
        pass_a = passes_a["end_to_end"]
        pass_b = b["workloads"][workload]["end_to_end"]
        same = pass_a["sim_digest"] == pass_b["sim_digest"]
        worse += not same
        rows.append(
            f"{workload:22s} {'sim_digest':20s} "
            f"{pass_a['sim_digest'][:16]:>34s} "
            f"{pass_b['sim_digest'][:16]:>34s} {'':>22s} "
            f"{'ok' if same else 'worse'}"
        )
        for name in names:
            ma, mb = pass_a["metrics"][name], pass_b["metrics"][name]
            if ma["n"] == 0 and mb["n"] == 0:
                continue  # not defined on this workload
            result = verdict(ma, mb, bounds[name])
            worse += result == "worse"
            ratio = (
                f"{mb['value'] / ma['value']:.4f}x of {ma['value']:.5g}"
                if ma["value"]
                else "-"
            )
            rows.append(
                f"{workload:22s} {name:20s} "
                f"{_cell(ma):>34s} {_cell(mb):>34s} {ratio:>22s} {result}"
            )
    return rows, worse


def _cell(metric: dict) -> str:
    text = f"{metric['value']:.5g} {metric['unit']}"
    if metric["n"] > 1:
        text += f" [{metric['q1']:.5g}, {metric['q3']:.5g}]"
    return text


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    differing = [
        f"{key}: {a['env'].get(key)!r} vs {b['env'].get(key)!r}"
        for key in SAME_ENV
        if a["env"].get(key) != b["env"].get(key)
    ]
    for key in ("quick", "seconds"):
        if a[key] != b[key]:
            differing.append(f"{key}: {a[key]!r} vs {b[key]!r}")
    if set(a["workloads"]) != set(b["workloads"]):
        differing.append("workloads differ")
    if differing:
        print("refusing to compare: " + "; ".join(differing))
        return 2
    rows, worse = compare(a, b)
    print(f"A = {argv[0]} (commit {a['env']['commit'][:12]})")
    print(f"B = {argv[1]} (commit {b['env']['commit'][:12]})")
    print("\n".join(rows))
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
