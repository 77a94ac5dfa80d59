"""Print every committed benchmark run as one table of paired medians.

    python3 tools/bench_table.py [BENCH_FILE ...]

With no file named, it reads every ``BENCH_<n>.json`` at the repository
root, in PR order.  Runs are grouped by PR, run set (where the file names
sets), workload, seed and ``--trace`` setting.  For each group and each
end-to-end metric that ``BENCHMARK.json`` declares, one line gives the
median over the parent's runs and over the change's runs, the number of
pairs, and the pairs in which the change did better, in the metric's
``better`` direction; a tie counts for neither side.  Traced runs
(``--trace 1``) hold per-layer metrics, so their group prints one such line
for each per-layer metric that every run of the group holds.

Each file must keep one schema (:func:`problems`); a file that breaks it is
reported on stderr and the exit status is 1.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_KEYS = {"side", "pair", "workload", "seed", "trace", "result"}
OPTIONAL_RUN_KEYS = {"set", "exit"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def problems(doc: object, benchmark: dict) -> list[str]:
    """How ``doc``, one parsed ``BENCH_<n>.json``, breaks the schema.

    The top level holds ``host``, ``command`` and ``method`` texts and a
    list of ``runs``.  A run holds :data:`RUN_KEYS`, and may hold
    :data:`OPTIONAL_RUN_KEYS`; its ``side`` is ``parent`` or ``change`` and
    its ``trace`` 0 or 1.  Its result holds :data:`RESULT_KEYS`.  The metrics
    of an untraced run are the end-to-end ones of ``benchmark``, and those
    of a traced run per-layer ones, each a ``value`` and a ``unit``.
    """
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    found = [
        f"{key}: missing or not text"
        for key in ("host", "command", "method")
        if not isinstance(doc.get(key), str)
    ]
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return found + ["runs: missing or empty"]
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        keys = set(run) if isinstance(run, dict) else set()
        if not RUN_KEYS <= keys <= RUN_KEYS | OPTIONAL_RUN_KEYS:
            found.append(f"{where}: keys {sorted(keys)}")
            continue
        if run["side"] not in SIDES or run["trace"] not in (0, 1):
            found.append(f"{where}: side {run['side']!r} or trace {run['trace']!r}")
        result = run["result"]
        if not (isinstance(result, dict) and RESULT_KEYS <= result.keys()):
            found.append(f"{where}.result: must hold {sorted(RESULT_KEYS)}")
            continue
        metrics = result["metrics"]
        names = set(metrics) if isinstance(metrics, dict) else set()
        allowed = names == end_to_end if run["trace"] == 0 else names <= per_layer
        if not (names and allowed and all(map(_is_metric, metrics.values()))):
            found.append(f"{where}.result.metrics: {sorted(names)}")
    return found


def _is_metric(metric: object) -> bool:
    return (
        isinstance(metric, dict)
        and isinstance(metric.get("value"), (int, float))
        and isinstance(metric.get("unit"), str)
    )


def _pr(path: Path) -> int:
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(match.group(1)) if match else -1


def rows(docs: list[tuple[int, dict]], benchmark: dict) -> list[list[str]]:
    """The table's lines as cells, header first, from ``(pr, doc)`` pairs."""
    lines = [["pr", "set", "workload", "seed", "trace", "pairs", "metric",
              "parent", "change", "wins"]]
    for pr, doc in docs:
        groups: dict[tuple, dict[str, dict[int, dict]]] = {}
        for run in doc["runs"]:
            key = (run.get("set", "-"), run["workload"], run["seed"], run["trace"])
            sides = groups.setdefault(key, {side: {} for side in SIDES})
            sides[run["side"]][run["pair"]] = run["result"]["metrics"]
        for (set_, workload, seed, trace), sides in groups.items():
            pairs = sorted(sides["parent"].keys() & sides["change"].keys())
            head = [str(pr), set_, workload, str(seed), str(trace), str(len(pairs))]
            held = [set(m) for runs in sides.values() for m in runs.values()]
            for metric in benchmark["per_layer" if trace else "end_to_end"]:
                name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
                if not all(name in names for names in held):
                    continue
                value = {
                    side: {p: m[name]["value"] for p, m in runs.items()}
                    for side, runs in sides.items()
                }
                wins = sum(
                    sign * value["change"][p] < sign * value["parent"][p] for p in pairs
                )
                medians = [
                    f"{statistics.median(value[side].values()):.4g}" for side in SIDES
                ]
                lines.append(head + [name, *medians, f"{wins}/{len(pairs)}"])
    return lines


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(ROOT.glob("BENCH_*.json"), key=_pr)
    benchmark = load_benchmark()
    docs, status = [], 0
    for path in paths:
        doc = json.loads(path.read_text())
        found = problems(doc, benchmark)
        for problem in found:
            print(f"error: {path.name}: {problem}", file=sys.stderr)
        if found:
            status = 1
        else:
            docs.append((_pr(path), doc))
    lines = rows(docs, benchmark)
    widths = [max(len(line[j]) for line in lines) for j in range(len(lines[0]))]
    for line in lines:
        cells = [c.rjust(w) if j in (0, 3, 4, 5, 7, 8, 9) else c.ljust(w)
                 for j, (c, w) in enumerate(zip(line, widths))]
        print("  ".join(cells).rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
