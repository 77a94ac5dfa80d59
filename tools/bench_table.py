"""Print every committed benchmark run as one table of paired medians.

    python3 tools/bench_table.py [--layers] [BENCH_FILE ...]

With no file named, it reads every ``BENCH_<n>.json`` at the repository
root, in PR order.  Runs are grouped by PR, run set (where the file names
sets), workload, seed and ``--trace`` setting.  For each group and each
end-to-end metric that ``BENCHMARK.json`` declares, one line gives the
median over the parent's runs and over the change's runs, the number of
pairs, and the pairs in which the change did better, in the metric's
``better`` direction; a tie counts for neither side.  Traced runs
(``--trace 1``) hold per-layer metrics, so their group prints one such line
for each per-layer metric that every run of the group holds.

With ``--layers`` it prints instead the ``layers`` lines a file may hold,
``tools/layers.py``'s output for parent and change: for each group and
each stage, and for the op's ``wall_s`` and, where every line of a group
holds them, its ``minor_faults``, the medians over each side's lines, the
pairs and the change's wins.

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
LAYER_KEYS = {"side", "pair", "workload", "seed", "runs", "wall_s", "stages"}
OPTIONAL_LAYER_KEYS = {"minor_faults"}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def problems(doc: object, benchmark: dict) -> list[str]:
    """How ``doc``, one parsed ``BENCH_<n>.json``, breaks the schema.

    The top level holds ``host``, ``command`` and ``method`` texts and a
    list of ``runs``.  A run holds :data:`RUN_KEYS`, and may hold
    :data:`OPTIONAL_RUN_KEYS`; its ``side`` is ``parent`` or ``change`` and
    its ``trace`` 0 or 1.  Its result holds :data:`RESULT_KEYS`.  The metrics
    of an untraced run are the end-to-end ones of ``benchmark``, and those
    of a traced run per-layer ones, each a ``value`` and a ``unit``.  An
    optional list of ``layers`` holds :data:`LAYER_KEYS` in each line, and
    may hold :data:`OPTIONAL_LAYER_KEYS`, a number each; its ``stages`` maps
    names to seconds.
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
    layers = doc.get("layers", [])
    for i, line in enumerate(layers if isinstance(layers, list) else [None]):
        keys = set(line) if isinstance(line, dict) else set()
        if not (
            LAYER_KEYS <= keys <= LAYER_KEYS | OPTIONAL_LAYER_KEYS
            and line["side"] in SIDES
            and isinstance(line["stages"], dict)
            and all(isinstance(v, (int, float)) for v in line["stages"].values())
            and all(isinstance(line[k], (int, float)) for k in keys - LAYER_KEYS)
        ):
            found.append(f"layers[{i}]: keys {sorted(keys)}, side, stages or counts")
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
                lines.append(head + [name, *_paired(value, pairs, sign)])
    return lines


def _paired(value: dict[str, dict[int, float]], pairs: list[int], sign: int) -> list[str]:
    """Each side's median of ``value`` and the change's wins in ``pairs``,
    ``sign`` being 1 where lower is better and -1 where higher is."""
    wins = sum(sign * value["change"][p] < sign * value["parent"][p] for p in pairs)
    medians = [f"{statistics.median(value[side].values()):.4g}" for side in SIDES]
    return [*medians, f"{wins}/{len(pairs)}"]


def layer_rows(docs: list[tuple[int, dict]]) -> list[list[str]]:
    """The ``--layers`` table's lines as cells, header first."""
    lines = [["pr", "workload", "seed", "pairs", "stage", "parent", "change", "wins"]]
    for pr, doc in docs:
        groups: dict[tuple, dict[str, dict[int, dict]]] = {}
        for line in doc.get("layers", []):
            sides = groups.setdefault(
                (line["workload"], line["seed"]), {side: {} for side in SIDES}
            )
            optional = {k: line[k] for k in OPTIONAL_LAYER_KEYS if k in line}
            sides[line["side"]][line["pair"]] = {
                "wall_s": line["wall_s"], **optional, **line["stages"]
            }
        for (workload, seed), sides in groups.items():
            pairs = sorted(sides["parent"].keys() & sides["change"].keys())
            head = [str(pr), workload, str(seed), str(len(pairs))]
            held = [s for by_pair in sides.values() for s in by_pair.values()]
            for stage in [s for s in held[0] if all(s in names for names in held)]:
                value = {
                    side: {p: s[stage] for p, s in by_pair.items()}
                    for side, by_pair in sides.items()
                }
                lines.append(head + [stage, *_paired(value, pairs, 1)])
    return lines


def main(argv: list[str]) -> int:
    show_layers = "--layers" in argv
    argv = [a for a in argv if a != "--layers"]
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
    if show_layers:
        lines, right = layer_rows(docs), (0, 2, 3, 5, 6, 7)
    else:
        lines, right = rows(docs, benchmark), (0, 3, 4, 5, 7, 8, 9)
    widths = [max(len(line[j]) for line in lines) for j in range(len(lines[0]))]
    for line in lines:
        cells = [c.rjust(w) if j in right else c.ljust(w)
                 for j, (c, w) in enumerate(zip(line, widths))]
        print("  ".join(cells).rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
