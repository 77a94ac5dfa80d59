"""Every committed ``BENCH_<n>.json`` keeps one schema, and
``tools/bench_table.py`` pairs its runs."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_table", ROOT / "tools" / "bench_table.py"
)
bench_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_table)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = bench_table.load_benchmark()


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_committed_file_keeps_the_schema(path):
    assert bench_table.problems(json.loads(path.read_text()), BENCHMARK) == []


def run(side, pair, op_s, trace=0, layers=()):
    if trace:
        metrics = {"netsim.transport_s": {"value": op_s, "unit": "s"}}
        metrics.update({name: {"value": v, "unit": "-"} for name, v in layers})
    else:
        metrics = {
            m["name"]: {"value": 1.0, "unit": m["unit"]}
            for m in BENCHMARK["end_to_end"]
        }
        metrics["op_s"]["value"] = op_s
    return {
        "side": side, "pair": pair, "workload": "sim-fast-lossy", "seed": 1,
        "trace": trace, "result": {
            "correct": True, "attempted": 3, "failed": 0, "metrics": metrics,
        },
    }


DOC = {
    "host": "h", "command": "c", "method": "m",
    "runs": [
        run("parent", 1, 0.30), run("change", 1, 0.20),
        run("change", 2, 0.25), run("parent", 2, 0.25),
        run("parent", 3, 0.40), run("change", 3, 0.50),
        run("parent", 1, 0.1, 1, [("netsim.goodput_ratio", 0.8), ("netsim.late", 3)]),
        run("change", 1, 0.1, 1, [("netsim.goodput_ratio", 0.9)]),
        run("parent", 2, 0.3, 1, [("netsim.goodput_ratio", 0.9), ("netsim.late", 2)]),
        run("change", 2, 0.2, 1, [("netsim.goodput_ratio", 0.7)]),
    ],
}


def test_the_schema_names_each_break():
    assert bench_table.problems(DOC, BENCHMARK) == []
    doc = copy.deepcopy(DOC)
    del doc["host"]
    doc["runs"][0]["side"] = "other"
    del doc["runs"][1]["result"]["metrics"]["op_s"]
    doc["runs"][2]["colour"] = "red"
    doc["runs"][6]["result"]["metrics"]["op_s"] = {"value": 1.0, "unit": "s"}
    assert bench_table.problems(doc, BENCHMARK) == [
        "host: missing or not text",
        "runs[0]: side 'other' or trace 0",
        "runs[1].result.metrics: ['peak_rss_mb', 'setup_s', 'work_per_s']",
        "runs[2]: keys ['colour', 'pair', 'result', 'seed', 'side', 'trace',"
        " 'workload']",
        "runs[6].result.metrics: ['netsim.goodput_ratio', 'netsim.late',"
        " 'netsim.transport_s', 'op_s']",
    ]


def test_rows_give_medians_pairs_and_wins():
    lines = bench_table.rows([(21, DOC)], BENCHMARK)
    assert lines[0][6:] == ["metric", "parent", "change", "wins"]
    by_metric = {line[6]: line for line in lines[1:]}
    # op_s: 0.30, 0.25, 0.40 against 0.20, 0.25, 0.50; the tie wins nothing.
    assert by_metric["op_s"] == [
        "21", "-", "sim-fast-lossy", "1", "0", "3", "op_s", "0.3", "0.25", "1/3",
    ]
    # Per-layer metrics pair as well, each in its own direction; netsim.late
    # is held by the parent's runs only, so it has no line.
    assert by_metric["netsim.transport_s"] == [
        "21", "-", "sim-fast-lossy", "1", "1", "2", "netsim.transport_s",
        "0.2", "0.15", "1/2",
    ]
    assert by_metric["netsim.goodput_ratio"][7:] == ["0.85", "0.8", "1/2"]
    assert len(lines) == 1 + len(BENCHMARK["end_to_end"]) + 2


def layer(side, pair, wall, **stages):
    return {"side": side, "pair": pair, "workload": "sim-slow-clean", "seed": 1,
            "runs": 9, "wall_s": wall, "stages": stages}


def test_layer_lines_are_optional_and_checked():
    doc = copy.deepcopy(DOC)
    doc["layers"] = [layer("parent", 1, 0.02, **{"simulate.sample": 0.002})]
    doc["layers"].append({**layer("change", 1, 0.02), "minor_faults": 601})
    assert bench_table.problems(doc, BENCHMARK) == []
    doc["layers"][1:] = [{**layer("other", 1, 0.02), "colour": "red"}]
    doc["layers"].append(layer("change", 1, 0.02, **{"simulate.sample": "fast"}))
    doc["layers"].append({**layer("change", 2, 0.02), "minor_faults": "many"})
    assert bench_table.problems(doc, BENCHMARK) == [
        "layers[1]: keys ['colour', 'pair', 'runs', 'seed', 'side', 'stages',"
        " 'wall_s', 'workload'], side, stages or counts",
        "layers[2]: keys ['pair', 'runs', 'seed', 'side', 'stages', 'wall_s',"
        " 'workload'], side, stages or counts",
        "layers[3]: keys ['minor_faults', 'pair', 'runs', 'seed', 'side', 'stages',"
        " 'wall_s', 'workload'], side, stages or counts",
    ]


def test_layer_rows_give_medians_pairs_and_wins():
    doc = {**DOC, "layers": [
        layer("parent", 1, 0.020, **{"simulate.sample": 0.0020, "simulate.sender": 0.004}),
        layer("change", 1, 0.015, **{"simulate.sample": 0.0010}),
        layer("parent", 2, 0.030, **{"simulate.sample": 0.0030, "simulate.sender": 0.004}),
        layer("change", 2, 0.031, **{"simulate.sample": 0.0012}),
    ]}
    lines = bench_table.layer_rows([(30, doc)])
    assert lines[0] == ["pr", "workload", "seed", "pairs", "stage", "parent",
                        "change", "wins"]
    # simulate.sender is held by the parent's lines only, so it has no line.
    assert lines[1:] == [
        ["30", "sim-slow-clean", "1", "2", "wall_s", "0.025", "0.023", "1/2"],
        ["30", "sim-slow-clean", "1", "2", "simulate.sample", "0.0025", "0.0011", "2/2"],
    ]
    assert bench_table.layer_rows([(21, DOC)]) == lines[:1]
    # minor_faults is shown where every line of the group holds it.
    for i, faults in enumerate((600, 500, 700, 600)):
        doc["layers"][i] = {**doc["layers"][i], "minor_faults": faults}
    assert bench_table.layer_rows([(30, doc)])[2] == [
        "30", "sim-slow-clean", "1", "2", "minor_faults", "650", "550", "2/2"
    ]
    del doc["layers"][0]["minor_faults"]
    assert bench_table.layer_rows([(30, doc)])[1:] == lines[1:]
