"""Golden SHA-256 digests of the CLI's deterministic outputs.

Refactors must leave every digest unchanged.  Re-pin one only on purpose,
and say why in ``CHANGES.md``.  To print the digests of the current code,
run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from drsync.analysis import compute_stats, write_histogram_csv
from drsync.cli import main
from drsync.qon import generate_labeled_sessions, write_sessions_csv
from drsync.workload import preset, profile_to_json, read_trace_csv

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fast_maneuver.json"

# Session metrics for ``predict``: clean and impaired links, each recovery state.
METRICS_CSV = """\
rtt_mean_ms,rtt_jitter_ms,loss_rate,elapsed_min,connectivity_recoverable
40.0,2.5,0.0,12.0,true
95.25,18.0,0.01,3.5,false
180.0,45.5,0.08,0.75,true
310.5,90.0,0.2,1.0,false
600.0,150.0,0.45,0.25,true
1200.0,400.0,0.9,30.0,false
"""

GOLDEN = {
    "analyze/mmorpg": (
        "1472624190a14038e3d201b55374d72cac63fc43ad2efa955c091c3bc557a789"
    ),
    "compare/seeds_1_2_3": (
        "4b344724d36607258f8c2a2422377a6eaead980c7922cc83333a82ad504c1344"
    ),
    "fit/sessions_200_321": (
        "858bc8463c93fad91dcfcb5411b51913f5fd301153bf3a86c9144f54bc951af6"
    ),
    "generate/mmorpg": (
        "4c36307c693fd3446f3f9bd846c9ba9948269599cdff258356d051b236103235"
    ),
    "histogram/mmorpg_c2s": (
        "13d3db0254b8c1a508a67c7c7acf2200456139964eebafd32dc690e638abc396"
    ),
    "predict/metrics": (
        "2e9b76fc49b6f891fbdf9906034fe593ddf3e9532a9bca34d308e2882a6f8a48"
    ),
    "profile/fps": (
        "38faa8cf860d28f25b9614382c64481b8f112e0b2d305c048851ce8064302035"
    ),
    "profile/mmorpg": (
        "dc7e7e7a923bcfbeda03d5948887b69a5b3d6be9136be9be20a3b47e4c445206"
    ),
    "sessions/200_321": (
        "f5cbe911bfedae7a1fffe9dd94c9c9a5cda581d14f94dace0d9680f1f7c7e3f6"
    ),
    "simulate/reliable_ordered/seed_1": (
        "81aed8750bf28badf50b2a383405eb4e9e05edc39711854707009bb197d5a956"
    ),
    "simulate/reliable_ordered/seed_2": (
        "9d9a0aaa59eb8c22f21be3f2d7349b3cadde9a84482477d579f5ed145643a0a9"
    ),
    "simulate/reliable_ordered/seed_3": (
        "df2ed07add48283a5057e7c6063b5266c056efeb588d44b06fe0c04b0077f62b"
    ),
    "simulate/unreliable_dr/seed_1": (
        "25ab560a0aded1fb5d113346780432965502a7fe2b3ffa744ba006fae02f208f"
    ),
    "simulate/unreliable_dr/seed_2": (
        "3668960c801543d3b151eebe39e43948d0491c0027a99e00d839ca7081db8b8b"
    ),
    "simulate/unreliable_dr/seed_3": (
        "dea183d102a466b4b735f834599bca8ff997fa2254ac83389e9da0d694c72145"
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(root: Path, stdout: str) -> str:
    """One digest over stdout plus every file's relative path and bytes."""
    lines = [f"<stdout> {_sha(stdout.encode())}"]
    for path in sorted(root.rglob("*")):
        if path.is_file():
            lines.append(f"{path.relative_to(root).as_posix()} {_sha(path.read_bytes())}")
    return _sha("\n".join(lines).encode())


def _run(argv: list[str]) -> str:
    """Run the CLI in process; return its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def simulate_digests(tmp: Path) -> dict[str, str]:
    """The ``simulate/*`` and ``compare/*`` digests."""
    digests = {}
    base = json.loads(CONFIG.read_text())
    for mode in ("unreliable_dr", "reliable_ordered"):
        cfg = tmp / f"{mode}.json"
        base["transport"]["mode"] = mode
        cfg.write_text(json.dumps(base))
        for seed in (1, 2, 3):
            out = tmp / f"sim_{mode}_{seed}"
            stdout = _run(
                ["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]
            )
            digests[f"simulate/{mode}/seed_{seed}"] = _tree_digest(out, stdout)

    out = tmp / "cmp"
    stdout = _run(
        ["compare", "--config", str(CONFIG), "--seeds", "1,2,3", "--out", str(out)]
    )
    digests["compare/seeds_1_2_3"] = _tree_digest(out, stdout)
    return digests


def trace_digests(tmp: Path) -> dict[str, str]:
    """The ``generate/*``, ``analyze/*`` and ``histogram/*`` digests."""
    digests = {}
    trace = tmp / "trace.csv"
    _run(
        ["generate", "--preset", "mmorpg", "--clients", "5",
         "--duration-ms", "60000", "--out", str(trace)]
    )
    digests["generate/mmorpg"] = _sha(trace.read_bytes())
    digests["analyze/mmorpg"] = _sha(_run(["analyze", "--trace", str(trace)]).encode())
    histogram = tmp / "histogram.csv"
    write_histogram_csv(compute_stats(read_trace_csv(str(trace)), "c2s"), str(histogram))
    digests["histogram/mmorpg_c2s"] = _sha(histogram.read_bytes())
    return digests


def qon_digests(tmp: Path) -> dict[str, str]:
    """The ``sessions/*``, ``fit/*`` and ``predict/*`` digests."""
    digests = {}
    sessions = tmp / "sessions.csv"
    write_sessions_csv(generate_labeled_sessions(200, 321), str(sessions))
    digests["sessions/200_321"] = _sha(sessions.read_bytes())
    digests["fit/sessions_200_321"] = _sha(_run(["fit", "--data", str(sessions)]).encode())

    metrics = tmp / "metrics.csv"
    metrics.write_text(METRICS_CSV)
    stdout = _run(["predict", "--metrics", str(metrics)])
    predicted = tmp / "predicted.csv"
    _run(["predict", "--metrics", str(metrics), "--out", str(predicted)])
    assert predicted.read_bytes() == stdout.encode(), "predict --out differs from stdout"
    digests["predict/metrics"] = _sha(stdout.encode())
    return digests


def compute_digests(tmp: Path) -> dict[str, str]:
    digests = {**simulate_digests(tmp), **trace_digests(tmp), **qon_digests(tmp)}
    for name in ("mmorpg", "fps"):
        path = tmp / f"{name}.json"
        profile_to_json(preset(name), str(path))
        digests[f"profile/{name}"] = _sha(path.read_bytes())
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(compute_digests(Path(tmp)), indent=4, sort_keys=True))
