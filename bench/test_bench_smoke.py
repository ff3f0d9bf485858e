"""Smoke test of the benchmark at toy size: result schema and output gate.

Runs every workload untraced and traced exactly as the benchmark is run,
with ``--toy``. Never asserts a timing.

    python -m pytest -q bench/
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from maskaug.text import LabeledExample  # noqa: E402


def bench(cwd: Path, workload: str, trace: int, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """(workload, trace) -> (stdout lines, final result object)."""
    cwd = tmp_path_factory.mktemp("bench")
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(cwd, workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = lines, json.loads(lines[-1])
    return out


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in tracer.per_layer_spec()
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_schema(results, workload, trace):
    _, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_agree_across_iterations_and_tracing(results, workload):
    digests = []
    for trace in (0, 1):
        lines, _ = results[workload, trace]
        (line,) = [x for x in lines if x.startswith("digest ")]
        assert "all iterations agree" in line
        digests.append(line.split()[1])
        (env,) = [x for x in lines if x.startswith("env ")]
        assert {"nproc", "python", "numpy", "scipy", "blas", "blas_version", "blas_threads",
                "git_commit", "workload_seed"} <= set(json.loads(env[4:]))
        assert any(x.split()[:2] == ["error_rate", "0"] for x in map(str.strip, lines))
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0, tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_gate_rejects_substitutions_outside_provenance():
    from maskaug.augment import AugmentReport
    from maskaug.text import Dataset

    source = Dataset([LabeledExample((3, 10, 11, 12), 1)], [], [], 2)
    good = LabeledExample((3, 10, 20, 12), 1)
    report = AugmentReport(generated=1, provenance=[(0, "cbert", (2,))])
    ok = Dataset(source.train + [good], [], [], 2)
    assert workloads.check_augmented(source, ok, report) == []
    for bad in (
        LabeledExample((3, 21, 20, 12), 1),  # a position outside the provenance
        LabeledExample((3, 10, 20, 12), 0),  # label changed
        LabeledExample((3, 10, 20), 1),  # length changed
        LabeledExample((3, 10, 2, 12), 1),  # a special id refilled
    ):
        broken = Dataset(source.train + [bad], [], [], 2)
        assert workloads.check_augmented(source, broken, report)


def test_gate_rejects_style_rewrites_off_the_chosen_position():
    from maskaug.classify import CnnConfig, train_cnn
    from maskaug.text import Dataset

    rows = [LabeledExample((3, 4 + label, 6, 7, 8), label) for label in (0, 1)] * 4
    clf, _ = train_cnn(Dataset(rows, rows, [], 2), CnnConfig(max_epochs=2, seed=0))
    example = rows[1]
    scores = workloads.styletransfer.attribute_words(clf, example)
    chosen = scores.positions[int((-scores.scores).argsort(kind="stable")[0])]
    other = next(p for p in scores.positions if p != chosen)

    def rewrite(pos, label):
        tokens = list(example.tokens)
        tokens[pos] = 9
        return LabeledExample(tuple(tokens), label)

    assert workloads.check_style(clf, example, rewrite(chosen, 0), 0) is None
    assert workloads.check_style(clf, example, rewrite(chosen, 1), 0) is not None
    assert workloads.check_style(clf, example, rewrite(other, 0), 0) is not None
