"""Self-tests of the benchmark, on the small ``tiny`` workload.

Run from the repository root::

    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py``, so the library's own test run does not
collect it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from k1alex import grouprings  # noqa: E402

import worker  # noqa: E402
from tracing import wrapped_names  # noqa: E402


@pytest.fixture(autouse=True)
def cold_cache():
    grouprings._INVERSE_CACHE.clear()
    yield
    grouprings._INVERSE_CACHE.clear()


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _worker(*args: str) -> dict:
    proc = subprocess.run([sys.executable, "bench/worker.py", "--workload", "tiny",
                           "--seed", "0", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name
    assert any(line.split()[:1] == ["error_rate"] for line in lines[:-1])


def test_wrong_golden_is_a_failure():
    goldens = copy.deepcopy(worker.load_goldens())
    logs = goldens["3_1/N2/K8"]["logs"]
    first = logs[min(logs, key=int)][0]
    first[1] = str(Fraction(first[1]) + 1)
    goldens["4_1/N2/K8"]["verdict"] = "indeterminate"
    term = goldens["5_2/N3/poly"]["poly"][0][1][0]
    term[1] = str(Fraction(term[1]) * 2 + 1)
    result = worker.run_pass(worker.make_inputs("tiny", 0, goldens))
    bad = {inp.job.id for inp, err in zip(worker.make_inputs("tiny", 0, goldens),
                                           result.errors) if err}
    assert bad == {"3_1/N2/K8", "4_1/N2/K8", "5_2/N3/poly"}


def test_seeds_change_inputs_not_results():
    goldens = worker.load_goldens()
    a = worker.make_inputs("tiny", 0, goldens)
    b = worker.make_inputs("tiny", 1, goldens)
    assert [x.presentation for x in a] != [x.presentation for x in b]
    for inputs in (a, b):
        grouprings._INVERSE_CACHE.clear()
        assert worker.run_pass(inputs).errors == [None] * len(inputs)


def test_pass_refuses_a_warm_cache():
    inputs = worker.make_inputs("tiny", 0, worker.load_goldens())
    worker.run_pass(inputs)
    assert grouprings._INVERSE_CACHE
    with pytest.raises(worker.WarmStateError):
        worker.run_pass(inputs)


def test_fresh_worker_starts_cold_and_untraced():
    plain = _worker()
    assert plain["errors"] == [None] * 4 and plain["wrapped"] == []
    traced = _worker("--trace")
    assert traced["errors"] == [None] * 4
    assert "k1core.ns_log" in traced["wrapped"]
    assert "GroupAlgebraElem.__mul__" in traced["wrapped"]
    assert wrapped_names() == []


def test_timeout_is_a_failure():
    inputs = worker.make_inputs("tiny", 0, worker.load_goldens())
    result = worker.run_pass(inputs, job_timeout=1e-6)
    assert all(err and err.startswith("JobTimeout") for err in result.errors)


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "tiny", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
