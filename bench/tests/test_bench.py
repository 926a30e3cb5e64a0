"""Tests of the benchmark itself: the span recorder, the instrumentation, the
workloads' inputs and checks, and the output contract of run.py.

    python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from rieszseq import constructions, spectral, torus  # noqa: E402


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    root = rec.open("root")          # 0 .. 6
    a = rec.open("a")                # 1 .. 3
    g = rec.open("grandchild")       # 1.5 .. 2
    rec.close(g)
    rec.close(a)
    b = rec.open("b")                # 4 .. 5
    rec.close(b)
    rec.close(root)
    assert [s.parent for s in rec.spans] == [-1, 0, 1, 0]
    assert rec.self_times() == pytest.approx([3.0, 1.5, 0.5, 1.0])


def test_recorder_rejects_out_of_order_close():
    rec = spans.Recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_instrument_records_cross_module_calls_and_restores():
    rec = spans.Recorder()
    s = torus.normalize([(0.0, 0.3)])
    originals = (spectral.gram, constructions.frequency_set)
    undo = spans.instrument(rec, (torus, spectral, constructions))
    try:
        constructions._lambda_min(s, constructions.frequency_set([1, 2, 5]))
    finally:
        spans.uninstrument(undo)
    assert (spectral.gram, constructions.frequency_set) == originals
    names = [x.name for x in rec.spans]
    # the name constructions imported from spectral records under its home module
    assert names == ["spectral.frequency_set", "spectral.gram", "torus.fourier_coeff_many",
                     "torus.set_digest", "spectral.extreme_eigs"]
    gram, coeff = rec.spans[1], rec.spans[2]
    assert coeff.parent == 1 and gram.counts == {"entries": 9}
    assert coeff.counts == {"k_evals": 3, "arc_evals": 3}  # differences 1, 3, 4 on one arc
    metrics, _ = spans.summary(rec)
    assert metrics["spectral.eig.max_m"][0] == 3
    assert metrics["spectral.eig.flops"][0] == pytest.approx(16.0 / 3.0 * 27)


def test_rotation_keeps_arc_count_and_spectrum():
    rng = np.random.default_rng(0)
    shape = workloads.draw_shape(rng, 3, 0.2, 0.35)
    freqs = [3, 7, 8, 20, 41]
    lams = []
    for _ in range(3):
        arcs = workloads.rotate(shape, rng)
        assert len(torus.normalize(arcs).arcs) == 3
        assert sorted(b - a for a, b in arcs) == pytest.approx(sorted(shape.arcs))
        lams.append(workloads.oracle_lambda_min(arcs, freqs))
    assert lams == pytest.approx([lams[0]] * 3, abs=1e-12)


def test_oracle_matches_the_program():
    s = torus.normalize([(0.1, 0.25), (0.5, 0.62)])
    freqs = [1, 4, 9, 16, 25, 36]
    lam = spectral.extreme_eigs(spectral.gram(s, spectral.frequency_set(freqs)))[0]
    assert workloads.oracle_lambda_min([(0.1, 0.25), (0.5, 0.62)], freqs) == pytest.approx(lam, abs=1e-12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_one_op_per_workload(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    assert wl.warm_up() == []
    ops = wl.ops_for_pass(0)
    assert sorted(op.index for op in ops) == list(range(len(wl.deck)))
    again = workloads.WORKLOADS[name](7, tmp_path / "again")
    (tmp_path / "again").mkdir()
    assert [op.params for op in again.ops_for_pass(0)] == [op.params for op in ops]
    assert [op.params for op in wl.ops_for_pass(1)] != [op.params for op in ops]
    op = min(ops, key=lambda op: op.index)
    wl.run(op)
    assert wl.check(op) == []


def _run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "decay", "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "decay", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
