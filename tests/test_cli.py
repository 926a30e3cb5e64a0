import argparse
import ast
import json
import os
import re
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import rieszseq
from rieszseq import cli, constructions, numtheory, spectral, torus


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def arc03_file(tmp_path):
    path = tmp_path / "arc03.json"
    torus.save_set(torus.normalize([(0.0, 0.3)]), path)
    return path


@pytest.fixture
def full_file(tmp_path):
    path = tmp_path / "full.json"
    torus.save_set(torus.normalize([(0.0, 1.0)]), path)
    return path


# --- main ------------------------------------------------------------------

LIBRARY_MODULES = {"constructions", "numtheory", "spectral", "torus"}


def test_cli_uses_only_public_library_names():
    # the CLI reaches the library through its public functions, so a command cannot
    # drift from what a library caller gets (as riesz --verify once did)
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in LIBRARY_MODULES and node.attr.startswith("_")
    ]
    private += [
        f"{node.module}.{alias.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in LIBRARY_MODULES
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []

def test_main_builds_its_parser_once(monkeypatch, capsys):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        bad = ["thm1", "--lmax", "many"]
        with pytest.raises(SystemExit) as first:
            run(bad)
        fresh = capsys.readouterr().err
        parsers = len(built)
        assert parsers > 1  # the root parser and its subcommands
        assert run(["verify", "lemma4", "--limit", 10]) == 0
        with pytest.raises(SystemExit) as again:
            run(bad)
        assert first.value.code == again.value.code == 2
        assert capsys.readouterr().err == fresh
        assert "invalid int value: 'many'" in fresh
        assert len(built) == parsers
    finally:
        cli.build_parser.cache_clear()


# --- set -------------------------------------------------------------------

def test_set_build_and_info(tmp_path, capsys):
    out = tmp_path / "adv.json"
    assert run(["set", "build", "--epsilon", 0.25, "--lmax", 8, "--out", out]) == 0
    s = torus.load_set(out)
    assert s.measure > 0.75
    assert run(["set", "info", out, "--coeffs", 2]) == 0
    text = capsys.readouterr().out
    assert f"measure={s.measure!r}" in text and "c_hat(2)" in text


def test_set_build_invalid_epsilon(tmp_path):
    assert run(["set", "build", "--epsilon", 1.5, "--lmax", 8,
                "--out", tmp_path / "x.json"]) == 2


def test_set_info_full_circle(full_file, capsys):
    assert run(["set", "info", full_file, "--coeffs", 1]) == 0
    assert "measure=1.0 arcs=1" in capsys.readouterr().out


SET_INFO_ARC03 = """measure=0.3 arcs=1
c_hat(0) = (0.3+0j)
c_hat(1) = (0.15136534572813143-0.20833652524606866j)
c_hat(2) = (-0.046774464189431944-0.14395699839600817j)
c_hat(3) = (-0.031182976126288016-0.010131963130591492j)
"""


def test_set_info_coefficients_frozen(arc03_file, capsys):
    assert run(["set", "info", arc03_file, "--coeffs", 3]) == 0
    assert capsys.readouterr().out == SET_INFO_ARC03
    assert run(["set", "info", arc03_file, "--coeffs", -1]) == 2
    assert "--coeffs must be >= 0" in capsys.readouterr().err


# --- riesz -------------------------------------------------------------------

def test_riesz_full_circle(full_file, capsys):
    assert run(["riesz", full_file, "--freqs", "1,2,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == 1.0 and payload["upper"] == 1.0


def test_riesz_half_circle_fixture(tmp_path, capsys):
    half = tmp_path / "half.json"
    torus.save_set(torus.normalize([(0.0, 0.5)]), half)
    assert run(["riesz", half, "--freqs", "0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == pytest.approx(0.1816901138162093, abs=1e-12)


def test_riesz_ap_json_size(full_file, tmp_path):
    out = tmp_path / "r.json"
    assert run(["riesz", full_file, "--ap", "5,3,4", "--out", out]) == 0
    assert json.loads(out.read_text())["size"] == 4


def test_riesz_ap_of_one_frequency_takes_a_step_past_int64(arc03_file, capsys):
    # the one frequency is -2^70 + (2^70 + 1) = 1; only the step is out of int64
    assert run(["riesz", arc03_file, "--ap=-1180591620717411303424,1180591620717411303425,1"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "cs_lower": 0.3, "lower": 0.3, "offdiag_energy": 0.0, "size": 1, "upper": 0.3}


def test_riesz_invalid_input(full_file, tmp_path):
    assert run(["riesz", tmp_path / "missing.json", "--freqs", "1"]) == 2
    assert run(["riesz", full_file, "--freqs", "not-numbers"]) == 2
    assert run(["riesz", full_file, "--freqs="]) == 2
    assert run(["riesz", full_file, "--ap="]) == 2



@pytest.mark.parametrize("doc", ['[[0.1, 0.2]]', '{"sets": [[0.1, 0.2]]}', '{"arcs": [[0.1, NaN]]}',
                                 '{"arcs": [[-Infinity, 0.2]]}', '{"arcs": [0.1, 0.2]}',
                                 '{"arcs": [[false, true]]}', '{"arcs": [["0.1", "0.4"]]}',
                                 '{"arcs": [[null, 0.3]]}', '{"arcs": [[0, 1%s]]}' % ("0" * 400)])
def test_riesz_malformed_set_file(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert run(["riesz", path, "--freqs", "1,2"]) == 2
    assert run(["set", "info", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("invalid input:") for line in err)

def test_riesz_build_verify_and_tamper(arc03_file, tmp_path):
    build_path = tmp_path / "build.json"
    assert run(["thm2", arc03_file, "--count", 3, "--eps", 0.075,
                "--out", tmp_path / "t2.csv", "--build-out", build_path]) == 0
    assert run(["riesz", arc03_file, "--build", build_path, "--verify",
                "--out", tmp_path / "rep.json"]) == 0
    doc = json.loads(build_path.read_text())
    doc["blocks"][1]["cert_lambda_min"] += 0.05
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    assert run(["riesz", arc03_file, "--build", bad_path, "--verify",
                "--out", tmp_path / "rep2.json"]) == 3


def test_riesz_build_verify_reads_build_once(arc03_file, tmp_path, monkeypatch):
    build_path = tmp_path / "build.json"
    assert run(["thm2", arc03_file, "--count", 2, "--eps", 0.075,
                "--out", tmp_path / "t2.csv", "--build-out", build_path]) == 0
    calls = []
    load = constructions.load_build
    monkeypatch.setattr(constructions, "load_build", lambda path: calls.append(path) or load(path))
    assert run(["riesz", arc03_file, "--build", build_path, "--verify",
                "--out", tmp_path / "rep.json"]) == 0
    assert calls == [str(build_path)]


def test_riesz_build_verify_makes_one_gram(arc03_file, tmp_path, monkeypatch):
    build_path, out = tmp_path / "build.json", tmp_path / "rep.json"
    assert run(["thm2", arc03_file, "--count", 3, "--eps", 0.075,
                "--out", tmp_path / "t2.csv", "--build-out", build_path]) == 0
    sizes, eigs = [], []
    gram, extreme_eigs = spectral.gram, spectral.extreme_eigs
    monkeypatch.setattr(spectral, "gram", lambda s, freqs: sizes.append(len(freqs)) or gram(s, freqs))
    monkeypatch.setattr(spectral, "extreme_eigs", lambda g: eigs.append(g.size) or extreme_eigs(g))
    assert run(["riesz", arc03_file, "--build", build_path, "--verify", "--out", out]) == 0
    # one Gram of the whole union; one eigensolve per partial union, the last shared
    # with the report
    size = json.loads(out.read_text())["size"]
    assert sizes == [size]
    assert len(eigs) == 3 and eigs[-1] == size


def test_riesz_verify_rejects_empty_build(arc03_file, tmp_path, capsys):
    path = tmp_path / "build.json"
    path.write_text(json.dumps({"gamma": 0.15, "blocks": []}))
    assert run(["riesz", arc03_file, "--build", path, "--verify", "--out", tmp_path / "r.json"]) == 2
    assert "invalid input: build has no blocks to verify" in capsys.readouterr().err


def _thm2_build(set_file, tmp_path):
    path = tmp_path / "build.json"
    assert run(["thm2", set_file, "--count", 2, "--eps", 0.075,
                "--out", tmp_path / "t2.csv", "--build-out", path]) == 0
    return path, json.loads(path.read_text())


def test_build_file_records_set_digest(arc03_file, tmp_path):
    _, doc = _thm2_build(arc03_file, tmp_path)
    assert doc["set_digest"] == torus.set_digest(torus.load_set(arc03_file))


def test_riesz_verify_rejects_build_for_another_set(arc03_file, tmp_path, capsys, monkeypatch):
    path, doc = _thm2_build(arc03_file, tmp_path)
    other = tmp_path / "arc04.json"
    torus.save_set(torus.normalize([(0.0, 0.4)]), other)
    grams = []
    monkeypatch.setattr(spectral, "gram", lambda s, freqs: grams.append(freqs))
    capsys.readouterr()
    out = tmp_path / "r.json"
    assert run(["riesz", other, "--build", path, "--verify", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: build was made for the set with digest")
    assert doc["set_digest"] in err and torus.set_digest(torus.load_set(other)) in err
    assert grams == [] and not out.exists()


@pytest.mark.parametrize("digest", ["", "0123456789abcde", "0123456789abcdef0",
                                    "0123456789ABCDEF", "0123456789abcdeg", 123, None])
def test_riesz_rejects_malformed_set_digest(arc03_file, tmp_path, capsys, digest):
    path, doc = _thm2_build(arc03_file, tmp_path)
    path.write_text(json.dumps({**doc, "set_digest": digest}))
    capsys.readouterr()
    assert run(["riesz", arc03_file, "--build", path, "--verify", "--out", tmp_path / "r.json"]) == 2
    assert "invalid input: set_digest must be 16 lowercase hex digits" in capsys.readouterr().err


def test_riesz_verifies_build_without_set_digest(arc03_file, tmp_path):
    # build files written before the digest was recorded still verify, against any set
    path, doc = _thm2_build(arc03_file, tmp_path)
    assert run(["riesz", arc03_file, "--build", path, "--verify", "--out", tmp_path / "a.json"]) == 0
    del doc["set_digest"]
    path.write_text(json.dumps(doc))
    assert run(["riesz", arc03_file, "--build", path, "--verify", "--out", tmp_path / "b.json"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# --- theorem drivers ------------------------------------------------------------

def test_thm1_csv_grid(tmp_path):
    out = tmp_path / "t1.csv"
    assert run(["thm1", "--lmax", 8, "--ells", "2,4", "--enns", "64,256", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ell,N,delta,rayleigh_uniform,tail_bound"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("2", "64"), ("2", "256"), ("4", "64"), ("4", "256")]
    for r in rows:
        assert float(r[3]) <= float(r[4]) + 1e-9
    # monotone decreasing energy column within each step
    assert float(rows[1][3]) < float(rows[0][3])
    assert float(rows[3][3]) < float(rows[2][3])


def test_thm1_workers_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["thm1", "--lmax", 8, "--ells", "2,4", "--enns", "64,256"]
    assert run(args + ["--workers", 1, "--out", a]) == 0
    assert run(args + ["--workers", 8, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_thm1_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at l_max 256 and N 16384 the kernel's GEMMs are large enough for OpenBLAS
    # to split across threads; each output element must be summed the same way
    src = str(Path(rieszseq.__file__).parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for blas_threads in ("1", None):
        env = dict(base) if blas_threads is None else {**base, "OPENBLAS_NUM_THREADS": blas_threads}
        for workers in ("1", "4"):
            out = tmp_path / f"t1-{blas_threads}-{workers}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "rieszseq.cli", "thm1", "--lmax", "256", "--ells", "2,3",
                 "--enns", "64,16384", "--workers", workers, "--out", str(out)],
                capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
    assert len(outputs[0].splitlines()) == 5
    assert all(o == outputs[0] for o in outputs)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs a second CPU to pin away from",
)
def test_thm1_bytes_do_not_depend_on_cpu_count(tmp_path):
    # the kernel splits each block over the CPUs the process may run on; pinned
    # to one CPU it runs every block in one run, and must write the same bytes
    src = str(Path(rieszseq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cpu = min(os.sched_getaffinity(0))
    outputs = []
    for pin in (lambda: os.sched_setaffinity(0, {cpu}), None):
        out = tmp_path / f"t1-{pin is None}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rieszseq.cli", "thm1", "--lmax", "96", "--ells", "3,7",
             "--enns", "256,1024", "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env, preexec_fn=pin)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(
    torus._blas_thread_setter() is None,
    reason="numpy bundles no OpenBLAS with openblas_set_num_threads_local",
)
def test_thm3_and_verify_bytes_do_not_depend_on_blas_threads(arc03_file, tmp_path):
    # the unions reach m = 170, where OpenBLAS splits an eigensolve over threads
    # unless the constructions run it on one; the certificates, the shifts and the
    # recomputed report must come out the same either way.  Without the setter the
    # thread count is left alone, and the bytes may differ in the last bits
    src = str(Path(rieszseq.__file__).parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for blas_threads in ("1", None):
        env = dict(base) if blas_threads is None else {**base, "OPENBLAS_NUM_THREADS": blas_threads}
        csv, build, report = (tmp_path / f"t3-{blas_threads}.{ext}" for ext in ("csv", "build.json", "riesz.json"))
        for argv in (["thm3", str(arc03_file), "--alphas", "2.0,1.5", "--n-ranges", "24:25;60:61",
                      "--build-out", str(build), "--out", str(csv)],
                     ["riesz", str(arc03_file), "--build", str(build), "--verify", "--out", str(report)]):
            proc = subprocess.run([sys.executable, "-m", "rieszseq.cli", *argv],
                                  capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
        outputs.append([path.read_bytes() for path in (csv, build, report)])
    assert len(outputs[0][0].splitlines()) == 5
    assert outputs[0] == outputs[1]


def test_thm1_computes_on_the_calling_thread(tmp_path, monkeypatch):
    # --workers is ignored: every step runs on the caller's thread, and only the
    # kernel's own pool splits the work over the CPUs
    threads = []
    cells = constructions.thm1_cells

    def spy(*args):
        threads.append(threading.current_thread())
        return cells(*args)

    monkeypatch.setattr(constructions, "thm1_cells", spy)
    assert run(["thm1", "--lmax", 8, "--ells", "2,4,8", "--enns", "64,256", "--workers", 3,
                "--out", tmp_path / "t1.csv"]) == 0
    assert threads == [threading.main_thread()] * 3


@pytest.mark.parametrize("workers", [0, -3])
def test_thm1_rejects_workers_below_one(tmp_path, capsys, workers):
    assert run(["thm1", "--lmax", 8, "--ells", "2", "--enns", "64", "--workers", workers,
                "--out", tmp_path / "t1.csv"]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "t1.csv").exists()


def test_thm1_rejects_ell_beyond_lmax(tmp_path, capsys):
    assert run(["thm1", "--lmax", 4, "--ells", 5, "--enns", 16, "--out", tmp_path / "t1.csv"]) == 2
    assert "ell = 5 exceeds lmax = 4" in capsys.readouterr().err
    assert not (tmp_path / "t1.csv").exists()


def test_thm1_runs_one_kernel_pass_per_step(tmp_path, monkeypatch):
    calls = []
    kernel = torus.fourier_coeff_real_ap

    def spy(s, step, count):
        calls.append((s, step, count))
        return kernel(s, step, count)

    monkeypatch.setattr(torus, "fourier_coeff_real_ap", spy)
    out = tmp_path / "t1.csv"
    assert run(["thm1", "--lmax", 16, "--ells", "2,4,8", "--enns", "64,1024,256", "--workers", 2,
                "--out", out]) == 0
    adversarial = constructions.build_adversarial_set(0.25, 16)
    on_s = sorted((step, count) for s, step, count in calls if s == adversarial)
    assert on_s == [(2, 1023), (4, 1023), (8, 1023)]
    assert len(calls) == 3  # the Dirichlet tails are closed forms, with no kernel pass
    # each step's row at its largest N is the one-length value, to the last bit
    sched = constructions.DeltaSchedule(0.25)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:] if ",1024," in line]
    assert [r[3] for r in rows] == [
        repr(constructions.thm1_cells(adversarial, sched, ell, [1024])[0].rayleigh_uniform)
        for ell in (2, 4, 8)
    ]


@pytest.mark.parametrize("ells,enns,message", [
    (",", "64", "--ells and --enns must each name at least one value"),
    ("2", ",", "--ells and --enns must each name at least one value"),
    ("0,2", "64", "ell = 0 must be >= 1"),
    ("2", "64,0", "N = 0 must lie in [1, 65536]"),
    ("2", "65537", "N = 65537 must lie in [1, 65536]"),
    ("2,2", "64", "ell = 2 is given twice"),
    ("2", "64,64", "N = 64 is given twice"),
])
def test_thm1_rejects_bad_grid(tmp_path, capsys, ells, enns, message):
    assert run(["thm1", "--lmax", 8, "--ells", ells, "--enns", enns, "--out", tmp_path / "t1.csv"]) == 2
    assert f"invalid input: {message}" in capsys.readouterr().err
    assert not (tmp_path / "t1.csv").exists()


def test_thm1_bounds_admit_the_long_grid():
    # l_max 256 at N up to 16384 is the grid the prolate-witness study needs
    assert constructions.ADVERSARIAL_LMAX_LIMIT >= 256
    assert spectral.RAYLEIGH_LENGTH_LIMIT >= 16384


def test_thm1_plot(tmp_path):
    out = tmp_path / "t1.csv"
    svg = tmp_path / "decay.svg"
    assert run(["thm1", "--lmax", 4, "--ells", "2", "--enns", "16,64,256",
                "--out", out, "--plot", svg]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_thm2_csv(arc03_file, tmp_path):
    out = tmp_path / "t2.csv"
    assert run(["thm2", arc03_file, "--count", 3, "--eps", 0.075, "--n-max", 50,
                "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,n,shift,cert_lambda_min,schedule_target"
    for line in lines[1:]:
        k, n, shift, cert, target = line.split(",")
        assert float(cert) >= float(target) - 1e-12


def test_thm2_n_max_bounds_only_the_search(arc03_file, tmp_path):
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    args = ["thm2", arc03_file, "--count", 3, "--eps", 0.075]
    assert run(args + ["--n-max", 2000, "--out", small]) == 0
    assert run(args + ["--n-max", 100000, "--out", large]) == 0
    assert large.read_bytes() == small.read_bytes()


EMPTY_SCAN = "shift scan needs start <= cap"
SCAN_RANGE = "shift scan bounds must satisfy |start|, |cap| < 2^62"


# start=2 keeps each case's id stable across edits of this list
@pytest.mark.parametrize("scan,message", [
    pytest.param(scan, message, id=f"scan{i}") for i, (scan, message) in enumerate([
        (["--scan-start", 5, "--scan-cap", 4], EMPTY_SCAN),
        (["--scan-start", 2 ** 63 + 2, "--scan-cap", 2 ** 63 + 12], SCAN_RANGE),
        (["--scan-start", 2 ** 62, "--scan-cap", 2 ** 62 + 1], SCAN_RANGE),
        (["--scan-start", -(2 ** 62), "--scan-cap", 0], SCAN_RANGE),
        (["--scan-cap", 2 ** 62], SCAN_RANGE),
    ], start=2)
])
def test_thm2_rejects_empty_shift_scan(arc03_file, capsys, scan, message):
    assert run(["thm2", arc03_file, "--count", 3, "--eps", 0.075, "--n-max", 50, *scan]) == 2
    assert message in capsys.readouterr().err


def test_thm3_rejects_out_of_range_shift_scan(arc03_file, capsys):
    assert run(["thm3", arc03_file, "--alphas", "1.5", "--n-ranges", "16",
                "--scan-start", 2 ** 63 - 8, "--scan-cap", 2 ** 63 + 2]) == 2
    assert SCAN_RANGE in capsys.readouterr().err


def test_thm2_accepts_shift_scan_just_inside_range(arc03_file, capsys):
    assert run(["thm2", arc03_file, "--count", 1, "--eps", 0.075,
                "--scan-start", -(2 ** 62 - 1), "--scan-cap", 2 ** 62 - 1]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[2] == str(-(2 ** 62 - 1))


THM3 = ["thm3", "SET", "--alphas", "1.5", "--n-ranges", "16"]


@pytest.mark.parametrize("argv", [
    pytest.param(["thm2", "SET", "--scan-step", -1], id="thm2-scan-step-minus-1"),
    pytest.param(["thm2", "SET", "--scan-step", 0], id="thm2-scan-step-0"),
    pytest.param([*THM3, "--scan-step", 1], id="thm3-scan-step"),
    pytest.param(["thm2", "SET", "--format", "json"], id="thm2-format"),
    pytest.param([*THM3, "--format", "csv"], id="thm3-format"),
    pytest.param(["riesz", "SET", "--freqs", "1,2", "--format", "csv"], id="riesz-format"),
    pytest.param(["thm1", "--lmax", 8, "--ells", 2, "--enns", 16, "--format", "json"],
                 id="thm1-format"),
    pytest.param(["set", "build", "--adversarial", "--epsilon", 0.25, "--lmax", 8, "--out", "OUT"],
                 id="set-build-adversarial"),
])
def test_removed_options_exit_2(arc03_file, tmp_path, argv):
    # one scan policy (consecutive shifts), one build artifact (--build-out),
    # one report format per command, and one kind of set for `set build`:
    # these options had nothing to select
    argv = [{"SET": arc03_file, "OUT": tmp_path / "adv.json"}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [arc03_file]


@pytest.mark.parametrize("command", [["thm2"], ["thm3", "--alphas", "1.5", "--n-ranges", "16"]])
def test_thm2_thm3_have_no_workers_option(arc03_file, command):
    # thm2/thm3 place blocks one after another, so a worker count has nothing to split
    with pytest.raises(SystemExit) as exc:
        run([command[0], arc03_file, *command[1:], "--workers", 2])
    assert exc.value.code == 2


def test_thm2_full_circle_certs(full_file, tmp_path, capsys):
    assert run(["thm2", full_file, "--count", 3, "--n-max", 10]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["1.0", "1.0", "1.0"]


def test_thm3_csv_and_empty_range(arc03_file, tmp_path):
    out = tmp_path / "t3.csv"
    assert run(["thm3", arc03_file, "--alphas", "1.5", "--n-ranges", "16,32",
                "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,N,ell,sum,shift,cert_lambda_min"
    for line in lines[1:]:
        alpha, n, ell, total, shift, cert = line.split(",")
        assert int(ell) < float(n) ** float(alpha)
        assert float(cert) >= 0.075
    assert run(["thm3", arc03_file, "--alphas", "1.5", "--n-ranges", "",
                "--out", tmp_path / "x.csv"]) == 2


def test_thm3_sieve_cap_checked_before_coefficients(arc03_file, tmp_path, monkeypatch, capsys):
    assert constructions.strict_step_cap(272, 2.0) * 272 > numtheory.SIEVE_LIMIT
    calls = []
    monkeypatch.setattr(torus, "fourier_coeff_many", lambda *args: calls.append(args))
    assert run(["thm3", arc03_file, "--alphas", "2.0", "--n-ranges", "272",
                "--out", tmp_path / "x.csv"]) == 2
    assert calls == []
    assert f"exceeds cap {numtheory.SIEVE_LIMIT}" in capsys.readouterr().err


def test_thm3_range_checked_before_expansion(arc03_file, monkeypatch, capsys):
    # lengths are read once, in order, and the first whose span cap(N) * N passes
    # the sieve cap stops the run: at alpha 2 that is N = 216, (216^2 - 1) * 216 > 10^7
    calls = []
    cap = constructions.strict_step_cap
    monkeypatch.setattr(constructions, "strict_step_cap", lambda n, a: calls.append(n) or cap(n, a))
    assert run(["thm3", arc03_file, "--alphas", "2.0,1.5",
                "--n-ranges", "2:3000000;5,2:3000000,7"]) == 2
    assert calls == list(range(2, 217))
    assert f"sieve limit 10077480 exceeds cap {numtheory.SIEVE_LIMIT}" in capsys.readouterr().err


@pytest.mark.parametrize("lengths,message", [
    ("1:1000000000000", "no integer step below 1^2.0"),
    ("2:1000000000000", f"sieve limit 10077480 exceeds cap {numtheory.SIEVE_LIMIT}"),
])
def test_thm3_huge_range_exits_at_once(arc03_file, tmp_path, capsys, lengths, message):
    # a span of 10^12 lengths stops at its first bad length, without a pass over the rest
    out = tmp_path / "t3.csv"
    start = time.perf_counter()
    assert run(["thm3", arc03_file, "--alphas", "2.0", "--n-ranges", lengths, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"invalid input: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_thm3_refuses_a_build_past_the_gram_size_limit(arc03_file, tmp_path, monkeypatch, capsys):
    # N = 2..215 pass the sieve cap but sum to 23,219 frequencies: refused before any
    # coefficient, so before the first of 214 ever larger eigensolves
    calls = []
    monkeypatch.setattr(torus, "fourier_coeff_many", lambda *args: calls.append(args))
    out = tmp_path / "t3.csv"
    start = time.perf_counter()
    assert run(["thm3", arc03_file, "--alphas", "2.0", "--n-ranges", "2:215", "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    assert calls == []
    assert capsys.readouterr().err == (
        f"invalid input: the lengths sum to 23219 frequencies, more than {spectral.GRAM_SIZE_LIMIT}\n")
    assert not out.exists()


@pytest.mark.parametrize("alpha,lengths,limit,size", [
    ("500", "4:5", "4.286e+301", "1.714e+296"),  # 4^500 is a finite float
    ("1.0000001", f"1{'0' * 300}", "1.000e+600", "4.000e+594"),  # past every float
], ids=["finite-power", "huge-length"])
def test_thm3_sieve_cap_message_stays_short(arc03_file, tmp_path, capsys, alpha, lengths, limit, size):
    # a span of hundreds of digits prints in 4
    assert run(["thm3", arc03_file, "--alphas", alpha, "--n-ranges", lengths,
                "--out", tmp_path / "t3.csv"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200
    assert err == f"invalid input: sieve limit {limit} exceeds cap {numtheory.SIEVE_LIMIT} (~{size} MB)\n"


def test_thm3_span_syntax(full_file, tmp_path):
    out = tmp_path / "t3.csv"
    assert run(["thm3", full_file, "--alphas", "2.0,1.5", "--n-ranges", "4:5;6:7",
                "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_thm3_rejects_reversed_span(arc03_file, tmp_path, capsys):
    # 40:20 names no length; read as empty, it would drop out of the report unseen
    out = tmp_path / "t3.csv"
    assert run(["thm3", arc03_file, "--alphas", "1.5", "--n-ranges", "16,40:20",
                "--out", out]) == 2
    assert "length span 40:20 runs backwards" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha,message", [
    ("inf", "every alpha must be finite, got [inf]"),
    ("1e400", "every alpha must be finite, got [inf]"),
    ("nan", "every alpha must be finite, got [nan]"),
    ("500", "N^alpha = 5^500.0 is not a finite float"),
])
def test_thm3_rejects_alpha_without_finite_cap(arc03_file, tmp_path, capsys, alpha, message):
    out = tmp_path / "t3.csv"
    # 5:6, since lengths are read in order and 4^500 is a finite float: at 4:5 the
    # first length stops the run at the sieve cap instead
    assert run(["thm3", arc03_file, "--alphas", alpha, "--n-ranges", "5:6", "--out", out]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not out.exists()


def test_thm2_writes_no_build_past_the_frequency_range(arc03_file, tmp_path, capsys):
    # the second block first clears its target at shift 2^62 - 3, where its frequencies
    # reach 2^62 + 1: the build refuses it, so thm2 never writes a file riesz refuses
    out, build = tmp_path / "t2.csv", tmp_path / "b.json"
    assert run(["thm2", arc03_file, "--count", 2, "--eps", 0.075, "--n-max", 60,
                "--scan-start", 2 ** 62 - 5, "--scan-cap", 2 ** 62 - 1,
                "--out", out, "--build-out", build]) == 2
    assert capsys.readouterr().err == (
        f"invalid input: block 2: frequencies must satisfy |f| < 2^62, got {2 ** 62 - 1}..{2 ** 62 + 1}\n")
    assert not out.exists() and not build.exists()


def test_thm2_scan_exhausted_exits_3(arc03_file, tmp_path, capsys):
    # the second block (n = 2) first clears its target at shift 2, past the cap
    out = tmp_path / "t2.csv"
    assert run(["thm2", arc03_file, "--count", 3, "--eps", 0.075, "--scan-cap", 1,
                "--out", out]) == 3
    err = capsys.readouterr().err
    assert "search failed: no shift in [0, 1] reached target" in err
    assert "1 decided by Cholesky, 1 failed a 2x2 minor, 0 skipped for meeting the union" in err
    assert not out.exists()


# --- verify ----------------------------------------------------------------------

def test_verify_lemma4(capsys):
    assert run(["verify", "lemma4", "--limit", 100]) == 0
    text = capsys.readouterr().out
    assert "pass" in text and "[4]" in text


def test_verify_lemma4_refuses_an_oversized_limit_at_once(capsys):
    start = time.perf_counter()
    assert run(["verify", "lemma4", "--limit", 100000]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "invalid input: prime-block entry total sum(p) = 454396537 exceeds cap 10000000 (~3635 MB)\n")


def test_verify_divisors():
    assert run(["verify", "divisors", "--limit", 2000]) == 0


def test_verify_divisors_refuses_a_limit_past_the_trial_division_cap_at_once(capsys):
    # every n <= limit is checked by trial division; the sieve cap alone let 10^7
    # through, about 40 minutes of it
    start = time.perf_counter()
    assert run(["verify", "divisors", "--limit", cli.TRIAL_DIVISION_LIMIT + 1]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "invalid input: trial-division limit 100001 exceeds cap 100000\n")


def test_verify_schedule():
    assert run(["verify", "schedule", "--epsilon", 0.25]) == 0
    assert run(["verify", "schedule", "--epsilon", 2.0]) == 2


# --- integer range and build-file shape ------------------------------------------

def _build_doc(*blocks):
    # "n" is the block's length, as build_to_dict writes it
    blocks = [{"step": 1, "length": 1, "shift": 0, "cert_lambda_min": 0.3, **b} for b in blocks]
    return {"gamma": 0.15, "set": "", "blocks": [{"n": b["length"], **b} for b in blocks]}


@pytest.mark.parametrize("doc", [
    _build_doc({"step": 2 ** 62, "length": 4}),                 # would wrap in int64
    _build_doc({"shift": 2 ** 63 + 5}),                         # beyond int64
    _build_doc({"shift": 2 ** 63 - 2}, {"shift": -(2 ** 63 - 1)}),  # differences overflow
    _build_doc({"step": 1.5}),
    _build_doc({"length": 0}),
    [],
    {"gamma": 0.15, "blocks": 3},
    {"gamma": 0.15, "blocks": [1]},
    {"gamma": None, "blocks": []},
    {**_build_doc({}), "gamma": "0.15"},                        # strings are not numbers
    {**_build_doc({}), "gamma": True},
    _build_doc({"cert_lambda_min": True}),                      # nor are bools
    _build_doc({"cert_lambda_min": "0.3"}),
    {"gamma": 0.15, "blocks": [{"n": 1, "length": 1, "shift": 0, "cert_lambda_min": 0.3}]},
    {"blocks": []},
    # {1..6} and {7..12} recompute to 1.2e-6 and 6.5e-14, which clear a stated gamma
    # of 0, though gamma must be |S|/2 = 0.15 on [0, 0.3)
    {**_build_doc({"length": 6}, {"length": 6, "shift": 6}), "gamma": 0.0},
    {**_build_doc({}), "gamma": 10 ** 400},                      # past float range
])
def test_riesz_rejects_bad_build_file(arc03_file, tmp_path, capsys, doc):
    path = tmp_path / "build.json"
    path.write_text(json.dumps(doc))
    assert run(["riesz", arc03_file, "--build", path, "--verify", "--out", tmp_path / "r.json"]) == 2
    assert "invalid input:" in capsys.readouterr().err


@pytest.mark.parametrize("blocks,message", [
    ([{"step": 0}], "block 1: step must be >= 1, got 0"),
    ([{}, {"length": 0, "shift": 5}], "block 2: length must be >= 1, got 0"),
    ([{"shift": 2 ** 62 - 1}],
     f"block 1: frequencies must satisfy |f| < 2^62, got {2 ** 62}..{2 ** 62}"),
    ([{}, {"shift": -(2 ** 62) - 1}],
     f"block 2: frequencies must satisfy |f| < 2^62, got {-(2 ** 62)}..{-(2 ** 62)}"),
    ([{"length": 8000}, {"length": 193, "shift": 9000}],
     f"build has 8193 frequencies, more than {spectral.GRAM_SIZE_LIMIT}"),
    ([{"length": 3}, {"length": 3, "shift": 1}],
     "build blocks overlap: frequency 2 is in more than one block"),
    ([{"length": 3, "n": 2}], "block 1 has n 2, which must equal its length 3"),
], ids=["step-0", "length-0", "freq-2^62", "freq-minus-2^62", "size", "overlap", "n-not-length"])
def test_builds_and_build_files_refuse_the_same_blocks(arc03_file, tmp_path, capsys, blocks, message):
    # LambdaBuild owns a build's checks, so a file is refused as the build it names;
    # "n" is only in the file, which must give it as the block's length
    doc = _build_doc(*blocks)
    if all(b["n"] == b["length"] for b in doc["blocks"]):
        specs = tuple(constructions.BlockSpec(b["step"], b["length"], b["shift"]) for b in doc["blocks"])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            constructions.LambdaBuild(specs, 0.15, (0.3,) * len(specs))
    path = tmp_path / "build.json"
    path.write_text(json.dumps(doc))
    assert run(["riesz", arc03_file, "--build", path]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"


@pytest.mark.parametrize("key", ["n", "step", "length", "shift", "cert_lambda_min"])
def test_riesz_names_a_missing_build_key(arc03_file, tmp_path, capsys, key):
    doc = _build_doc({}, {"shift": 1})
    del doc["blocks"][1][key]
    path = tmp_path / "build.json"
    path.write_text(json.dumps(doc))
    assert run(["riesz", arc03_file, "--build", path, "--verify"]) == 2
    assert capsys.readouterr().err == f'invalid input: block 2 has no "{key}"\n'


def test_riesz_rejects_oversized_frequency_set(full_file, capsys):
    # 10^5 frequencies would make a 149 GiB Gram; the set is refused before any is built
    freqs = ",".join(map(str, range(10 ** 5)))
    assert run(["riesz", full_file, "--freqs", freqs]) == 2
    limit = spectral.GRAM_SIZE_LIMIT
    assert capsys.readouterr().err == (
        f"invalid input: frequency set must have at most {limit} frequencies, got 100000\n")


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_riesz_rejects_oversized_build_file(full_file, tmp_path, verify):
    # run apart, in 1 GiB of address space: were the total length not checked as the
    # file is read, listing the block's 10^11 frequencies would end in a MemoryError
    path = tmp_path / "build.json"
    path.write_text(json.dumps(_build_doc({"length": 10 ** 11})))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(rieszseq.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "rieszseq.cli", "riesz", str(full_file),
                           "--build", str(path), *verify],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"invalid input: build has 100000000000 frequencies, more than {spectral.GRAM_SIZE_LIMIT}\n")


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_riesz_rejects_overlapping_build_blocks(arc03_file, tmp_path, capsys, verify):
    # {1, 2, 3} and {2, 3, 4} share 2 and 3; the set they would dedupe to is not the build
    path = tmp_path / "build.json"
    path.write_text(json.dumps(_build_doc({"length": 3}, {"length": 3, "shift": 1})))
    assert run(["riesz", arc03_file, "--build", path, *verify, "--out", tmp_path / "r.json"]) == 2
    assert "build blocks overlap: frequency 2" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag,value", [("--ap", f"0,{2 ** 63 - 1},3"), ("--ap", f"{2 ** 62},1,1"),
                                        ("--ap", f"0,1,{2 ** 62}"),  # checked before it is built
                                        ("--freqs", f"0,{-(2 ** 62)}")])
def test_riesz_rejects_out_of_range_frequencies(full_file, capsys, flag, value):
    assert run(["riesz", full_file, f"{flag}={value}"]) == 2
    assert "invalid input:" in capsys.readouterr().err


def test_riesz_accepts_frequencies_just_inside_range(full_file, capsys):
    big = 2 ** 62 - 1
    assert run(["riesz", full_file, f"--freqs={-big},{big}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 2


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("ap", ["0,1,1000000000000000000", f"{-(2 ** 62)},1,1000000000000000000"])
def test_riesz_rejects_overlong_progression(full_file, ap):
    # run apart, in 1 GiB of address space and under a timeout: were the length not
    # checked first, building the progression would end there in a MemoryError
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(rieszseq.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "rieszseq.cli", "riesz", str(full_file), f"--ap={ap}"],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid input: progression length must be at most 8192")


@pytest.mark.parametrize("argv,message", [
    (["thm1", "--lmax", "8", "--ells", "2", "--enns", "100000000000"],
     "N = 100000000000 must lie in [1, 65536]"),
    (["thm1", "--lmax", "200000", "--ells", "2", "--enns", "64"],
     "l_max must lie in [1, 1024], got 200000"),
    (["set", "build", "--epsilon", "0.25", "--lmax", "200000", "--out", "OUT"],
     "l_max must lie in [1, 1024], got 200000"),
])
def test_oversized_grid_is_rejected_before_building(tmp_path, argv, message):
    # run apart, in 1 GiB of address space and under a timeout: were the sizes not
    # checked first, building the set or the coefficient table would run out there
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(rieszseq.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "rieszseq.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"invalid input: {message}\n"
    assert not out.exists() and proc.stdout == ""
