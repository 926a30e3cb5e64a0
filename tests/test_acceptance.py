"""Acceptance gate: one test per criterion, each printing a PASS line with its
runtime.  Expected values marked as frozen were computed by the stated
independent oracle (quadrature, brute force, closed form, or a first verified
end-to-end run) and are asserted at the stated tolerances.
"""

import json
import math
import time

import numpy as np
import pytest

from rieszseq import cli, constructions as con, numtheory, spectral, torus


def _announce(num, detail, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    print(f"CRITERION {num}: PASS - {detail} ({elapsed:.1f}s)")


def _random_set(rng, max_arcs=3):
    n = rng.randint(1, max_arcs + 1)
    pts = np.sort(rng.uniform(0.0, 1.0, 2 * n))
    while np.min(np.diff(pts)) < 1e-6:
        pts = np.sort(rng.uniform(0.0, 1.0, 2 * n))
    return torus.normalize(list(zip(pts[0::2], pts[1::2])))


def test_criterion_1_fourier_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.RandomState(101)
    worst = 0.0
    for _ in range(100):
        s = _random_set(rng)
        ks = [0, 1, -64, 64] + rng.randint(-64, 65, 3).tolist()
        for k in ks:
            exact = torus.fourier_coeff_many(s, [int(k)])[0]
            err = abs(exact - torus.quadrature_coeff(s, int(k), 10 ** 5))
            worst = max(worst, err)
    assert worst < 1e-8
    _announce(1, f"closed form vs 1e5-point quadrature, max |diff| = {worst:.2e}", t0, 10)


def test_criterion_2_gram_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.RandomState(202)
    for _ in range(200):
        s = _random_set(rng)
        size = rng.randint(2, 31)
        freqs = spectral.frequency_set(
            rng.choice(np.arange(-300, 301), size=size, replace=False).tolist()
        )
        g = spectral.gram(s, freqs)
        lo, hi = spectral.extreme_eigs(g)
        assert lo >= -1e-9                                         # PSD
        assert lo <= s.measure + 1e-9 <= hi + 2e-9                 # sandwich
        assert lo >= s.measure - math.sqrt(spectral.offdiag_energy(g)) - 1e-9
        shift = int(rng.randint(-10 ** 6, 10 ** 6 + 1))            # translation, exact
        g2 = spectral.gram(s, freqs + shift)
        assert np.array_equal(g.entries, g2.entries)
        extra = int(rng.randint(400, 600))                         # interlacing
        lo2, _ = spectral.extreme_eigs(
            spectral.gram(s, np.append(freqs, extra))
        )
        assert lo2 <= lo + 1e-9
    _announce(2, "PSD/sandwich/CS-floor/translation/interlacing on 200 instances", t0, 30)


# frozen after the first verified run of the epsilon=0.25, l_max=64 grid;
# bounds are (2/(pi N)) * cot(pi delta(ell)) with delta from the width schedule
THM1_FROZEN = {
    (2, 256): (0.013642338004584031, 0.05176104509916853),
    (2, 1024): (0.0034669217047373913, 0.012940261274792133),
    (2, 4096): (0.0008720270559775534, 0.0032350653186980333),
    (4, 256): (0.05204321134381884, 0.22233523085818166),
    (4, 1024): (0.01427626515980207, 0.055583807714545415),
    (4, 4096): (0.003661484622076827, 0.013895951928636354),
    (8, 256): (0.2841091840162209, 0.8288110430485269),
    (8, 1024): (0.05228271690821107, 0.20720276076213173),
    (8, 4096): (0.01354861297809784, 0.05180069019053293),
}


def test_criterion_3_small_step_decay_demo():
    t0 = time.perf_counter()
    sched = con.DeltaSchedule(0.25)
    s = con.build_adversarial_set(0.25, 64)
    assert s.measure > 0.75
    for ell in (2, 4, 8):
        delta = sched.delta(ell)
        for n in (256, 1024, 4096):
            cell = con.thm1_cells(s, sched, ell, [n])[0]
            bound = 2.0 / (math.pi * n * math.tan(math.pi * delta))
            assert cell.rayleigh_uniform <= bound + 1e-9
            ray_ref, bound_ref = THM1_FROZEN[(ell, n)]
            assert cell.rayleigh_uniform == pytest.approx(ray_ref, rel=1e-9)
            assert cell.tail_bound == pytest.approx(bound_ref, rel=1e-9)
            if n == 4096 and ell <= 4:
                assert cell.rayleigh_uniform < 0.05 and cell.tail_bound < 0.05
    _announce(3, "9-cell chain under the cotangent bound; N=4096 column < 0.05 for ell <= 4", t0, 60)


def test_criterion_4_step_linear_build(tmp_path):
    t0 = time.perf_counter()
    s = torus.normalize([(0.0, 0.3)])
    hits = list(con.good_n_search(s, 0.075, (1, 2000)))
    assert len(hits) >= 3
    build = con.build_lambda_thm2(s, 3, eps=0.075, n_range=(1, 2000))
    assert len(build.blocks) == 3
    for cert in build.schedule:
        assert cert >= 0.075  # full eigensolve certificates for every partial union
    rows, _ = con.verify_build(s, build)
    assert all(r.ok for r in rows)
    set_path, build_path = tmp_path / "arc03.json", tmp_path / "b2.json"
    torus.save_set(s, set_path)
    con.save_build(build, build_path, str(set_path))
    assert cli.main(["riesz", str(set_path), "--build", str(build_path), "--verify",
                     "--out", str(tmp_path / "rep.json")]) == 0
    doc = json.loads(build_path.read_text())
    doc["blocks"][0]["cert_lambda_min"] += 1e-6
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    assert cli.main(["riesz", str(set_path), "--build", str(tmp_path / "tampered.json"),
                     "--verify", "--out", str(tmp_path / "rep2.json")]) == 3
    _announce(4, f"{len(hits)} good lengths; 3-block build certified >= 0.075 and re-verified", t0, 120)


def test_criterion_5_step_polynomial_build():
    t0 = time.perf_counter()
    s = torus.normalize([(0.0, 0.3)])
    build, _ = con.build_lambda_thm3(s, [1.5], [[16, 32]])
    assert len(build.blocks) == 2
    span = max(con.strict_step_cap(n, 1.5) * n for n in (16, 32))
    powers = np.abs(torus.fourier_coeff_many(s, np.arange(span + 1))) ** 2
    for b, cert in zip(build.blocks, build.schedule):
        assert b.step < b.length ** 1.5
        search = con.step_search_alpha(powers, 1.5, b.length, con.strict_step_cap(b.length, 1.5))
        assert search.grid_sum <= search.divisor_sum + 1e-12  # averaging certificate
        assert cert >= 0.075
    _announce(5, "steps below N^1.5 with exact averaging certificates; certs >= 0.075", t0, 60)


def test_criterion_6_prime_block_disjointness():
    t0 = time.perf_counter()
    ok, witness = numtheory.prime_blocks_disjoint(100)
    assert ok and witness is None
    assert numtheory.block_intersection(2, 4) == [4]
    _announce(6, "blocks disjoint for all primes <= 100; composite counterexample at 4", t0, 1)


def test_criterion_7_divisor_suite():
    t0 = time.perf_counter()
    primes = set(numtheory.sieve_primes(10 ** 4).tolist())
    counts = numtheory.sieve_divisors(10 ** 4)
    for n in range(1, 10 ** 4 + 1):
        assert (n in primes) == numtheory.is_prime_naive(n)
        assert int(counts[n]) == numtheory.divisor_count_naive(n)
    for cap in (10, 100, 1000):
        lhs, rhs = numtheory.divisor_sum_identity(cap)
        assert lhs == rhs
    _announce(7, "sieves exact vs trial division to 1e4; hyperbola identity at 10/100/1000", t0, 5)


def test_criterion_8_worker_determinism(tmp_path):
    t0 = time.perf_counter()
    set_path = tmp_path / "arc03.json"
    torus.save_set(torus.normalize([(0.0, 0.3)]), set_path)
    jobs = [
        ("thm1", ["thm1", "--epsilon", "0.25", "--lmax", "64",
                  "--ells", "2,4,8", "--enns", "256,1024,4096"]),
        ("thm2", ["thm2", str(set_path), "--count", "3", "--eps", "0.075",
                  "--n-max", "2000"]),
        ("thm3", ["thm3", str(set_path), "--alphas", "1.5", "--n-ranges", "16,32"]),
    ]
    for name, argv in jobs:
        # thm2/thm3 place blocks sequentially and take no --workers; they must still
        # give identical bytes on a rerun
        runs = (["--workers", "1"], ["--workers", "8"]) if name == "thm1" else ([], [])
        outputs = []
        for i, extra in enumerate(runs):
            out = tmp_path / f"{name}_{i}.csv"
            assert cli.main(argv + extra + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output differs between runs"
    _announce(8, "thm1 CSVs byte-identical at 1 and 8 workers; thm2/thm3 on rerun", t0, 300)
