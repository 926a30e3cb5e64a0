"""The benchmark's three workloads: their inputs, their ops and the checks on
each op's output.

Each workload has a fixed deck of op shapes drawn once from DECK_SEED.  A
shape fixes everything that sets an op's cost: arc count and arc lengths,
block lengths, grid size.  A run goes through the deck in passes; every pass
draws fresh inputs from the run's seed, so no input repeats within a run.
For the set-based workloads the seed rotates each shape so that a seeded
point of one of its gaps lands on 0.  Rotation multiplies c_hat(k) by a unit
phase, which conjugates every Gram matrix by a diagonal unitary: the
spectrum, the scan decisions and the work are those of the shape, while the
arcs, coefficients and outputs differ.  Without the fixed deck, one assembly
op on a random 1-3-arc set costs 0.03-2.9 s (a shift scan that accepts at
once or runs for 2000 candidates), and runs of different seeds would not
agree within any useful bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from rieszseq import cli, constructions, torus

DECK_SEED = 20140407
TOL = 1e-9


class OpFailed(Exception):
    """An op exited nonzero or its output failed a check."""


def run_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"rieszseq {argv[0]} exited {rc}: {err.getvalue().strip()}")


# -------------------------------------------------------------------------
# set shapes and their rotations
# -------------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """Arc lengths and the gaps after them, in circular order."""

    arcs: tuple[float, ...]
    gaps: tuple[float, ...]


def draw_shape(rng, k: int, lo: float, hi: float, floor: float = 0.01) -> Shape:
    measure = rng.uniform(lo, hi)
    while True:
        arcs = rng.dirichlet(np.ones(k)) * measure
        gaps = rng.dirichlet(np.ones(k)) * (1.0 - measure)
        if min(arcs.min(), gaps.min()) >= floor:
            return Shape(tuple(arcs.tolist()), tuple(gaps.tolist()))


def rotate(shape: Shape, rng) -> list[tuple[float, float]]:
    """Arcs of `shape` placed so that a random point of a random gap sits at 0.

    No arc crosses 0, so the arc count (and the kernel's work) is the shape's.
    """
    k = len(shape.arcs)
    j = int(rng.integers(k))
    u = rng.uniform(0.1, 0.9)
    x = (1.0 - u) * shape.gaps[j]
    out = []
    for i in range(1, k + 1):
        w = shape.arcs[(j + i) % k]
        out.append((x, x + w))
        x += w + shape.gaps[(j + i) % k] * (u if i == k else 1.0)
    return out


# -------------------------------------------------------------------------
# independent checks
# -------------------------------------------------------------------------

def oracle_lambda_min(arcs, freqs) -> float:
    """lambda_min of the Gram of `freqs` on the arc union, from the closed form
    c_hat(d) = sum (e^{-2 pi i d a} - e^{-2 pi i d b}) / (2 pi i d), solved by
    scipy's eigh: shares no code with the program."""
    f = np.asarray(freqs, dtype=np.float64)
    d = f[None, :] - f[:, None]
    a = np.array([p for p, _ in arcs])
    b = np.array([q for _, q in arcs])
    phase = -2j * np.pi * d[..., None]
    num = (np.exp(phase * a) - np.exp(phase * b)).sum(axis=-1)
    off = d != 0
    g = np.full(d.shape, math.fsum(q - p for p, q in arcs), dtype=np.complex128)
    g[off] = num[off] / (2j * np.pi * d[off])
    return float(scipy.linalg.eigh(g, eigvals_only=True, subset_by_index=[0, 0])[0])


def check_build(path: Path, arcs, steps, lengths) -> list[str]:
    """Structure and certificate checks on a saved build file."""
    doc = json.loads(path.read_text())
    blocks = doc["blocks"]
    errors = []
    if [b["step"] for b in blocks] != list(steps):
        errors.append(f"block steps {[b['step'] for b in blocks]} != {list(steps)}")
    if [b["length"] for b in blocks] != list(lengths):
        errors.append(f"block lengths {[b['length'] for b in blocks]} != {list(lengths)}")
    freqs = [b["shift"] + b["step"] * i for b in blocks for i in range(1, b["length"] + 1)]
    if len(set(freqs)) != len(freqs):
        errors.append("blocks are not pairwise disjoint")
    sched = [b["cert_lambda_min"] for b in blocks]
    if any(y > x + 1e-12 for x, y in zip(sched, sched[1:])):
        errors.append(f"schedule increases: {sched}")
    floor = doc["gamma"] / 2.0 - TOL
    if min(sched) < floor:
        errors.append(f"schedule {min(sched)} below gamma/2")
    lam = oracle_lambda_min(arcs, sorted(freqs))
    if abs(lam - sched[-1]) > TOL:
        errors.append(f"last certificate {sched[-1]!r} != oracle {lam!r}")
    return errors


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -------------------------------------------------------------------------
# workloads
# -------------------------------------------------------------------------

@dataclass
class Op:
    index: int       # position in the deck
    params: dict


class Workload:
    """A deck of op shapes (odd in length, so one op holds the median) and the
    inputs, op body, output check and warm-up op for them."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.deck = self.make_deck(np.random.default_rng(DECK_SEED))

    def ops_for_pass(self, p: int) -> list[Op]:
        """Fresh inputs for pass p, in a seeded order; writes any input files."""
        rng = np.random.default_rng([self.seed, p])
        ops = [Op(i, self.inputs(rng, i, shape)) for i, shape in enumerate(self.deck)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def path(self, index: int, suffix: str) -> Path:
        return self.workdir / f"{self.name}-{index}.{suffix}"

    def make_deck(self, rng) -> list:
        raise NotImplementedError

    def inputs(self, rng, index: int, shape) -> dict:
        raise NotImplementedError

    def run(self, op: Op) -> None:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        raise NotImplementedError

    def warm_up(self) -> list[str]:
        raise NotImplementedError


# frozen Theorem-1 cells (epsilon 0.25, l_max 64), as in the acceptance tests
THM1_FROZEN = {
    (2, 256): (0.013642338004584031, 0.05176104509916853),
    (2, 1024): (0.0034669217047373913, 0.012940261274792133),
    (4, 256): (0.05204321134381884, 0.22233523085818166),
    (4, 1024): (0.01427626515980207, 0.055583807714545415),
    (8, 256): (0.2841091840162209, 0.8288110430485269),
    (8, 1024): (0.05228271690821107, 0.20720276076213173),
}


class Decay(Workload):
    """Theorem 1: thm1 grids on adversarial sets; the coefficient kernel on
    hundreds to thousands of arcs, no eigensolve, no sieve."""

    name = "decay"
    ENNS = (256, 1024)

    def make_deck(self, rng):
        # (48, 1) is left out to keep the deck odd; it is the cheapest shape
        return [(48, 2), (64, 1), (64, 2), (96, 1), (96, 2)]

    def inputs(self, rng, index, shape):
        lmax, n_ells = shape
        ells = sorted(int(e) for e in rng.choice(np.arange(1, 17), n_ells, replace=False))
        return {"epsilon": float(rng.uniform(0.1, 0.3)), "lmax": lmax, "ells": ells}

    def run(self, op):
        p = op.params
        run_cli([
            "thm1", "--workers", "1", "--epsilon", repr(p["epsilon"]), "--lmax", str(p["lmax"]),
            "--ells", ",".join(map(str, p["ells"])),
            "--enns", ",".join(map(str, self.ENNS)), "--out", str(self.path(op.index, "csv")),
        ])

    def _rows(self, path: Path, ells) -> tuple[list[dict], list[str]]:
        rows = read_csv(path)
        errors = []
        cells = [(int(r["ell"]), int(r["N"])) for r in rows]
        if cells != [(e, n) for e in ells for n in self.ENNS]:
            errors.append(f"grid {cells} is not ells {ells} x N {self.ENNS}")
        for r in rows:
            n, delta = int(r["N"]), float(r["delta"])
            ray, bound = float(r["rayleigh_uniform"]), float(r["tail_bound"])
            if ray > bound + TOL:
                errors.append(f"cell {r['ell']},{n}: rayleigh {ray} above cot bound {bound}")
            cot = 2.0 / (math.pi * n * math.tan(math.pi * delta))
            if abs(bound - cot) > TOL * cot:
                errors.append(f"cell {r['ell']},{n}: tail_bound {bound} != 2/(pi N) cot(pi delta) {cot}")
        return rows, errors

    def check(self, op):
        return self._rows(self.path(op.index, "csv"), op.params["ells"])[1]

    def warm_up(self):
        op = Op(-1, {"epsilon": 0.25, "lmax": 64, "ells": [2, 4, 8]})
        self.run(op)
        rows, errors = self._rows(self.path(op.index, "csv"), op.params["ells"])
        for r in rows:
            ref = THM1_FROZEN[(int(r["ell"]), int(r["N"]))]
            got = (float(r["rayleigh_uniform"]), float(r["tail_bound"]))
            if any(abs(g - f) > TOL * abs(f) for g, f in zip(got, ref)):
                errors.append(f"frozen cell {r['ell']},{r['N']}: {got} != {ref}")
        return errors


class Assembly(Workload):
    """Theorem 2: three-block step-O(N) builds from the library, each followed
    by the save / `riesz --verify` round trip."""

    name = "assembly"
    DECK = 5
    COUNT = 3

    def make_deck(self, rng):
        return [
            (draw_shape(rng, 1 + i % 3, 0.2, 0.35), int(rng.integers(40, 60)))
            for i in range(self.DECK)
        ]

    def inputs(self, rng, index, shape):
        set_shape, n0 = shape
        return {"arcs": rotate(set_shape, rng), "n0": n0}

    def run(self, op):
        s = torus.normalize(op.params["arcs"])
        n0 = op.params["n0"]
        build = constructions.build_lambda_thm2(
            s, self.COUNT, eps=s.measure / 4.0, n_range=(n0, n0 + 60)
        )
        set_path, build_path = self.path(op.index, "set.json"), self.path(op.index, "build.json")
        torus.save_set(s, set_path)
        constructions.save_build(build, build_path, str(set_path))
        run_cli(["riesz", str(set_path), "--build", str(build_path), "--verify",
                 "--out", str(self.path(op.index, "riesz.json"))])

    def check(self, op):
        doc = json.loads(self.path(op.index, "build.json").read_text())
        ns = [b["n"] for b in doc["blocks"]]
        errors = [] if len(ns) == self.COUNT else [f"{len(ns)} blocks, wanted {self.COUNT}"]
        return errors + check_build(self.path(op.index, "build.json"), op.params["arcs"], ns, ns)

    def warm_up(self):
        op = Op(-1, {"arcs": [(0.0, 0.3)], "n0": 1})
        self.run(op)
        return self.check(op)


class StepSearch(Workload):
    """Theorem 3: thm3 divisor-averaged step searches for alpha 2.0 and 1.5
    from the CLI, each followed by `riesz --verify`."""

    name = "step_search"
    DECK = 3
    ALPHAS = (2.0, 1.5)

    def make_deck(self, rng):
        return [
            (draw_shape(rng, 1 + i % 3, 0.2, 0.6), int(rng.integers(24, 40)), int(rng.integers(60, 100)))
            for i in range(self.DECK)
        ]

    def inputs(self, rng, index, shape):
        set_shape, a, b = shape
        arcs = rotate(set_shape, rng)
        torus.save_set(torus.normalize(arcs), self.path(index, "set.json"))
        return {"arcs": arcs, "ranges": ((a, a + 2), (b, b + 2))}

    def run(self, op):
        ranges = op.params["ranges"]
        set_path, build_path = self.path(op.index, "set.json"), self.path(op.index, "build.json")
        run_cli([
            "thm3", str(set_path), "--alphas", ",".join(map(repr, self.ALPHAS)),
            "--n-ranges", ";".join(f"{lo}:{hi}" for lo, hi in ranges),
            "--build-out", str(build_path), "--out", str(self.path(op.index, "csv")),
        ])
        run_cli(["riesz", str(set_path), "--build", str(build_path), "--verify",
                 "--out", str(self.path(op.index, "riesz.json"))])

    def check(self, op):
        rows = read_csv(self.path(op.index, "csv"))
        want = [(a, n) for a, (lo, hi) in zip(self.ALPHAS, op.params["ranges"]) for n in range(lo, hi + 1)]
        got = [(float(r["alpha"]), int(r["N"])) for r in rows]
        errors = [] if got == want else [f"rows {got} != requested {want}"]
        steps = [int(r["ell"]) for r in rows]
        for (alpha, n), ell in zip(got, steps):
            if not ell < n ** alpha:
                errors.append(f"step {ell} is not below {n}^{alpha}")
        return errors + check_build(
            self.path(op.index, "build.json"), op.params["arcs"], steps, [n for _, n in got]
        )

    def warm_up(self):
        arcs = [(0.0, 0.3)]
        torus.save_set(torus.normalize(arcs), self.path(-1, "set.json"))
        op = Op(-1, {"arcs": arcs, "ranges": ((16, 17), (24, 25))})
        self.run(op)
        return self.check(op)


WORKLOADS = {w.name: w for w in (Decay, Assembly, StepSearch)}
