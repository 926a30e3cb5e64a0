"""In-memory span recorder and the outside-in instrumentation of rieszseq.

Spans are recorded from the benchmark's side of each public-function
boundary: `instrument` replaces every public function attribute of the
package modules with a wrapper that opens a span, calls the original and
closes the span.  Cross-module calls look names up on the module at call
time, so wrapping the attribute is enough; names imported with `from` are
separate attributes and are wrapped under each module that holds them.
Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field

LAYERS = ("torus", "spectral", "numtheory", "constructions", "cli")
OP_SPAN = "bench.op"  # the root span the benchmark opens around each op

# a dense Hermitian eigvalsh is dominated by the Householder reduction to
# tridiagonal form: 4/3 m^3 real flops, times 4 for complex arithmetic
EIG_FLOPS_FORMULA = "16/3 * m^3 per eigensolve of an m x m complex Hermitian Gram"


def eig_flops(m: int) -> float:
    return 16.0 / 3.0 * float(m) ** 3


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Recorder.spans, -1 for a root
    op: int
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)


class Recorder:
    """Keeps every span of a run in memory; nothing is written until `summary`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False, **counts) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.failed = failed
        span.counts.update(counts)
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    def self_times(self) -> list[float]:
        """Duration minus the part of the span that its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((s.end - s.start) - covered)
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _counts(name, args, kwargs):
    """Boundary counts for the spans the report needs; read from the arguments."""
    if name == "torus.fourier_coeff_many":
        s, ks = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "ks")
        k = int(getattr(ks, "size", None) or len(ks))
        return {"k_evals": k, "arc_evals": k * len(s.arcs)}
    if name == "torus.fourier_table":
        return {"entries": int(_arg(args, kwargs, 1, "max_index")) + 1}
    if name == "spectral.gram":
        return {"entries": len(_arg(args, kwargs, 1, "freqs")) ** 2}
    if name == "spectral.extreme_eigs":
        return {"m": _arg(args, kwargs, 0, "g").size}
    if name == "numtheory.sieve_divisors":
        return {"entries": int(_arg(args, kwargs, 0, "limit"))}
    if name == "constructions.step_search_alpha":
        cap = args[3] if len(args) > 3 else kwargs.get("l_cap")
        if cap is None:
            length = int(_arg(args, kwargs, 2, "length"))
            alpha = float(_arg(args, kwargs, 1, "alpha"))
            cap = math.ceil(length ** alpha)
        return {"steps": int(cap)}
    return {}


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = _counts(name, args, kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, failed=True, **counts)
            raise
        rec.close(idx, **counts)
        return result

    return wrapper


def instrument(rec: Recorder, modules) -> list:
    """Wrap every public function attribute of `modules`; return an undo list.

    A function is named after the module that defines it, so the copy that
    `constructions` imports from `spectral` records as `spectral.frequency_set`.
    """
    undo = []
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            home = fn.__module__.rsplit(".", 1)[-1]
            if home not in LAYERS:
                continue
            setattr(mod, attr, _wrap(rec, f"{home}.{fn.__name__}", fn))
            undo.append((mod, attr, fn))
    return undo


def uninstrument(undo) -> None:
    for mod, attr, fn in undo:
        setattr(mod, attr, fn)


def summary(rec: Recorder) -> tuple[dict, dict]:
    """Per-layer metrics, each averaged per traced op, plus their bases.

    Returns (metrics, notes): metrics maps name -> (value, unit); notes holds
    the bases that ratios were taken over.
    """
    selfs = rec.self_times()
    ops = [i for i, s in enumerate(rec.spans) if s.name == OP_SPAN]
    n_ops = max(1, len(ops))
    op_wall = sum(rec.spans[i].end - rec.spans[i].start for i in ops)

    agg: dict[str, dict] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_self["bench"] = 0.0
    for s, self_s in zip(rec.spans, selfs):
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        a["calls"] += 1
        a["self_s"] += self_s
        a["total_s"] += s.end - s.start
        for k, v in s.counts.items():
            a[k] = a.get(k, 0) + v
        if size := s.counts.get("m"):
            a["max_m"] = max(a.get("max_m", 0), size)
            a["flops"] = a.get("flops", 0.0) + eig_flops(size)
        layer = s.name.split(".", 1)[0]
        layer_self[layer if layer in layer_self else "bench"] += self_s

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    # eigensolves below a select_shift span, and per-op sieve limits
    scan_eigs = 0
    sieve_by_op: dict[int, list[int]] = {}
    for s in rec.spans:
        if s.name == "spectral.extreme_eigs":
            p = s.parent
            while p >= 0 and rec.spans[p].name != "constructions.select_shift":
                p = rec.spans[p].parent
            scan_eigs += p >= 0
        elif s.name == "numtheory.sieve_divisors":
            sieve_by_op.setdefault(s.op, []).append(s.counts["entries"])
    placed = sum(
        1 for s in rec.spans if s.name == "constructions.select_shift" and not s.failed
    )
    sieve_max = sum(max(v) for v in sieve_by_op.values())
    sieve_sum = sum(sum(v) for v in sieve_by_op.values())
    coeff_self = get("torus.fourier_coeff_many", "self_s")
    coeff_arcs = get("torus.fourier_coeff_many", "arc_evals")

    def per_op(v):
        return v / n_ops

    m: dict[str, tuple[float, str]] = {
        "torus.coeff.calls": (per_op(get("torus.fourier_coeff_many", "calls")), "count"),
        "torus.coeff.k_evals": (per_op(get("torus.fourier_coeff_many", "k_evals")), "count"),
        "torus.coeff.arc_evals": (per_op(coeff_arcs), "count"),
        "torus.coeff.self_s": (per_op(coeff_self), "s"),
        "torus.coeff.arc_evals_per_s": (coeff_arcs / coeff_self if coeff_self else 0.0, "1/s"),
        "torus.table.entries": (per_op(get("torus.fourier_table", "entries")), "count"),
        "torus.normalize.self_s": (per_op(get("torus.normalize", "self_s")), "s"),
        "spectral.gram.calls": (per_op(get("spectral.gram", "calls")), "count"),
        "spectral.gram.entries": (per_op(get("spectral.gram", "entries")), "count"),
        "spectral.gram.self_s": (per_op(get("spectral.gram", "self_s")), "s"),
        "spectral.eig.calls": (per_op(get("spectral.extreme_eigs", "calls")), "count"),
        "spectral.eig.max_m": (float(get("spectral.extreme_eigs", "max_m")), "rows"),
        "spectral.eig.flops": (per_op(get("spectral.extreme_eigs", "flops")), "flop"),
        "spectral.eig.self_s": (per_op(get("spectral.extreme_eigs", "self_s")), "s"),
        "spectral.ap.self_s": (per_op(get("spectral.uniform_rayleigh_ap", "self_s")), "s"),
        "numtheory.sieve.calls": (per_op(get("numtheory.sieve_divisors", "calls")), "count"),
        "numtheory.sieve.entries": (per_op(get("numtheory.sieve_divisors", "entries")), "count"),
        "numtheory.sieve.self_s": (per_op(get("numtheory.sieve_divisors", "self_s")), "s"),
        "numtheory.sieve.useful_ratio": (sieve_max / sieve_sum if sieve_sum else 0.0, "ratio"),
        "constructions.select_shift.calls": (per_op(get("constructions.select_shift", "calls")), "count"),
        "constructions.select_shift.eig_calls": (per_op(scan_eigs), "count"),
        "constructions.select_shift.accept_ratio": (placed / scan_eigs if scan_eigs else 0.0, "ratio"),
        "constructions.select_shift.self_s": (per_op(get("constructions.select_shift", "self_s")), "s"),
        "constructions.select_shift.total_s": (per_op(get("constructions.select_shift", "total_s")), "s"),
        "constructions.step_search.steps": (per_op(get("constructions.step_search_alpha", "steps")), "count"),
        "constructions.step_search.self_s": (per_op(get("constructions.step_search_alpha", "self_s")), "s"),
        "constructions.verify.total_s": (per_op(get("constructions.verify_build", "total_s")), "s"),
        "cli.main.calls": (per_op(get("cli.main", "calls")), "count"),
        "cli.main.self_s": (per_op(get("cli.main", "self_s")), "s"),
    }
    for layer, v in layer_self.items():
        m[f"{layer}.share"] = (v / op_wall if op_wall else 0.0, "ratio")
    notes = {
        "traced_ops": len(ops),
        "traced_op_wall_s": op_wall,
        "select_shift.accept_ratio": f"{placed} placed / {scan_eigs} eigensolves in scans",
        "numtheory.sieve.useful_ratio": f"{sieve_max} largest-limit entries / {sieve_sum} sieved, over {len(sieve_by_op)} ops",
        "spectral.eig.flops": EIG_FLOPS_FORMULA,
    }
    return m, notes
