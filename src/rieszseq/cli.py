"""Reproducible experiment runner over the library.

Exit codes: 0 success, 1 property violation, 2 invalid input, 3 search or
certificate failure.  Every CSV row is re-derivable through library calls and
rows are sorted by key before emission, so worker counts never change bytes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import itertools
import json
import math
import sys
from typing import Iterator

from . import constructions, numtheory, spectral, torus
from .errors import InputError, PropertyViolation, SearchFailed

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_SEARCH = 3

# verify divisors checks every n <= limit by trial division, O(limit^1.5) in
# all: 0.36 s at 10^4, 1.8 s at 10^5 and 10.8 s at 3 * 10^5 on 2 cores
TRIAL_DIVISION_LIMIT = 10 ** 5


def _write(path, text: str) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_rows(path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_length_ranges(text: str) -> list[Iterator[int]]:
    """Per-alpha lengths, ';'-separated; items are ints or ascending a:b spans.
    Each alpha's lengths are read lazily, once, so a long span is never listed."""
    groups = []
    for seg in text.split(";"):
        ranges = []
        for item in seg.split(","):
            item = item.strip()
            if not item:
                continue
            a, b = item.split(":") if ":" in item else (item, item)
            if int(b) < int(a):
                raise ValueError(f"length span {item} runs backwards")
            ranges.append(range(int(a), int(b) + 1))
        groups.append(itertools.chain.from_iterable(ranges))
    return groups


# -------------------------------------------------------------------------
# subcommands
# -------------------------------------------------------------------------

def _cmd_set_build(args) -> int:
    s = constructions.build_adversarial_set(args.epsilon, args.lmax)
    torus.save_set(s, args.out)
    print(f"wrote {args.out}: measure={s.measure!r} arcs={len(s.arcs)}")
    return EXIT_OK


def _cmd_set_info(args) -> int:
    if args.coeffs < 0:
        raise ValueError(f"--coeffs must be >= 0, got {args.coeffs}")
    s = torus.load_set(args.setfile)
    print(f"measure={s.measure!r} arcs={len(s.arcs)}")
    for k in range(args.coeffs + 1):  # one at a time, so a long listing streams
        print(f"c_hat({k}) = {complex(torus.fourier_coeff_many(s, [k])[0])!r}")
    return EXIT_OK


def _cmd_riesz(args) -> int:
    s = torus.load_set(args.setfile)
    if args.build is not None:
        build = constructions.load_build(args.build)
        if args.verify:
            # every partial union from one Gram; the report reuses the last eigensolve
            rows, report = constructions.verify_build(s, build)
            for row in rows:
                print(
                    f"block {row.index}: stated={row.stated!r} "
                    f"recomputed={row.recomputed!r} {'ok' if row.ok else 'MISMATCH'}"
                )
            if not all(row.ok for row in rows):
                raise SearchFailed("stored certificates do not match recomputation")
        else:
            report = spectral.riesz_report(s, build.frequencies())
    elif args.verify:
        raise ValueError("--verify needs --build")
    elif args.freqs is not None:
        report = spectral.riesz_report(s, spectral.frequency_set(_parse_int_list(args.freqs)))
    else:
        shift, step, length = _parse_int_list(args.ap)
        report = spectral.riesz_report(s, spectral.arithmetic_progression(shift, step, length))
    payload = dataclasses.asdict(report)
    _write(args.out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def _cmd_thm1(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    ells = _parse_int_list(args.ells)
    lengths = _parse_int_list(args.enns)
    if not ells or not lengths:
        raise ValueError("--ells and --enns must each name at least one value")
    for i, ell in enumerate(ells):
        if ell < 1:
            raise ValueError(f"ell = {ell} must be >= 1")
        if ell > args.lmax:
            raise ValueError(f"ell = {ell} exceeds lmax = {args.lmax}")
        if ell in ells[:i]:
            raise ValueError(f"ell = {ell} is given twice")
    for i, n in enumerate(lengths):
        if not 1 <= n <= spectral.RAYLEIGH_LENGTH_LIMIT:
            raise ValueError(f"N = {n} must lie in [1, {spectral.RAYLEIGH_LENGTH_LIMIT}]")
        if n in lengths[:i]:
            raise ValueError(f"N = {n} is given twice")
    sched = constructions.DeltaSchedule(args.epsilon)
    s = constructions.build_adversarial_set(args.epsilon, args.lmax)

    def run(ell):
        return constructions.thm1_cells(s, sched, ell, lengths)

    with concurrent.futures.ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = [cell for row in pool.map(run, ells) for cell in row]
    results.sort(key=lambda c: (c.ell, c.length))
    rows = [[c.ell, c.length, c.delta, c.rayleigh_uniform, c.tail_bound] for c in results]
    _write_rows(args.out, ["ell", "N", "delta", "rayleigh_uniform", "tail_bound"], rows)
    if args.plot:
        _decay_plot(args.plot, results)
    return EXIT_OK


def _cmd_thm2(args) -> int:
    s = torus.load_set(args.setfile)
    scan = constructions.ScanConfig(start=args.scan_start, cap=args.scan_cap)
    build = constructions.build_lambda_thm2(
        s, args.count, eps=args.eps, n_range=(1, args.n_max), scan=scan
    )
    rows = [[k, b.length, b.shift, cert, constructions.thm2_target(build.gamma, b.length)]
            for k, (b, cert) in enumerate(zip(build.blocks, build.schedule), start=1)]
    _write_rows(args.out, ["k", "n", "shift", "cert_lambda_min", "schedule_target"], rows)
    if args.build_out:
        constructions.save_build(build, args.build_out, args.setfile)
    return EXIT_OK


def _cmd_thm3(args) -> int:
    s = torus.load_set(args.setfile)
    alphas = [float(tok) for tok in args.alphas.split(",") if tok.strip()]
    ranges = _parse_length_ranges(args.n_ranges)
    scan = constructions.ScanConfig(start=args.scan_start, cap=args.scan_cap)
    build, searches = constructions.build_lambda_thm3(s, alphas, ranges, scan=scan)
    rows = [[r.alpha, b.length, b.step, r.total, b.shift, cert]
            for r, b, cert in zip(searches, build.blocks, build.schedule)]
    _write_rows(args.out, ["alpha", "N", "ell", "sum", "shift", "cert_lambda_min"], rows)
    if args.build_out:
        constructions.save_build(build, args.build_out, args.setfile)
    return EXIT_OK


def _cmd_verify(args) -> int:
    failures = []
    if args.what == "lemma4":
        ok, witness = numtheory.prime_blocks_disjoint(args.limit)
        print(f"prime blocks pairwise disjoint up to {args.limit}: {'pass' if ok else witness}")
        if not ok:
            failures.append(f"prime blocks intersect: {witness}")
        composite = numtheory.block_intersection(2, 4)
        print(f"composite counterexample B_2 & B_4 = {composite} (primality is necessary)")
        if composite != [4]:
            failures.append("composite counterexample not detected")
    elif args.what == "divisors":
        if args.limit > TRIAL_DIVISION_LIMIT:
            raise InputError(f"trial-division limit {args.limit} exceeds cap {TRIAL_DIVISION_LIMIT}")
        primes = set(numtheory.sieve_primes(args.limit).tolist())
        counts = numtheory.sieve_divisors(args.limit)
        for n in range(1, args.limit + 1):
            if (n in primes) != numtheory.is_prime_naive(n):
                failures.append(f"primality mismatch at {n}")
            if int(counts[n]) != numtheory.divisor_count_naive(n):
                failures.append(f"divisor count mismatch at {n}")
        print(f"sieves agree with trial division up to {args.limit}: {'pass' if not failures else 'fail'}")
        for cap in (10, 100, 1000):
            lhs, rhs = numtheory.divisor_sum_identity(cap)
            print(f"hyperbola identity at {cap}: {lhs} == {rhs}")
            if lhs != rhs:
                failures.append(f"hyperbola identity fails at {cap}")
    else:  # schedule
        sched = constructions.DeltaSchedule(args.epsilon)
        bound, budget = constructions.schedule_condition_a(sched)
        print(f"condition (a): certified sum bound {bound!r} < {budget!r}: {bound < budget}")
        if not bound < budget:
            failures.append("condition (a) failed")
        for alpha, (start, vals, increasing) in constructions.schedule_condition_b(sched).items():
            print(f"condition (b) alpha={alpha}: decades from {start}, increasing={increasing}")
            if not increasing:
                failures.append(f"condition (b) failed at alpha={alpha}")
        widths = constructions.schedule_widths_ok(sched)
        print(f"delta decreasing and below 1/(2*ell): {widths}")
        if not widths:
            failures.append("width bounds failed")
    if failures:
        raise PropertyViolation("; ".join(failures))
    return EXIT_OK


# -------------------------------------------------------------------------
# minimal SVG decay plot (no plotting dependency, deterministic bytes)
# -------------------------------------------------------------------------

def _decay_plot(path, cells) -> None:
    width, height, margin = 480, 320, 45
    xs = sorted({c.length for c in cells})
    ys = [c.rayleigh_uniform for c in cells if c.rayleigh_uniform > 0]
    ys += [c.tail_bound for c in cells]
    if not xs or not ys:
        return
    lx0, lx1 = math.log10(min(xs)), math.log10(max(xs))
    ly0, ly1 = math.log10(min(ys)), math.log10(max(ys))
    lx1 = lx1 if lx1 > lx0 else lx0 + 1.0
    ly1 = ly1 if ly1 > ly0 else ly0 + 1.0

    def px(n):
        return margin + (math.log10(n) - lx0) / (lx1 - lx0) * (width - 2 * margin)

    def py(v):
        return height - margin - (math.log10(v) - ly0) / (ly1 - ly0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" font-size="11" text-anchor="middle">progression length N (log)</text>',
        f'<text x="12" y="{height // 2}" font-size="11" transform="rotate(-90 12 {height // 2})" text-anchor="middle">uniform-vector energy (log)</text>',
    ]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    for i, ell in enumerate(sorted({c.ell for c in cells})):
        color = palette[i % len(palette)]
        for attr, dash in (("rayleigh_uniform", ""), ("tail_bound", ' stroke-dasharray="4 3"')):
            pts = [
                f"{px(c.length):.2f},{py(max(getattr(c, attr), 1e-300)):.2f}"
                for c in sorted(cells, key=lambda c: c.length)
                if c.ell == ell and getattr(c, attr) > 0
            ]
            if len(pts) > 1:
                parts.append(
                    f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}"{dash}/>'
                )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" font-size="11" fill="{color}">l={ell}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# -------------------------------------------------------------------------
# argument parsing and dispatch
# -------------------------------------------------------------------------

def _add_assembly_flags(p):
    p.add_argument("--out", default=None, help="CSV report path (stdout if omitted)")
    p.add_argument("--build-out", default=None, help="build file path")
    p.add_argument("--scan-start", type=int, default=constructions.ScanConfig().start)
    p.add_argument("--scan-cap", type=int, default=constructions.ScanConfig().cap)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built once per process: parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="rieszseq",
        description="Riesz-bound experiments for exponential systems on arc unions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_set = sub.add_parser("set", help="build or inspect set files")
    set_sub = p_set.add_subparsers(dest="set_command", required=True)
    p_build = set_sub.add_parser("build", help="write an adversarial set file")
    p_build.add_argument("--epsilon", type=float, required=True)
    p_build.add_argument("--lmax", type=int, required=True)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_set_build)
    p_info = set_sub.add_parser("info", help="print measure, arc count, coefficients")
    p_info.add_argument("setfile")
    p_info.add_argument("--coeffs", type=int, default=8)
    p_info.set_defaults(func=_cmd_set_info)

    p_riesz = sub.add_parser("riesz", help="Riesz report for a set and frequencies")
    p_riesz.add_argument("setfile")
    group = p_riesz.add_mutually_exclusive_group(required=True)
    group.add_argument("--freqs", help="comma-separated integers")
    group.add_argument("--ap", help="shift,step,length")
    group.add_argument("--build", help="path to a saved build")
    p_riesz.add_argument("--verify", action="store_true", help="re-check build certificates")
    p_riesz.add_argument("--out", default=None, help="JSON report path (stdout if omitted)")
    p_riesz.set_defaults(func=_cmd_riesz)

    p1 = sub.add_parser("thm1", help="small-step decay grid on the adversarial set")
    p1.add_argument("--epsilon", type=float, default=0.25)
    p1.add_argument("--lmax", type=int, default=64)
    p1.add_argument("--ells", default="2,4,8")
    p1.add_argument("--enns", default="256,1024,4096")
    p1.add_argument("--workers", type=int, default=1)
    p1.add_argument("--plot", default=None, help="optional SVG decay plot path")
    p1.add_argument("--out", default=None, help="CSV report path (stdout if omitted)")
    p1.set_defaults(func=_cmd_thm1)

    p2 = sub.add_parser("thm2", help="step-O(N) block assembly with certificates")
    p2.add_argument("setfile")
    p2.add_argument("--count", type=int, default=3)
    p2.add_argument("--eps", type=float, default=None)
    p2.add_argument("--n-max", type=int, default=2000)
    _add_assembly_flags(p2)
    p2.set_defaults(func=_cmd_thm2)

    p3 = sub.add_parser("thm3", help="step-O(N^alpha) diagonal assembly")
    p3.add_argument("setfile")
    p3.add_argument("--alphas", required=True, help="decreasing list, e.g. 2.0,1.5")
    p3.add_argument("--n-ranges", required=True, help="per-alpha lengths, e.g. '4:5;6:7'")
    _add_assembly_flags(p3)
    p3.set_defaults(func=_cmd_thm3)

    pv = sub.add_parser("verify", help="brute-force property suites")
    pv.add_argument("what", choices=("lemma4", "divisors", "schedule"))
    pv.add_argument("--limit", type=int, default=100)
    pv.add_argument("--epsilon", type=float, default=0.25)
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except SearchFailed as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except (ValueError, OSError) as exc:  # InputError and json.JSONDecodeError are ValueErrors
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
