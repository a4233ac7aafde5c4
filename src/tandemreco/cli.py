"""Command-line front-end.

Verbs: ``capacity`` (profile as JSON), ``rate-curve`` (CSV and optional
SVG), ``code`` (build/verify/info/decode/simulate on JSON code files) and
``oracle`` (brute-force cross-check suites).

Exit codes: 0 success, 1 oracle failure, 2 usage, domain or out-of-memory
error, 3 verification failure.  The environment variable TANDEM_NODE_CAP caps
descendant expansion globally.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .capacity import capacity_profile, rate_R
from .duplication import DupParams, Word
from .errors import DomainError, TandemError
from .oracles import ALL_SUITES
from .utr import (
    UtrCode,
    construction_a,
    is_utr_code_direct,
    is_utr_code_reduced,
    max_utr_code_bruteforce,
    reconstruct,
    simulate_reconstruction,
)

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3
MAX_CURVE_POINTS = 10**5  # rows one rate-curve run may write, priced before any is computed
# the oracle flags with their values when not given, and the flags each suite reads
ORACLE_DEFAULTS = {"max_root_len": 4, "max_t": 2, "samples": 25, "seed": 20240}
SUITE_FLAGS = {
    "cone-count": ("max_root_len", "max_t"),
    "intersection": ("max_root_len", "max_t"),
    "distance": ("max_root_len",),
    "checker": ("samples", "seed"),
    "bounds": ("samples", "seed"),
}
DISTANCE_MAX_ROOT_LEN = 5  # the longest roots whose pairs the distance suite searches


def _print_json(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def cmd_capacity(args) -> int:
    profile = capacity_profile(DupParams(args.q, args.k), args.theta, args.tol)
    _print_json(profile.to_json())
    return EXIT_OK


def _svg_rate_curve(
    gammas: list[float], rates: list[float], gamma0: float, r0: float, cap: float
) -> str:
    width, height = 720, 440
    left, right, top, bottom = 70, 20, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    rate_max = max(max(rates), cap) * 1.05

    def sx(g: float) -> float:
        return left + g * plot_w

    def sy(r: float) -> float:
        return top + (1.0 - r / rate_max) * plot_h

    pts = " ".join(f"{sx(g):.2f},{sy(r):.2f}" for g, r in zip(gammas, rates))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = sx(frac)
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18}" font-size="12" '
            f'text-anchor="middle">{frac:g}</text>'
        )
        y = sy(frac * rate_max)
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end">{frac * rate_max:.3f}</text>'
        )
    parts.append(
        f'<line x1="{sx(0.0):.2f}" y1="{sy(cap):.2f}" x2="{sx(1.0):.2f}" y2="{sy(cap):.2f}" '
        'stroke="gray" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{left + 6}" y="{sy(cap) - 6:.2f}" font-size="12" fill="gray">'
        f"irreducible capacity {cap:.4f}</text>"
    )
    parts.append(f'<polyline points="{pts}" fill="none" stroke="crimson"/>')
    parts.append(
        f'<circle cx="{sx(gamma0):.2f}" cy="{sy(r0):.2f}" r="4" fill="navy"/>'
    )
    parts.append(
        f'<text x="{sx(gamma0):.2f}" y="{sy(r0) - 10:.2f}" font-size="12" fill="navy" '
        f'text-anchor="middle">max {r0:.4f} at {gamma0:.4f}</text>'
    )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12}" font-size="13" '
        'text-anchor="middle">root-length fraction</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_rate_curve(args) -> int:
    params = DupParams(args.q, args.k)
    if not 1 <= args.points <= MAX_CURVE_POINTS:
        raise DomainError(f"--points must be in [1, {MAX_CURVE_POINTS}], got {args.points}")
    profile = capacity_profile(params, args.theta)
    step = 1.0 / (args.points + 1)
    gammas = [step * i for i in range(1, args.points + 1)]
    rates = [rate_R(g, profile.theta, params) for g in gammas]
    lines = ["gamma,R"]
    lines += [f"{g!r},{r!r}" for g, r in zip(gammas, rates)]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.points} rows to {args.out}")
    if args.svg:
        svg = _svg_rate_curve(
            gammas, rates, profile.gamma0, profile.rate_at_gamma0, profile.cap_irr
        )
        Path(args.svg).write_text(svg)
        print(f"wrote plot to {args.svg}")
    return EXIT_OK


def _load_code(path: str) -> UtrCode:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise DomainError(f"{path} is not JSON: {err}") from err
    return UtrCode.loads(text)


def cmd_code_build(args) -> int:
    params = DupParams(args.q, args.k)
    if args.method == "construction":
        code = construction_a(params, args.n, args.t, args.N, args.theta)
    else:
        code = max_utr_code_bruteforce(params, args.n, args.N, args.t)
    Path(args.out).write_text(code.dumps())
    print(f"wrote {len(code)} codewords to {args.out} (rate {code.rate():.4f})")
    return EXIT_OK


def cmd_code_verify(args) -> int:
    code = _load_code(args.code)
    direct = is_utr_code_direct(code)
    reduced = is_utr_code_reduced(code)
    print(f"direct checker:  {'ok' if direct.ok else 'violation'}")
    print(f"reduced checker: {'ok' if reduced.ok else 'violation'}")
    if direct.ok != reduced.ok:
        print("checkers disagree; this is a library bug", file=sys.stderr)
        return EXIT_ORACLE
    if not direct.ok:
        a, b = direct.witness
        print(f"INVALID: |shared {code.t}-descendants of {a} and {b}| = {direct.detail} > N = {code.N}")
        return EXIT_VERIFY
    print("VALID")
    return EXIT_OK


def cmd_code_info(args) -> int:
    code = _load_code(args.code)
    cones = code.cone_size_counts()
    _print_json(
        {
            "q": code.params.q,
            "k": code.params.k,
            "n": code.n,
            "N": code.N,
            "t": code.t,
            "size": len(code),
            "rate": code.rate(),
            "roots": sum(cones.values()),
            "largest_cone": max(cones, default=0),
        }
    )
    return EXIT_OK


def cmd_code_decode(args) -> int:
    code = _load_code(args.code)
    try:
        text = Path(args.reads).read_text()
    except UnicodeDecodeError as err:
        raise DomainError(f"{args.reads} is not text: {err}") from err
    lines = [ln.strip() for ln in text.splitlines()]
    reads = [Word.parse(ln, code.params) for ln in lines if ln]
    print(reconstruct(code, reads).text())
    return EXIT_OK


def cmd_code_simulate(args) -> int:
    code = _load_code(args.code)
    report = simulate_reconstruction(code, args.trials, args.seed)
    _print_json(report.to_json())
    return EXIT_OK


def cmd_oracle(args) -> int:
    names = list(ALL_SUITES) if args.suite == "all" else [args.suite]
    read = {flag for name in names for flag in SUITE_FLAGS.get(name, ())}
    given = {f: getattr(args, f) for f in ORACLE_DEFAULTS if getattr(args, f) is not None}
    # a flag that no chosen suite reads would be dropped in silence
    unread = [f for f in given if f not in read]
    if unread:
        flags = ", ".join("--" + f.replace("_", "-") for f in unread)
        raise DomainError(f"the {args.suite} suite does not read {flags}")
    value = {**ORACLE_DEFAULTS, **given}
    # a suite at these values would check nothing and still print OK
    if value["max_root_len"] < 1 or value["samples"] < 1 or value["max_t"] < 0:
        raise DomainError(
            "need --max-root-len >= 1, --samples >= 1 and --max-t >= 0, got "
            f"{value['max_root_len']}, {value['samples']} and {value['max_t']}"
        )
    if "distance" in names and value["max_root_len"] > DISTANCE_MAX_ROOT_LEN:
        raise DomainError(
            f"the distance suite reads --max-root-len up to {DISTANCE_MAX_ROOT_LEN}, "
            f"got {value['max_root_len']}"
        )
    failed = False
    for name in names:
        kwargs = {f: value[f] for f in SUITE_FLAGS.get(name, ())}
        if name == "bounds":
            kwargs["samples"] *= 10
        result = ALL_SUITES[name](**kwargs)
        print(result.summary())
        failed = failed or not result.ok
    return EXIT_ORACLE if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="tandemreco",
        description="Reconstruction codes for the uniform tandem-duplication channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="print the capacity profile as JSON")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("rate-curve", help="emit the rate curve as CSV (and SVG)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--points", type=int, default=999)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_rate_curve)

    code = sub.add_parser("code", help="build, verify, inspect, decode, simulate")
    code_sub = code.add_subparsers(dest="verb", required=True)

    p = code_sub.add_parser("build", help="write a code file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument(
        "--method", choices=("construction", "exhaustive"), default="construction"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_code_build)

    p = code_sub.add_parser("verify", help="run both validity checkers")
    p.add_argument("--code", required=True)
    p.set_defaults(func=cmd_code_verify)

    p = code_sub.add_parser("info", help="summarize a code file")
    p.add_argument("--code", required=True)
    p.set_defaults(func=cmd_code_info)

    p = code_sub.add_parser("decode", help="reconstruct from a file of reads")
    p.add_argument("--code", required=True)
    p.add_argument("--reads", required=True, help="one word per line")
    p.set_defaults(func=cmd_code_decode)

    p = code_sub.add_parser("simulate", help="seeded end-to-end channel experiment")
    p.add_argument("--code", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_code_simulate)

    p = sub.add_parser("oracle", help="run brute-force cross-check suites")
    p.add_argument("--suite", choices=["all", *ALL_SUITES], default="all")
    # each flag is refused by a suite that does not read it (SUITE_FLAGS)
    for flag, default in ORACLE_DEFAULTS.items():
        name = "--" + flag.replace("_", "-")
        p.add_argument(name, type=int, default=None, help=f"default {default}")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TandemError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
