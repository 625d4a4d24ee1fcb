"""Command-line front end.

One binary with subcommands; CSV for tables, JSON for single objects, all on
stdout unless --out is given.  Every randomized subcommand takes --seed
(default 0) and echoes it in its output, so runs are reproducible from the
flag set alone.  Exit codes: 0 success, 1 usage error, 2 resource-cap error
(the message names the flag that raises the cap).
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import bdmc, polarcode, scaling
from .errors import ResourceCapError
from .scaling import BootstrapConfig, Mode, ScalingConfig
from .zprocess import DEFAULT_ENUM_CAP, Rule, exact_distribution, sample_path

_RULES = {r.value: r for r in Rule}
_MODES = {m.value: m for m in Mode}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_channel(spec: str) -> bdmc.Channel:
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as fp:
            return bdmc.from_json_dict(json.load(fp))
    kind, _, value = spec.partition(":")
    if kind == "bec" and value:
        return bdmc.bec(float(value))
    if kind == "bsc" and value:
        return bdmc.bsc(float(value))
    raise ValueError(
        f"unknown channel spec {spec!r}; use bec:<eps>, bsc:<p>, or @file.json"
    )


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_channel_info(args) -> int:
    ch = _parse_channel(args.channel)
    bdmc.validate(ch)
    params = bdmc.channel_params(ch)
    _emit(args, json.dumps({"I": params.capacity, "Z": params.bhattacharyya}) + "\n")
    return 0


def _cmd_transform(args) -> int:
    ch = _parse_channel(args.channel)
    bdmc.validate(ch)
    pair = bdmc.polar_transform(ch, alphabet_cap=args.alphabet_cap)
    halves = {}
    for name, raw in (("minus", pair.minus), ("plus", pair.plus)):
        merged = raw if args.raw else bdmc.merge_equivalent_outputs(raw, args.merge_tol)
        p = bdmc.channel_params(merged)
        halves[name] = {
            "I": p.capacity,
            "Z": p.bhattacharyya,
            "outputs": len(merged),
        }
    _emit(args, json.dumps(halves) + "\n")
    return 0


def _cmd_spectrum(args) -> int:
    z = polarcode.bec_z_spectrum(args.eps, args.n, cap=args.spectrum_cap)
    lines = [f"# eps={args.eps!r} n={args.n}", "index,z"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(z)]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_construct(args) -> int:
    spec = polarcode.construct(args.eps, args.n, args.rate, cap=args.spectrum_cap)
    _emit(args, json.dumps(polarcode.to_json_dict(spec)) + "\n")
    return 0


def _cmd_codec_demo(args) -> int:
    spec = polarcode.construct(args.eps, args.n, args.rate, cap=args.spectrum_cap)
    rng = np.random.default_rng(args.seed)
    message = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
    codeword = polarcode.encode(spec, message)
    erased = rng.random(spec.block_length) < args.eps
    received = np.where(erased, np.int8(polarcode.ERASED), codeword.astype(np.int8))
    decoded = polarcode.sc_decode_bec(spec, received)
    _emit(
        args,
        json.dumps(
            {
                "seed": args.seed,
                "eps": args.eps,
                "n": args.n,
                "rate": spec.rate,
                "message": [int(b) for b in message],
                "codeword": [int(b) for b in codeword],
                "received": [int(b) for b in received],
                "decoded": None if decoded is None else [int(b) for b in decoded],
                "ok": decoded is not None and bool(np.array_equal(decoded, message)),
            }
        )
        + "\n",
    )
    return 0


def _cmd_simulate(args) -> int:
    spec = polarcode.construct(args.eps, args.n, args.rate, cap=args.spectrum_cap)
    result = polarcode.simulate_bler(
        spec, args.eps, args.trials, args.seed, threads=args.threads
    )
    buf = io.StringIO()
    buf.write(f"# seed={args.seed} eps={args.eps!r} n={args.n} rate={spec.rate!r}\n")
    result.to_csv(buf)
    _emit(args, buf.getvalue())
    return 0


def _cmd_polarize(args) -> int:
    rule = _RULES[args.rule]
    if args.exact:
        dist = exact_distribution(args.z0, args.n, rule, cap=args.enum_cap)
        buf = io.StringIO()
        dist.to_csv(buf)
        _emit(args, buf.getvalue())
        return 0
    states = sample_path(args.z0, args.n, rule, args.seed)
    lines = [
        f"# z0={args.z0!r} n={args.n} rule={rule.value} seed={args.seed}",
        "step,log2_z,log2_1mz,z",
    ]
    lines += [
        f"{i},{s.log_z!r},{s.log_1mz!r},{s.value!r}" for i, s in enumerate(states)
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _scaling_config(args) -> ScalingConfig:
    return ScalingConfig(
        z0=args.z0,
        beta_grid=_parse_float_list(args.betas),
        n_grid=_parse_int_list(args.ns),
        mode=_MODES[args.mode],
        trials=args.trials,
        seed=args.seed,
        rule=_RULES[args.rule],
        enum_cap=args.enum_cap,
        threads=args.threads,
    )


def _emit_curve(args, rows, kind: str) -> int:
    cfg_comment = (
        f"{kind} z0={args.z0!r} mode={args.mode} rule={args.rule} "
        f"trials={args.trials} seed={args.seed}"
    )
    buf = io.StringIO()
    scaling.rows_to_csv(rows, buf, comment=cfg_comment)
    _emit(args, buf.getvalue())
    if args.gnuplot:
        if not args.out:
            raise ValueError("--gnuplot needs --out to name the CSV it plots")
        script_path = args.out + ".gp"
        with open(script_path, "w", encoding="utf-8") as fp:
            fp.write(scaling.gnuplot_script(args.out, title=kind))
    return 0


def _cmd_scaling_direct(args) -> int:
    return _emit_curve(args, scaling.direct_curve(_scaling_config(args)), "direct")


def _cmd_scaling_converse(args) -> int:
    return _emit_curve(args, scaling.converse_curve(_scaling_config(args)), "converse")


def _cmd_bootstrap(args) -> int:
    cfg = BootstrapConfig(n=args.n, beta=args.beta, z0=args.z0, rho=args.rho)
    report = scaling.bootstrap_diagnostic(cfg, args.trials, args.seed)
    _emit(args, json.dumps(report.to_json_dict()) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_out(p) -> None:
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_code_flags(p, rate: bool = True) -> None:
    p.add_argument("--eps", type=float, required=True, help="BEC erasure probability")
    p.add_argument("--n", type=int, required=True, help="number of stages (N = 2^n)")
    if rate:
        p.add_argument("--rate", type=float, required=True, help="target rate in (0, 1]")
    p.add_argument(
        "--spectrum-cap",
        type=int,
        default=polarcode.DEFAULT_SPECTRUM_CAP,
        help="largest allowed stage count",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polarkit",
        description="channel polarization toolkit: transforms, processes, polar codes",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text):
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        _add_out(p)
        return p

    p = add("channel-info", _cmd_channel_info, "I(W) and Z(W) of a channel")
    p.add_argument("channel", help="bec:<eps>, bsc:<p>, or @file.json")

    p = add("transform", _cmd_transform, "one polarization step of a channel")
    p.add_argument("channel", help="bec:<eps>, bsc:<p>, or @file.json")
    p.add_argument(
        "--merge-tol", type=float, default=1e-12,
        help="relative tolerance on the posteriors of merged outputs",
    )
    p.add_argument("--raw", action="store_true", help="skip merging equivalent outputs")
    p.add_argument(
        "--alphabet-cap",
        type=int,
        default=bdmc.DEFAULT_ALPHABET_CAP,
        help="largest allowed output alphabet",
    )

    p = add("spectrum", _cmd_spectrum, "exact BEC Z values of all synthesized channels")
    _add_code_flags(p, rate=False)

    p = add("construct", _cmd_construct, "build a code spec (JSON)")
    _add_code_flags(p)

    p = add("codec-demo", _cmd_codec_demo, "encode/erase/decode one random message")
    _add_code_flags(p)

    p = add("simulate", _cmd_simulate, "Monte Carlo block error rate (CSV)")
    _add_code_flags(p)
    p.add_argument("--trials", type=int, default=10_000, help="number of trials")
    p.add_argument("--threads", type=int, default=1, help="worker threads (at least 1)")

    p = add("polarize", _cmd_polarize, "sample a process trajectory or its exact law")
    p.add_argument("--z0", type=float, default=0.5, help="starting value in (0, 1)")
    p.add_argument("--n", type=int, required=True, help="number of steps")
    p.add_argument("--rule", choices=sorted(_RULES), default="extremal", help="update rule")
    p.add_argument("--exact", action="store_true", help="emit the exact law instead")
    p.add_argument(
        "--enum-cap", type=int, default=DEFAULT_ENUM_CAP, help="exact enumeration cap"
    )

    for name, func, help_text in (
        ("scaling-direct", _cmd_scaling_direct, "P(Z_n <= 2^(-2^(beta n))) curve (CSV)"),
        ("scaling-converse", _cmd_scaling_converse, "P(Z_n >= 2^(-2^(beta n))) curve (CSV)"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--z0", type=float, default=0.5, help="starting value in (0, 1)")
        p.add_argument("--betas", default="0.45", help="comma-separated beta grid")
        p.add_argument("--ns", default="8,12,16", help="comma-separated n grid")
        p.add_argument("--mode", choices=sorted(_MODES), default="exact", help="evaluation mode")
        p.add_argument("--rule", choices=("extremal", "lower"), default="extremal", help="update rule")
        p.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials")
        p.add_argument(
            "--enum-cap", type=int, default=DEFAULT_ENUM_CAP, help="exact enumeration cap"
        )
        p.add_argument("--threads", type=int, default=1, help="worker threads (at least 1)")
        p.add_argument("--gnuplot", action="store_true", help="also write <out>.gp plot script")

    p = add("bootstrap", _cmd_bootstrap, "interval counting diagnostic (JSON)")
    p.add_argument("--n", type=int, required=True, help="total steps (>= 16)")
    p.add_argument("--beta", type=float, required=True, help="squaring-rate threshold")
    p.add_argument("--z0", type=float, default=0.5, help="starting value in (0, 1)")
    p.add_argument("--rho", type=float, default=7.0 / 8.0, help="qualifying decay rate")
    p.add_argument("--trials", type=int, default=10_000, help="Monte Carlo trials")

    for name in (
        "codec-demo", "simulate", "polarize", "scaling-direct", "scaling-converse", "bootstrap"
    ):
        sub.choices[name].add_argument("--seed", type=_seed, default=0, help="RNG seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        flag = f"; raise it with {exc.flag}" if exc.flag else ""
        print(f"polarkit: resource cap: {exc}{flag}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"polarkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
