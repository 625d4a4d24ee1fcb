"""Command-line front end.

One binary with subcommands; CSV for tables (all written by _table), JSON
for single objects.  Each subcommand returns its complete output text, and
main writes it once, to stdout or to --out.  Every randomized subcommand
takes --seed (default 0) and echoes it in its output, so runs are
reproducible from the flag set alone.  Exit codes: 0 success, 1 usage error,
2 resource-cap error (the message names the flag that raises the cap).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


def _parse_list(text: str, kind) -> tuple:
    return tuple(kind(v) for v in text.split(",") if v.strip())


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _table(comment: str, header: str, rows) -> str:
    """One `# ` comment line, the header, then one line per row: a tuple of
    Python scalars, one per header column, by repr, which round-trips floats
    (numpy 2 prints np.float64(...)).  Rows may be lazy: each line goes into
    the buffer as it is made."""
    line = ",".join(["%r"] * len(header.split(","))) + "\n"
    buf = io.StringIO()
    buf.write(f"# {comment}\n{header}\n")
    buf.writelines(map(line.__mod__, rows))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands: each returns its complete output text
# ---------------------------------------------------------------------------

def _cmd_channel_info(args) -> str:
    ch = _parse_channel(args.channel)
    bdmc.validate(ch)
    return json.dumps({"I": bdmc.symmetric_capacity(ch), "Z": bdmc.bhattacharyya(ch)}) + "\n"


def _cmd_transform(args) -> str:
    ch = _parse_channel(args.channel)
    bdmc.validate(ch)
    pair = bdmc.polar_transform(ch, alphabet_cap=args.alphabet_cap)
    halves = {}
    for name, raw in (("minus", pair.minus), ("plus", pair.plus)):
        merged = raw if args.raw else bdmc.merge_equivalent_outputs(raw, args.merge_tol)
        halves[name] = {
            "I": bdmc.symmetric_capacity(merged),
            "Z": bdmc.bhattacharyya(merged),
            "outputs": len(merged),
        }
    return json.dumps(halves) + "\n"


def _cmd_spectrum(args) -> str:
    z = polarcode.bec_z_spectrum(args.eps, args.n, cap=args.spectrum_cap)
    return _table(f"eps={args.eps!r} n={args.n}", "index,z", enumerate(map(float, z)))


def _cmd_construct(args) -> str:
    spec = polarcode.construct(args.eps, args.n, args.rate, cap=args.spectrum_cap)
    return json.dumps({
        "n": spec.n,
        "eps": spec.eps,
        "rate": spec.rate,
        "info_set": spec.info_set.tolist(),
        "gamma": spec.gamma,
        "union_bound": spec.union_bound,
    }) + "\n"


def _cmd_codec_demo(args) -> str:
    spec = polarcode.construct(args.eps, args.n, args.rate, cap=args.spectrum_cap)
    rng = np.random.default_rng(args.seed)
    message = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
    codeword = polarcode.encode(spec, message)
    erased = rng.random(spec.block_length) < args.eps
    received = np.where(erased, np.int8(polarcode.ERASED), codeword.astype(np.int8))
    decoded = polarcode.sc_decode_bec(spec, received)
    return json.dumps({
        "seed": args.seed,
        "eps": args.eps,
        "n": args.n,
        "rate": spec.rate,
        "message": message.tolist(),
        "codeword": codeword.tolist(),
        "received": received.tolist(),
        "decoded": None if decoded is None else decoded.tolist(),
        "ok": decoded is not None and bool(np.array_equal(decoded, message)),
    }) + "\n"


def _cmd_simulate(args) -> str:
    spec = polarcode.construct(args.eps, args.n, args.rate, cap=args.spectrum_cap)
    result = polarcode.simulate_bler(
        spec, args.eps, args.trials, args.seed, threads=args.threads
    )
    return _table(
        f"seed={args.seed} eps={args.eps!r} n={args.n} rate={spec.rate!r}",
        "trial_count,failures,bler,ci_low,ci_high",
        [dataclasses.astuple(result)],
    )


def _cmd_polarize(args) -> str:
    rule = _RULES[args.rule]
    comment = f"z0={args.z0!r} n={args.n} rule={rule.value}"
    if args.exact:
        d = exact_distribution(args.z0, args.n, rule, cap=args.enum_cap)
        rows = zip(map(float, d.values), map(float, d.probs), map(float, d.log2_values))
        return _table(comment, "value,prob,log2_value", rows)
    states = sample_path(args.z0, args.n, rule, args.seed)
    rows = [(i, s.log_z, s.log_1mz, s.value) for i, s in enumerate(states)]
    return _table(f"{comment} seed={args.seed}", "step,log2_z,log2_1mz,z", rows)


_CURVE_HEADER = "n,beta,threshold_log2,probability,bound,stderr"


def _gnuplot_script(csv_path: str, title: str) -> str:
    """A plot script for a curve CSV: probability and bound against n."""
    p, b = (_CURVE_HEADER.split(",").index(name) + 1 for name in ("probability", "bound"))
    return (
        'set datafile separator ","\n'
        'set datafile commentschars "#"\n'
        f'set title "{title}"\n'
        'set xlabel "n"\n'
        'set ylabel "probability"\n'
        "set yrange [0:1]\n"
        "set key left top\n"
        f'plot "{csv_path}" every ::1 using 1:{p} with linespoints title "probability", \\\n'
        f'     "{csv_path}" every ::1 using 1:{b} with lines title "bound"\n'
    )


def _cmd_curve(args) -> str:
    """scaling-direct or scaling-converse, by args.command."""
    if args.gnuplot and not args.out:
        raise ValueError("--gnuplot needs --out to name the CSV it plots")
    kind = args.command.removeprefix("scaling-")
    cfg = ScalingConfig(
        z0=args.z0,
        beta_grid=_parse_list(args.betas, float),
        n_grid=_parse_list(args.ns, int),
        mode=_MODES[args.mode],
        trials=args.trials,
        seed=args.seed,
        rule=_RULES[args.rule],
        enum_cap=args.enum_cap,
        threads=args.threads,
    )
    rows = getattr(scaling, f"{kind}_curve")(cfg)  # direct_curve or converse_curve
    if args.gnuplot:
        with open(args.out + ".gp", "w", encoding="utf-8") as fp:
            fp.write(_gnuplot_script(args.out, title=kind))
    return _table(
        f"{kind} z0={args.z0!r} mode={args.mode} rule={args.rule} "
        f"trials={args.trials} seed={args.seed}",
        _CURVE_HEADER,
        map(dataclasses.astuple, rows),
    )


def _cmd_bootstrap(args) -> str:
    cfg = BootstrapConfig(n=args.n, beta=args.beta, z0=args.z0, rho=args.rho)
    report = scaling.bootstrap_diagnostic(cfg, args.trials, args.seed)
    return json.dumps(report.to_json_dict()) + "\n"


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process (parse_args
    returns a fresh Namespace on each call)."""
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
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
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

    for name, help_text in (
        ("scaling-direct", "P(Z_n <= 2^(-2^(beta n))) curve (CSV)"),
        ("scaling-converse", "P(Z_n >= 2^(-2^(beta n))) curve (CSV)"),
    ):
        p = add(name, _cmd_curve, help_text)
        p.add_argument("--z0", type=float, default=0.5, help="starting value in (0, 1)")
        p.add_argument("--betas", default="0.45", help="comma-separated beta grid")
        p.add_argument("--ns", default="8,12,16", help="comma-separated n grid")
        p.add_argument("--mode", choices=sorted(_MODES), default="exact", help="evaluation mode")
        p.add_argument("--rule", choices=("extremal", "lower"), default="extremal", help="update rule")
        p.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials")
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
    for name in ("polarize", "scaling-direct", "scaling-converse"):
        sub.choices[name].add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                                       help="most children one exact-law level may allocate (at least 1)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
                fp.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ResourceCapError as exc:
        flag = f"; raise it with {exc.flag}" if exc.flag else ""
        print(f"polarkit: resource cap: {exc}{flag}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"polarkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
