"""One benchmark workload in its own process: a closed loop of self-checking passes.

bench/run.py starts this script with polarkit's src/ on PYTHONPATH:

    python3 bench/workloads.py --role run --workload codec --seed 1 --seconds 30

Roles:
  setup  import polarkit, build the workload's inputs, report the time taken;
  run    the same, then repeat passes of the workload until --seconds are
         used, each pass starting when the previous one ends (one client,
         threads=1);
  trace  one traced pass of every workload, plus a threads=2 simulator call
         (the only place threads=2 runs), for the per-module numbers.

Each operation checks its own result; an operation that raises or fails a
check counts as failed.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import traceback
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracles
from spans import Tracer

import polarkit
from polarkit import bdmc, cli, polarcode, scaling, zprocess
from polarkit.scaling import BootstrapConfig, Mode, ScalingConfig
from polarkit.zprocess import Rule

ROOT = Path(__file__).resolve().parent.parent

MIN_PASSES = 3
CHUNK = 1 << 15  # simulate_bler's row chunk; bler calls use whole chunks
# Several chunks per call, as `simulate --trials` runs make them: decoder
# buffers that one chunk leaves to the cycle collector are still held while
# the next chunk runs, so they count in peak RSS.
SIM_CHUNKS = 2
SIM_TRIALS = SIM_CHUNKS * CHUNK

# bler: the README `simulate` shape, K = 430.
BLER_EPS, BLER_N, BLER_RATE = 0.4, 10, 0.42
CLI_SIM_TRIALS = 2048
CLI_SIM_CALLS = 4  # `simulate` commands per pass, for the command's latency
# A 95% interval misses the true rate once in 20 calls, and the benchmark
# makes hundreds, so the [gamma, union bound] overlap is judged at 5 sigma.
OVERLAP_Z = 5.0
WILSON_Z95 = 1.959963984540054

# codec: one long block per operation; channel erasure rates below, at and
# above what the rate-1/2 code corrects, so decodes and failures both occur.
CODEC_EPS, CODEC_N, CODEC_RATE = 0.4, 16, 0.5
ERASURE_MIX = (0.0, 0.3, 0.4, 0.5)
DEMO_N = 10

# curves: z0 = 1/2, EXTREMAL rule, exact laws up to n = 22, Monte Carlo to 40.
Z0 = 0.5
EXACT_NS = (8, 12, 16, 20, 22)
MC_NS = (8, 12, 16, 20, 22, 30, 40)
MC_TRIALS = 100_000
DIRECT_BETAS = (0.3, 0.45)
CONVERSE_BETAS = (0.55, 0.6)  # converse thresholds are informative for beta > 1/2
CLI_NS = (8, 12, 16)
Q_N, Q_TRIALS = 40, 100_000
BOOT_N, BOOT_BETA, BOOT_TRIALS = 100, 0.4, 10_000
DOM_LOW, DOM_HIGH, DOM_N, DOM_SEEDS = 0.3, 0.5, 64, 256
BSC_P, CF_BETA, CF_NS = 0.11, 0.5, (1, 2, 3, 4)
AGREE_SIGMAS = 5.0


def pass_seeds(seed: int, p: int, k: int) -> list[int]:
    """k library seeds for pass p, derived from the workload seed alone."""
    return [int(s) for s in np.random.SeedSequence([seed, p]).generate_state(k)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Recorder:
    """Times operations, counts attempts and failures, tallies checks."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.times: dict[str, list[float]] = defaultdict(list)
        self.pass_time = 0.0

    def op(self, name: str, call, check=None):
        """Run call() as one timed operation, then check(result) untimed.

        check returns (check name, passed) pairs.  Returns call's result, or
        None when call or check raised.
        """
        self.attempted += 1
        traced = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        quiet = self.tracer.pause() if self.tracer else contextlib.nullcontext()
        try:
            t0 = time.perf_counter()
            with traced:
                result = call()
            elapsed = time.perf_counter() - t0
            with quiet:
                outcomes = list(check(result)) if check else []
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.checks[f"{name}.completes"][1] += 1
            return None
        self.times[name].append(elapsed)
        self.pass_time += elapsed
        for check_name, passed in outcomes:
            self.checks[check_name][0] += bool(passed)
            self.checks[check_name][1] += 1
        bad = [c for c, passed in outcomes if not passed]
        if bad:
            self.failed += 1
            print(f"{name}: failed checks {bad}", file=sys.stderr)
        return result


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Bler:
    """Many short blocks through the batched decoder, the RNG and the encoder."""

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = polarcode.construct(BLER_EPS, BLER_N, BLER_RATE)
        self.last_sim = (None, None)

    def run_pass(self, rec: Recorder, p: int) -> None:
        sim_seed, *cli_seeds = pass_seeds(self.seed, p, 1 + CLI_SIM_CALLS)
        result = rec.op(
            "simulate_bler",
            lambda: polarcode.simulate_bler(self.spec, BLER_EPS, SIM_TRIALS, sim_seed,
                                            threads=1),
            lambda r: self.check_result(r, SIM_TRIALS),
        )
        self.last_sim = (sim_seed, result)
        for cli_seed in cli_seeds:
            argv = ["simulate", "--eps", repr(BLER_EPS), "--n", str(BLER_N),
                    "--rate", repr(BLER_RATE), "--trials", str(CLI_SIM_TRIALS),
                    "--seed", str(cli_seed)]
            rec.op("cli.simulate", lambda: run_cli(argv),
                   lambda out: self.check_cli(out, cli_seed))

    def check_result(self, r, trials: int):
        lo, hi = oracles.wilson(r.failures, trials, WILSON_Z95)
        wide_lo, wide_hi = oracles.wilson(r.failures, trials, OVERLAP_Z)
        return [
            ("bler.counts_consistent",
             r.trials == trials and 0 <= r.failures <= trials and r.bler == r.failures / trials),
            ("bler.wilson95_matches_reference",
             abs(r.ci_low - lo) <= 1e-12 and abs(r.ci_high - hi) <= 1e-12),
            # On the BEC, max Z_i <= BLER <= sum of Z_i over the information set.
            ("bler.interval_meets_gamma_union_bound",
             wide_lo <= self.spec.union_bound and wide_hi >= self.spec.gamma),
        ]

    def check_cli(self, out, cli_seed: int):
        rc, text = out
        lib = polarcode.simulate_bler(self.spec, BLER_EPS, CLI_SIM_TRIALS, cli_seed)
        expected = (f"{lib.trials},{lib.failures},{lib.bler!r},"
                    f"{lib.ci_low!r},{lib.ci_high!r}")
        lines = text.splitlines()
        return [
            ("cli.exit_code_zero", rc == 0),
            ("cli.simulate_matches_library",
             len(lines) == 3 and lines[0].startswith(f"# seed={cli_seed} ")
             and lines[2] == expected),
        ]

    def thread_check(self, rec: Recorder) -> int:
        """Repeat the last pass's threads=1 call at threads=2: same failures.

        Returns the number of objects the threads=2 call left to the cycle
        collector, which holds their memory until it runs.
        """
        seed, one = self.last_sim
        gc.collect()
        rec.op(
            "simulate_bler.threads2",
            lambda: polarcode.simulate_bler(self.spec, BLER_EPS, SIM_TRIALS, seed, threads=2),
            lambda r: self.check_result(r, SIM_TRIALS)
            + [("bler.failures_same_at_threads_1_and_2",
                one is not None and r.failures == one.failures)],
        )
        return gc.collect()

    def metrics(self, rec: Recorder) -> tuple[dict, dict]:
        sims, clis = rec.times["simulate_bler"], rec.times["cli.simulate"]
        return (
            {"op_ms": statistics.median(clis) * 1e3,
             "work_per_s": SIM_TRIALS * len(sims) / sum(sims)},
            {"cli_simulate_samples": len(clis), "simulate_bler_calls": len(sims)},
        )


class Codec:
    """One long block per operation: the per-node recursion of the SC decoder."""

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = polarcode.construct(CODEC_EPS, CODEC_N, CODEC_RATE)
        self.demo_spec = polarcode.construct(CODEC_EPS, DEMO_N, CODEC_RATE)
        self.decodes = 0
        self.decode_failures = 0

    def run_pass(self, rec: Recorder, p: int) -> None:
        seeds = pass_seeds(self.seed, p, len(ERASURE_MIX) + 1)
        for eps, s in zip(ERASURE_MIX, seeds):
            rng = np.random.default_rng(s)
            message = rng.integers(0, 2, size=self.spec.k, dtype=np.uint8)
            erased = rng.random(self.spec.block_length) < eps
            out = rec.op(
                "block",
                lambda: self.block(message, erased),
                lambda out: self.check_block(self.spec, message, erased, *out),
            )
            if out is not None:
                self.decodes += 1
                self.decode_failures += out[1] is None
        argv = ["codec-demo", "--eps", repr(CODEC_EPS), "--n", str(DEMO_N),
                "--rate", repr(CODEC_RATE), "--seed", str(seeds[-1])]
        rec.op("cli.codec_demo", lambda: run_cli(argv), self.check_demo)

    def block(self, message, erased):
        codeword = polarcode.encode(self.spec, message)
        received = np.where(erased, np.int8(polarcode.ERASED), codeword.astype(np.int8))
        return codeword, polarcode.sc_decode_bec(self.spec, received)

    def check_block(self, spec, message, erased, codeword, decoded):
        should_fail = bool(oracles.erasure_flags(erased)[spec.info_set].any())
        u = oracles.embed(spec.info_set, spec.block_length, message, spec.frozen_value)
        return [
            ("codec.encode_matches_reference", np.array_equal(codeword, oracles.encode(u))),
            ("codec.fails_iff_oracle_flags_an_info_index", (decoded is None) == should_fail),
            ("codec.decode_returns_message",
             decoded is None or np.array_equal(decoded, message)),
        ]

    def check_demo(self, out):
        rc, text = out
        d = json.loads(text)
        received = np.asarray(d["received"], dtype=np.int8)
        codeword = np.asarray(d["codeword"], dtype=np.uint8)
        erased = received == polarcode.ERASED
        decoded = None if d["decoded"] is None else np.asarray(d["decoded"], dtype=np.uint8)
        message = np.asarray(d["message"], dtype=np.uint8)
        checks = self.check_block(self.demo_spec, message, erased, codeword, decoded)
        return [(f"cli.codec_demo.{name.split('.', 1)[1]}", ok) for name, ok in checks] + [
            ("cli.exit_code_zero", rc == 0),
            ("cli.codec_demo.channel_keeps_unerased_symbols",
             np.array_equal(received[~erased], codeword[~erased])),
            ("cli.codec_demo.ok_flag", d["ok"] == (decoded is not None)),
        ]

    def metrics(self, rec: Recorder) -> tuple[dict, dict]:
        blocks = rec.times["block"]
        return (
            {"op_ms": statistics.median(blocks) * 1e3, "work_per_s": len(blocks) / sum(blocks)},
            {"block_samples": len(blocks),
             "decode_failures": f"{self.decode_failures}/{self.decodes}"},
        )


class Curves:
    """Rate-of-polarization experiments: exact laws, Monte Carlo paths, bdmc.  No polarcode."""

    def __init__(self, seed: int):
        self.seed = seed
        self.direct_exact = ScalingConfig(z0=Z0, beta_grid=DIRECT_BETAS, n_grid=EXACT_NS)
        self.converse_exact = ScalingConfig(z0=Z0, beta_grid=CONVERSE_BETAS, n_grid=EXACT_NS)
        self.bsc = bdmc.bsc(BSC_P)
        self.bootstrap = BootstrapConfig(n=BOOT_N, beta=BOOT_BETA, z0=Z0)
        self.mass_above_one = math.nan
        self.atoms = 0

    def mc(self, betas, seed: int) -> ScalingConfig:
        return ScalingConfig(z0=Z0, beta_grid=betas, n_grid=MC_NS,
                             mode=Mode.MONTE_CARLO, trials=MC_TRIALS, seed=seed)

    def run_pass(self, rec: Recorder, p: int) -> None:
        s = pass_seeds(self.seed, p, 5)
        direct = rec.op("direct_curve.exact", lambda: scaling.direct_curve(self.direct_exact),
                        self.check_direct_exact)
        rec.op("converse_curve.exact", lambda: scaling.converse_curve(self.converse_exact),
               self.check_converse_exact)
        rec.op("exact_distribution",
               lambda: zprocess.exact_distribution(Z0, max(EXACT_NS), Rule.EXTREMAL),
               self.check_law)
        rec.op("direct_curve.mc", lambda: scaling.direct_curve(self.mc(DIRECT_BETAS, s[0])),
               lambda rows: self.check_direct_mc(rows, direct))
        rec.op("converse_curve.mc", lambda: scaling.converse_curve(self.mc(CONVERSE_BETAS, s[1])),
               self.check_converse_mc)
        rec.op("q_halfmoment", lambda: zprocess.q_halfmoment(Z0, Q_N, Q_TRIALS, s[2]),
               lambda r: [("curves.q_halfmoment_within_hajek_bound",
                           0.0 < r[0] <= oracles.hajek_bound(Q_N) + AGREE_SIGMAS * r[1])])
        rec.op("bootstrap_diagnostic",
               lambda: scaling.bootstrap_diagnostic(self.bootstrap, BOOT_TRIALS, s[3]),
               lambda r: [("curves.bootstrap_no_log_bound_violations", r.log_bound_violations == 0),
                          ("curves.bootstrap_no_domination_violations", r.domination_violations == 0)])
        dom_seeds = [s[4] + i for i in range(DOM_SEEDS)]
        rec.op("domination_check",
               lambda: [zprocess.domination_check(DOM_LOW, DOM_HIGH, DOM_N, d) for d in dom_seeds],
               lambda oks: [("curves.domination_check_true", all(oks))])
        rec.op("channel_form", lambda: scaling.channel_form(self.bsc, CF_BETA, CF_NS),
               self.check_channel_form)
        argv = ["scaling-direct", "--z0", repr(Z0),
                "--betas", ",".join(map(repr, DIRECT_BETAS)),
                "--ns", ",".join(map(str, CLI_NS))]
        rec.op("cli.scaling_direct", lambda: run_cli(argv),
               lambda out: self.check_cli(out, direct))

    @staticmethod
    def check_direct_exact(rows):
        return [("curves.direct_exact_rows",
                 len(rows) == len(EXACT_NS) * len(DIRECT_BETAS)
                 and all(0.0 <= r.probability <= 1.0 and r.bound == 1.0 - Z0 for r in rows))]

    @staticmethod
    def check_converse_exact(rows):
        return [
            ("curves.converse_bound_matches_binomial",
             all(abs(r.bound - oracles.converse_binomial(Z0, r.n, r.beta)) <= 1e-15 for r in rows)),
            ("curves.exact_converse_at_least_binomial",
             len(rows) == len(EXACT_NS) * len(CONVERSE_BETAS)
             and all(r.probability >= r.bound for r in rows)),
        ]

    def check_law(self, law):
        # The upper-tail defect (atoms at z >= 1) is reported, not gated.
        self.mass_above_one = law.sf_at_log2(0.0)
        self.atoms = law.size
        return [
            ("curves.exact_mass_is_one", math.fsum(law.probs) == 1.0),
            ("curves.exact_atoms_sorted_distinct", bool(np.all(np.diff(law.log2_values) > 0))),
        ]

    @staticmethod
    def check_direct_mc(rows, exact):
        by_key = {(r.n, r.beta): r.probability for r in exact or []}
        shared = [r for r in rows if (r.n, r.beta) in by_key]
        def agrees(r):
            p = by_key[(r.n, r.beta)]
            return abs(r.probability - p) <= AGREE_SIGMAS * math.sqrt(p * (1.0 - p) / MC_TRIALS)
        return [("curves.mc_direct_agrees_with_exact",
                 len(shared) == len(EXACT_NS) * len(DIRECT_BETAS) and all(map(agrees, shared)))]

    @staticmethod
    def check_converse_mc(rows):
        return [("curves.mc_converse_at_least_binomial",
                 len(rows) == len(MC_NS) * len(CONVERSE_BETAS)
                 and all(r.probability >= r.bound - AGREE_SIGMAS * r.stderr for r in rows))]

    def check_channel_form(self, rows):
        h = -BSC_P * math.log2(BSC_P) - (1 - BSC_P) * math.log2(1 - BSC_P)
        capacity = 1.0 - h
        conserved, fractions = True, True
        for row in rows:
            chans = scaling.synthesized_channels(self.bsc, row.n)
            conserved &= abs(np.mean([bdmc.symmetric_capacity(c) for c in chans]) - capacity) <= 1e-9
            zs = np.array([bdmc.bhattacharyya(c) for c in chans])
            fractions &= row.probability == float(np.mean(np.log2(zs) <= row.threshold_log2))
        return [
            ("curves.channel_form_rows",
             [r.n for r in rows] == list(CF_NS) and all(abs(r.bound - capacity) <= 1e-12 for r in rows)),
            ("curves.bsc_capacity_conserved", conserved),
            ("curves.channel_form_matches_synthesized_z", fractions),
        ]

    @staticmethod
    def check_cli(out, exact):
        rc, text = out
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        expected = ["n,beta,threshold_log2,probability,bound,stderr"] + [
            f"{r.n},{r.beta!r},{r.threshold_log2!r},{r.probability!r},{r.bound!r},{r.stderr!r}"
            for r in exact or [] if r.n in CLI_NS
        ]
        return [("cli.exit_code_zero", rc == 0),
                ("cli.scaling_direct_matches_library", lines == expected)]

    def metrics(self, rec: Recorder) -> tuple[dict, dict]:
        exact = [a + b for a, b in zip(rec.times["direct_curve.exact"],
                                       rec.times["converse_curve.exact"])]
        mc = rec.times["direct_curve.mc"] + rec.times["converse_curve.mc"]
        steps_per_s = MC_TRIALS * max(MC_NS) * len(mc) / sum(mc)
        return (
            {"op_ms": statistics.median(exact) * 1e3, "work_per_s": steps_per_s},
            {"exact_curves_samples": len(exact),
             "exact_atoms_n22": self.atoms,
             "exact_mass_above_one": self.mass_above_one},
        )


WORKLOADS = {"bler": Bler, "codec": Codec, "curves": Curves}


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

def run_passes(workload, rec: Recorder, seconds: float) -> list[float]:
    """Closed loop: the next pass starts when the previous one ends."""
    start = time.perf_counter()
    pass_s, spent = [], []
    p = 0
    while True:
        # Memory that reference cycles of earlier passes hold is freed first,
        # so peak RSS is one pass's peak whatever the number of passes.
        gc.collect()
        t0 = time.perf_counter()
        rec.pass_time = 0.0
        workload.run_pass(rec, p)
        p += 1
        pass_s.append(rec.pass_time)
        spent.append(time.perf_counter() - t0)
        # Stop when another pass of typical length would overrun the budget.
        if p >= MIN_PASSES and time.perf_counter() - start + statistics.median(spent) > seconds:
            return pass_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def role_run(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name](seed)
    setup_s = time.perf_counter() - T0
    rec = Recorder()
    pass_s = run_passes(workload, rec, seconds)
    metrics, notes = workload.metrics(rec)
    metrics.update(wall_s=statistics.median(pass_s), peak_rss_mb=peak_rss_mb())
    notes.update(passes=len(pass_s),
                 ops_failed_frac=rec.failed / rec.attempted)
    return {"setup_s": setup_s, "attempted": rec.attempted, "failed": rec.failed,
            "checks": dict(rec.checks), "metrics": metrics, "notes": notes}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each module that the workloads reach."""
    def mode(kind):
        return lambda args, kwargs: (
            f"scaling.{kind}_{'exact' if args[0].mode is Mode.EXACT else 'mc'}")
    tracer.wrap(bdmc, "polar_transform", count=lambda r: max(len(r.minus), len(r.plus)))
    tracer.wrap(bdmc, "merge_equivalent_outputs", count=len)
    tracer.wrap(bdmc, "symmetric_capacity")
    tracer.wrap(bdmc, "bhattacharyya")
    tracer.wrap(zprocess, "exact_distribution", count=lambda r: r.size)
    tracer.wrap(zprocess, "converse_binomial")
    tracer.wrap(zprocess, "q_halfmoment")
    tracer.wrap(zprocess, "domination_check")
    tracer.wrap(zprocess, "walk", count=lambda r: len(r) - 1)
    tracer.wrap(polarcode, "construct")
    tracer.wrap(polarcode, "encode")
    tracer.wrap(polarcode, "sc_decode_bec", count=lambda r: int(r is not None))
    tracer.wrap(polarcode, "simulate_bler", count=lambda r: r.failures)
    tracer.wrap(scaling, "direct_curve", label=mode("direct_curve"))
    tracer.wrap(scaling, "converse_curve", label=mode("converse_curve"))
    tracer.wrap(scaling, "channel_form")
    tracer.wrap(scaling, "bootstrap_diagnostic")
    tracer.wrap(cli, "main")


def layer_metrics(traced: dict) -> dict:
    """Per-module numbers from each workload's traced pass; `_s` values are self time."""
    def total(spans, name):
        return sum(spans[name]["self_s"])

    def median_ms(spans, name):
        return statistics.median(spans[name]["self_s"]) * 1e3

    curves_tracer, _, curves_wall, _ = traced["curves"]
    curves = curves_tracer.by_name()
    blocks = traced["codec"][0].by_name(root="block")
    bler = traced["bler"][0]
    sim = bler.by_name(root="simulate_bler")["polarcode.simulate_bler"]
    t2 = total(bler.by_name(root="simulate_bler.threads2"), "polarcode.simulate_bler")
    bdmc_s = sum(total(curves, k) for k in curves if k.startswith("bdmc."))
    walks = curves["zprocess.walk"]
    decodes = blocks["polarcode.sc_decode_bec"]
    n_log_n = (1 << CODEC_N) * CODEC_N
    return {
        "bdmc.polar_transform_s": total(curves, "bdmc.polar_transform"),
        "bdmc.merge_equivalent_outputs_s": total(curves, "bdmc.merge_equivalent_outputs"),
        "bdmc.max_outputs": max(curves["bdmc.polar_transform"]["counts"]
                                + curves["bdmc.merge_equivalent_outputs"]["counts"]),
        "bdmc.curves_wall_share": bdmc_s / curves_wall,
        "zprocess.exact_distribution_s": total(curves, "zprocess.exact_distribution"),
        "zprocess.exact_distribution_calls": len(curves["zprocess.exact_distribution"]["self_s"]),
        "zprocess.exact_atoms": max(curves["zprocess.exact_distribution"]["counts"]),
        "zprocess.exact_mass_above_one": traced["curves"][1].mass_above_one,
        "zprocess.converse_binomial_s": total(curves, "zprocess.converse_binomial"),
        "zprocess.q_halfmoment_s": total(curves, "zprocess.q_halfmoment"),
        "zprocess.walk_steps_per_s": sum(walks["counts"]) / sum(walks["self_s"]),
        "zprocess.domination_check_s": total(curves, "zprocess.domination_check"),
        "polarcode.encode_ms": median_ms(blocks, "polarcode.encode"),
        "polarcode.sc_decode_bec_ms": median_ms(blocks, "polarcode.sc_decode_bec"),
        "polarcode.decode_ns_per_nlogn":
            median_ms(blocks, "polarcode.sc_decode_bec") * 1e6 / n_log_n,
        "polarcode.decode_success_frac": sum(decodes["counts"]) / len(decodes["counts"]),
        "polarcode.simulate_bler_s": sum(sim["self_s"]),
        "polarcode.simulate_bler_failures": sum(sim["counts"]),
        "polarcode.simulate_bler_threads2_speedup": sum(sim["self_s"]) / t2,
        "polarcode.construct_s": sum(
            total(traced[w][0].by_name(root="setup"), "polarcode.construct")
            for w in ("bler", "codec")),
        "scaling.direct_curve_exact_s": total(curves, "scaling.direct_curve_exact"),
        "scaling.converse_curve_exact_s": total(curves, "scaling.converse_curve_exact"),
        "scaling.direct_curve_mc_s": total(curves, "scaling.direct_curve_mc"),
        "scaling.converse_curve_mc_s": total(curves, "scaling.converse_curve_mc"),
        "scaling.channel_form_s": total(curves, "scaling.channel_form"),
        "scaling.bootstrap_diagnostic_s": total(curves, "scaling.bootstrap_diagnostic"),
        "cli.main_s": sum(total(t.by_name(), "cli.main") for t, *_ in traced.values()),
    }


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds that one traced call adds to a call of a function that does nothing."""
    probe = types.ModuleType("polarkit.span_probe")
    probe.noop = lambda: None
    sys.modules[probe.__name__] = probe
    tracer = Tracer()
    try:
        costs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                probe.noop()
            bare = time.perf_counter() - t0
            tracer.wrap(probe, "noop")
            t0 = time.perf_counter()
            for _ in range(calls):
                probe.noop()
            costs.append((time.perf_counter() - t0 - bare) / calls)
            tracer.close()
            tracer.spans.clear()
    finally:
        del sys.modules[probe.__name__]
    return statistics.median(costs)


def role_trace(name: str, seed: int) -> dict:
    traced, recorders = {}, []
    for wname, cls in WORKLOADS.items():
        tracer = Tracer()
        install(tracer)
        try:
            rec = Recorder(tracer)
            with tracer.span("setup"):
                workload = cls(seed)
            gc.collect()
            first = len(tracer.spans)
            workload.run_pass(rec, 0)
            wall, spans = rec.pass_time, len(tracer.spans) - first
            if wname == "bler":
                garbage = workload.thread_check(rec)
        finally:
            tracer.close()
        traced[wname] = (tracer, workload, wall, spans)
        recorders.append(rec)
    metrics = layer_metrics(traced)
    metrics["polarcode.simulate_bler_cycle_garbage"] = garbage
    # The overhead is the spans --workload's traced pass recorded times the
    # cost of one span: a difference of two whole passes would be mostly the
    # host's run-to-run noise.
    pass_spans = traced[name][3]
    per_span = span_cost_s()
    metrics["trace.overhead_s"] = pass_spans * per_span
    checks = defaultdict(lambda: [0, 0])
    for rec in recorders:
        for check_name, (passed, total) in rec.checks.items():
            checks[check_name][0] += passed
            checks[check_name][1] += total
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    return {"attempted": attempted, "failed": failed, "checks": dict(checks),
            "metrics": metrics,
            "notes": {"spans": sum(len(t.spans) for t, *_ in traced.values()),
                      f"{name}.traced_pass_spans": pass_spans,
                      "span_cost_us": per_span * 1e6,
                      f"{name}.traced_wall_s": traced[name][2],
                      "ops_failed_frac": failed / attempted}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    if Path(polarkit.__file__).resolve().parent != ROOT / "src" / "polarkit":
        print(f"polarkit was imported from {polarkit.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    if args.role == "setup":
        WORKLOADS[args.workload](args.seed)
        result = {"setup_s": time.perf_counter() - T0}
    elif args.role == "run":
        result = role_run(args.workload, args.seed, args.seconds)
    else:
        result = role_trace(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
