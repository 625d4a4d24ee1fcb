"""Byte-level pins of results for fixed seeds.

Each case runs one fast CLI command in process (or one library call whose
rows the CLI does not expose) and compares the SHA-256 of its output with a
recorded value.  Refactors must leave these bytes unchanged; a change that
alters a random stream on purpose updates the hash and says so in
CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import types

import pytest

import polarkit
from polarkit import bdmc, scaling
from polarkit.cli import build_parser, main

CLI_CASES = {
    "direct-exact-unsorted": [
        "scaling-direct", "--z0", "0.5", "--betas", "0.3,0.45", "--ns", "16,8,12,8",
    ],
    "direct-exact-lower": [
        "scaling-direct", "--z0", "0.3", "--betas", "0.5", "--ns", "6,14", "--rule", "lower",
    ],
    "converse-exact": [
        "scaling-converse", "--z0", "0.5", "--betas", "0.55,0.7", "--ns", "4,10,14",
    ],
    # EXTREMAL grids whose 2^max(n) branch words pass the atom budget merge atoms
    "direct-exact-merged": [
        "scaling-direct", "--z0", "0.5", "--betas", "0.3,0.45", "--ns", "8,12,16",
        "--enum-cap", "65535",
    ],
    "converse-exact-merged": [
        "scaling-converse", "--z0", "0.5", "--betas", "0.55,0.7", "--ns", "8,12,16",
        "--enum-cap", "65535",
    ],
    "converse-exact-merged-unsorted": [
        "scaling-converse", "--z0", "0.3", "--betas", "0.55,0.7", "--ns", "6,20,14",
        "--enum-cap", "1048575",
    ],
    "direct-mc": [
        "scaling-direct", "--z0", "0.5", "--betas", "0.3,0.45", "--ns", "10,20,40",
        "--mode", "mc", "--trials", "40000", "--seed", "3",
    ],
    "converse-mc-unsorted-threads2": [
        "scaling-converse", "--z0", "0.5", "--betas", "0.55,0.7", "--ns", "40,0,20",
        "--mode", "mc", "--trials", "40000", "--seed", "5", "--threads", "2",
    ],
    "direct-mc-lower": [
        "scaling-direct", "--rule", "lower", "--mode", "mc", "--z0", "0.3", "--betas", "0.3,0.45",
        "--ns", "12,40", "--trials", "20000", "--seed", "2",
    ],
    "converse-mc-lower-threads2": [
        "scaling-converse", "--rule", "lower", "--mode", "mc", "--z0", "0.5", "--betas", "0.55,0.7",
        "--ns", "0,10,40,160", "--trials", "40000", "--seed", "8", "--threads", "2",
    ],
    "direct-mc-lower-past-double-range": [
        "scaling-direct", "--rule", "lower", "--mode", "mc", "--z0", "0.5", "--betas", "0.3,0.48",
        "--ns", "40,2100", "--trials", "3000", "--seed", "1",
    ],
    "converse-mc-deep": [
        "scaling-converse", "--mode", "mc", "--betas", "0.55,0.6", "--ns", "64,160",
        "--trials", "20000", "--seed", "6",
    ],
    "direct-mc-near-one": [
        "scaling-direct", "--mode", "mc", "--z0", "0.999999", "--betas", "0.3,0.5",
        "--ns", "100,1100,2000", "--trials", "20000", "--seed", "3",
    ],
    "converse-mc-deep-start": [
        "scaling-converse", "--mode", "mc", "--z0", "1e-300", "--betas", "0.55",
        "--ns", "64,160,1000", "--trials", "20000", "--seed", "6",
    ],
    "simulate-threads1": [
        "simulate", "--eps", "0.4", "--n", "6", "--rate", "0.42", "--trials", "40000",
        "--seed", "1", "--threads", "1",
    ],
    "simulate-threads2": [
        "simulate", "--eps", "0.4", "--n", "6", "--rate", "0.42", "--trials", "40000",
        "--seed", "1", "--threads", "2",
    ],
    "simulate-n12-threads1": [
        "simulate", "--eps", "0.4", "--n", "12", "--rate", "0.5", "--trials", "10000",
        "--seed", "1", "--threads", "1",
    ],
    "simulate-n12-threads2": [
        "simulate", "--eps", "0.4", "--n", "12", "--rate", "0.5", "--trials", "10000",
        "--seed", "1", "--threads", "2",
    ],
    "polarize-path": ["polarize", "--z0", "0.5", "--n", "40", "--rule", "extremal", "--seed", "7"],
    "polarize-exact": ["polarize", "--z0", "0.3", "--n", "12", "--exact"],
    "codec-demo": ["codec-demo", "--eps", "0.2", "--n", "4", "--rate", "0.5", "--seed", "3"],
    "codec-demo-fails": [
        "codec-demo", "--eps", "0.5", "--n", "8", "--rate", "0.5", "--seed", "1",
    ],
    "construct": ["construct", "--eps", "0.4", "--n", "10", "--rate", "0.42"],
    "spectrum": ["spectrum", "--eps", "0.5", "--n", "6"],
    "bootstrap": [
        "bootstrap", "--n", "100", "--beta", "0.4", "--trials", "2000", "--seed", "4",
    ],
    "channel-info": ["channel-info", "bsc:0.11"],
    "transform": ["transform", "bec:0.3"],
    "transform-raw": ["transform", "bsc:0.11", "--raw"],
}

LIBRARY_CASES = {
    "channel-form-bec-exact": lambda: scaling.channel_form(bdmc.bec(0.3), 0.4, (12, 4, 8)),
    "channel-form-bsc": lambda: scaling.channel_form(bdmc.bsc(0.11), 0.4, (4, 0, 2)),
}

HASHES = {
    "bootstrap": "6028b6583089a9c34f4d45f2ce248a86212a7f20fc64e5d4651c0cae1a5410e1",
    "channel-info": "03c8b409769d6ef5d0892606158357749e431e4c5f19c033cc60bf1232a6f1de",
    "channel-form-bec-exact": "d556a923c4d2e9d2072d11039bd33b8c89715501c983420801c73870ea7aa083",
    "channel-form-bsc": "17b46a8c20f84533bafdf5afc6ebf973e44cabad9a55b2840ce8ce7fcffd52ac",
    "codec-demo": "17ac907267e1e165ad34f6b94b7b92e64ec96f976e28cd58f6dd05e3c3a2398e",
    "codec-demo-fails": "1b080f2b948929d9b31e57cb4eff17d5eaa1474ea0650719f20457ca90ddb66a",
    "construct": "510c36220d1c1678a1f414b1e3ac77c33f0648e0f6be79c0b8c9dba41f92db46",
    "converse-exact": "2238b3aeb2677004a1ee0f0a9970acaccc8f5f969a0679f99bf99e762d8d5502",
    "converse-exact-merged": "af029b5c515cd350380128b4775546420be4d83794d1bd1a0401a8617af725fd",
    "converse-exact-merged-unsorted": "d3e4bc015bbd06cb0cd275217bf261175c906dec086f4f2cbba9b596a5201c2b",
    "converse-mc-deep": "2a9a83e8980a6641ea9c933472de8b6354c1efc73ab60af38595999e04d96b08",
    "converse-mc-deep-start": "3e4461c467537ab81e53a1261bc70ab4f3eca621ecbe463dbb46fb2faff2a9da",
    "converse-mc-lower-threads2": "c1515552439d32db68512f4bc7f32bf07814db18b9fac697874b997c1585d766",
    "converse-mc-unsorted-threads2": "6439e098a60e6d9df950847b84d7025ff009229e6956ad84dc10672434fdb24b",
    "direct-exact-merged": "220911753225b7246817ace5ff68617944d9ed5e1c003152e612ce0b91f0219f",
    "direct-exact-lower": "be6d30d5de9de5073cc7eaa11ba0d40f67aad271015976e98e585a396f9d599a",
    "direct-exact-unsorted": "d75548aeabcfc5c03fe7c5d1e405802a97ff21e1e699def55a5c93a54f182f14",
    "direct-mc": "3690932667cd9cd8fa7a4804800958b950986fa5b591d033368b1e9b49a23990",
    "direct-mc-lower": "7241f09176d081e8b821df0fee7447d73d9508a8bffab395f76095f04fec5c47",
    "direct-mc-lower-past-double-range": "003bc8c75f98911252bf8f289cae8db07a2a23d8a7d05c5b3b6eca91039376f3",
    "direct-mc-near-one": "3e43f0142dde172274ff4b3504a73c9fcbc05fe96ace60099ecbc95ae0ffccf3",
    "polarize-exact": "de577702015a6a88d94c4a467445abbd900cd4061ed7df7e479a878c18d3a73e",
    "polarize-path": "c2c2492ca5f4fa47424a03d573035d052d2ae19ba80f34f0d3ae32324fd99d2d",
    "simulate-threads1": "ed21ecd8e39685183c5d8a71c6ae65bf9c424b1e2a81770f7e347c47fd7f206a",
    "simulate-threads2": "ed21ecd8e39685183c5d8a71c6ae65bf9c424b1e2a81770f7e347c47fd7f206a",
    "simulate-n12-threads1": "ef8e3b8948c39c55584c7a58dca8e3f62aa029ac5b51b42585da87f9e2c80a84",
    "simulate-n12-threads2": "ef8e3b8948c39c55584c7a58dca8e3f62aa029ac5b51b42585da87f9e2c80a84",
    "spectrum": "ef9616876e1965a23dfce88b68136dee5122b910dd6348fd783b09d97f38150a",
    "transform": "fe9b02ada9ee52059af5482fa958012d6d4ad9f790ed337c5516fcd788edbbfe",
    "transform-raw": "bfff62f627bcaee1dbc9567c851cffd5668c363b005bf2bd2242898642d71fd1",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def library_output(name) -> str:
    return "\n".join(repr(row) for row in LIBRARY_CASES[name]()) + "\n"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_is_pinned(name):
    assert _sha(cli_stdout(CLI_CASES[name])) == HASHES[name]


def test_every_subcommand_is_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) <= {argv[0] for argv in CLI_CASES.values()}


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_rows_are_pinned(name):
    assert _sha(library_output(name)) == HASHES[name]


PUBLIC_NAMES = [
    "BlerResult", "BootstrapConfig", "BootstrapReport", "BranchWord", "Channel",
    "CodeSpec", "CurveRow", "ERASED", "Mode", "ResourceCapError", "Rule",
    "ScalingConfig", "TransformPair", "ZDistribution", "ZState", "as_bec_eps", "bec",
    "bec_z_spectrum", "bhattacharyya", "binary_entropy", "bootstrap_diagnostic", "bsc",
    "channel_form", "construct", "converse_binomial", "converse_curve", "direct_curve",
    "domination_check", "encode", "exact_distribution", "f_rho", "hajek_bound",
    "iterate_values", "merge_equivalent_outputs", "polar_transform", "q_halfmoment",
    "sample_path", "sc_decode_bec", "simulate_bler", "step", "symmetric_capacity",
    "synthesized_channels", "validate", "walk", "wilson_interval",
]


def test_public_names_are_pinned():
    # An export is added or removed on purpose, by editing this list.
    # Submodules are left out: importing one (polarkit.cli, say) binds it on
    # the package as a side effect.
    names = sorted(
        n for n in dir(polarkit)
        if not n.startswith("_") and not isinstance(getattr(polarkit, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
