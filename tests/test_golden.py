"""Byte-level pins of results for fixed seeds.

Each case runs one fast CLI command in process (or one library call whose
rows the CLI does not expose) and compares the SHA-256 of its output with a
recorded value.  Refactors must leave these bytes unchanged; a change that
alters a random stream on purpose updates the hash and says so in
CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from polarkit import bdmc, scaling
from polarkit.cli import main

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
    "direct-mc": [
        "scaling-direct", "--z0", "0.5", "--betas", "0.3,0.45", "--ns", "10,20,40",
        "--mode", "mc", "--trials", "40000", "--seed", "3",
    ],
    "converse-mc-unsorted-threads2": [
        "scaling-converse", "--z0", "0.5", "--betas", "0.55,0.7", "--ns", "40,0,20",
        "--mode", "mc", "--trials", "40000", "--seed", "5", "--threads", "2",
    ],
    "simulate-threads1": [
        "simulate", "--eps", "0.4", "--n", "6", "--rate", "0.42", "--trials", "40000",
        "--seed", "1", "--threads", "1",
    ],
    "simulate-threads2": [
        "simulate", "--eps", "0.4", "--n", "6", "--rate", "0.42", "--trials", "40000",
        "--seed", "1", "--threads", "2",
    ],
    "polarize-path": ["polarize", "--z0", "0.5", "--n", "40", "--rule", "extremal", "--seed", "7"],
    "polarize-exact": ["polarize", "--z0", "0.3", "--n", "12", "--exact"],
    "codec-demo": ["codec-demo", "--eps", "0.2", "--n", "4", "--rate", "0.5", "--seed", "3"],
    "construct": ["construct", "--eps", "0.4", "--n", "10", "--rate", "0.42"],
    "spectrum": ["spectrum", "--eps", "0.5", "--n", "6"],
    "bootstrap": [
        "bootstrap", "--n", "100", "--beta", "0.4", "--trials", "2000", "--seed", "4",
    ],
}

LIBRARY_CASES = {
    "channel-form-bec-exact": lambda: scaling.channel_form(bdmc.bec(0.3), 0.4, (12, 4, 8)),
    "channel-form-bsc": lambda: scaling.channel_form(bdmc.bsc(0.11), 0.4, (4, 0, 2)),
}

HASHES = {
    "bootstrap": "d5814a780dda1c27c87a16f0fb76a445054e50c4305dcc17dd06a346dfe904d5",
    "channel-form-bec-exact": "d556a923c4d2e9d2072d11039bd33b8c89715501c983420801c73870ea7aa083",
    "channel-form-bsc": "17b46a8c20f84533bafdf5afc6ebf973e44cabad9a55b2840ce8ce7fcffd52ac",
    "codec-demo": "17ac907267e1e165ad34f6b94b7b92e64ec96f976e28cd58f6dd05e3c3a2398e",
    "construct": "510c36220d1c1678a1f414b1e3ac77c33f0648e0f6be79c0b8c9dba41f92db46",
    "converse-exact": "2238b3aeb2677004a1ee0f0a9970acaccc8f5f969a0679f99bf99e762d8d5502",
    "converse-mc-unsorted-threads2": "6439e098a60e6d9df950847b84d7025ff009229e6956ad84dc10672434fdb24b",
    "direct-exact-lower": "be6d30d5de9de5073cc7eaa11ba0d40f67aad271015976e98e585a396f9d599a",
    "direct-exact-unsorted": "d75548aeabcfc5c03fe7c5d1e405802a97ff21e1e699def55a5c93a54f182f14",
    "direct-mc": "3690932667cd9cd8fa7a4804800958b950986fa5b591d033368b1e9b49a23990",
    "polarize-exact": "de577702015a6a88d94c4a467445abbd900cd4061ed7df7e479a878c18d3a73e",
    "polarize-path": "c2c2492ca5f4fa47424a03d573035d052d2ae19ba80f34f0d3ae32324fd99d2d",
    "simulate-threads1": "8a3ba9abaeb85ee17c7e508b558713ee708b9f5399bcd70a4865a1a34e72981e",
    "simulate-threads2": "8a3ba9abaeb85ee17c7e508b558713ee708b9f5399bcd70a4865a1a34e72981e",
    "spectrum": "ef9616876e1965a23dfce88b68136dee5122b910dd6348fd783b09d97f38150a",
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


@pytest.mark.parametrize("name", sorted(LIBRARY_CASES))
def test_library_rows_are_pinned(name):
    assert _sha(library_output(name)) == HASHES[name]
