"""Golden outputs: sha256 of CLI runs, pinned so that changes to the exact
scalars, the per-prime routes or the series build cannot alter a byte of
what the CLI writes."""

import hashlib
import os
import subprocess
import sys

import pytest

import ikedalift
from ikedalift.cli import main

GOLDEN = [
    (
        ["eigen", "--n", "4", "--k", "12", "--pmax", "200"],
        "d3654caca46c9ce7e361f69d83a760fcfd2b088e3ffd10fde7ed26940d75130b",
    ),
    (
        ["eigen", "--n", "16", "--k", "18", "--pmax", "300", "--format", "json", "--digits", "30"],
        "2b4e033c3263cc6ebe55384b6256a96dc70dd4c82530b44eb5549e48f80e88a8",
    ),
    (
        ["verify", "--n", "8", "--k", "14", "--pmax", "300"],
        "a67b284a306761393c54defb5dedfa9f175752e3f801eabad0f76d03df8775cd",
    ),
    (
        ["eigen", "--n", "2", "--k", "10", "--pmax", "50", "--digits", "0"],
        "df852bb77c56f9e4d6cf79d505e995b1d974b00ade706ea991e224e2d31cc584",
    ),
    (
        ["eigen", "--n", "18", "--k", "22", "--pmax", "400", "--format", "json"],
        "b1f4d9f6c62e3f809f5afcaaa6b80734fcec894c6a9e811a844f759cef376e9f",
    ),
    # the q-expansion of every built-in weight, past the sizes above
    (
        ["forms", "--weight", "12", "--pmax", "1500"],
        "2f60b4d113cafd8fff0605eb0924ea4006344f246b354c1bcaf150651d361387",
    ),
    (
        ["forms", "--weight", "16", "--pmax", "1500"],
        "02d4feab9e0de0def40d0f59fcc9b0f274b66777b0ed24904738d6b91cd1dab8",
    ),
    (
        ["forms", "--weight", "18", "--pmax", "1500"],
        "6f53d81e09292ae1e275e2a91b614e7ad7ddc81810b0dca56b71c2342920d166",
    ),
    (
        ["forms", "--weight", "20", "--pmax", "1500"],
        "0a6343f86dd19e964dc86b657c04e7e059c3fbf842894e9382eb74fd6fd67b07",
    ),
    (
        ["forms", "--weight", "22", "--pmax", "1500"],
        "2a761acdb4c0b477e4f754cdf0d1abfc42dbe6c712f714635d985013cc68f60a",
    ),
    (
        ["forms", "--weight", "26", "--pmax", "1500"],
        "5eed56e44eff7eb93e54ba743f30f67604bf3f262883dfd6fbecb43ae0828280",
    ),
    # Gaussian binomials in q: a long one, a linear one, and the constant 1
    (
        ["qbinom", "--n", "30", "--m", "15"],
        "0368979cb17ddec904abba7a6346cbdbcf560fbde453f65a49dd2db3cecd7ef9",
    ),
    (
        ["qbinom", "--n", "12", "--m", "1"],
        "74f8eb198971bca45272cd58cfad71652defb95dc68fda9b8cc25a2e7c47f5e9",
    ),
    (
        ["qbinom", "--n", "5", "--m", "0"],
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_output_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the program as it is run, `python -m ikedalift`, which also freezes the
# import-time heap before it starts: one record-writing and one series case
ENTRY_POINT = [GOLDEN[1], GOLDEN[5]]


@pytest.mark.parametrize("argv, digest", ENTRY_POINT, ids=[" ".join(a) for a, _ in ENTRY_POINT])
def test_entry_point_digest(argv, digest):
    src = os.path.dirname(os.path.dirname(ikedalift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "ikedalift", *argv], env=env, capture_output=True, check=True
    )
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == digest
