"""Golden outputs: sha256 of five CLI runs, pinned so that changes to the
exact scalars or the per-prime routes cannot alter a byte of what the CLI
writes."""

import hashlib

import pytest

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
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_output_digest(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
