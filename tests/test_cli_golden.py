"""CLI golden: what `natsim identify` and `natsim attack --repeat 2` print
and write for each shipped scenario document.

Each case pins the exit code and the first 16 hex digits of the SHA-256 of
stdout, stderr, the CSV file and the trace file (an unwritten file reads
as empty).  A refactor of the commands must leave every digest alone.
Three attack cases run without `--trace` (trace digest None): they cover
the untraced path, and rendering their traces would cost about a second.
"""

import hashlib
import os

import pytest

from natsim import cli

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
EMPTY = "e3b0c44298fc1c14"

# (document, command): (exit code, stdout, stderr, csv, trace)
GOLDEN = {
    ("cgnat-silent-drop", "identify"): (0, "405c368ab6826525", EMPTY, "17c03d8bb087ac10", "fb12fba19b05ebca"),
    ("cgnat-silent-drop", "attack"): (0, "bd26b1335079438c", EMPTY, "8ffe90c56a1d9fe6", None),
    ("hardened-strict", "identify"): (0, "f2f0227d84eb3100", EMPTY, "17c03d8bb087ac10", "889ef6f35bf02e32"),
    ("hardened-strict", "attack"): (0, "45dc760c3aefe218", EMPTY, "f0f31b1d33936796", "87cda6c7ed0f5ffd"),
    ("router-mtu-1492", "identify"): (0, "1be76e855ff67813", EMPTY, "55bc790c9d846187", "bfa8d0ddcd388389"),
    ("router-mtu-1492", "attack"): (0, "be2d0703999cd015", EMPTY, "5b689cd1fc145496", None),
    ("separate-host", "identify"): (0, "e7a5f1352c01799d", EMPTY, "0dd9fa8feb5ba2dd", "d51d982a634ef925"),
    # no attack block: one configuration error line, nothing written
    ("separate-host", "attack"): (1, EMPTY, "e574b23380677bb9", EMPTY, EMPTY),
    ("synchronized-pmtud", "identify"): (0, "f6f5eaac81d830bd", EMPTY, "8e87537b3bea62f0", "7b2cbcb0c0407047"),
    ("synchronized-pmtud", "attack"): (0, "3695fc268d01b823", EMPTY, "b78384c4e7294452", None),
    ("vulnerable-wifi", "identify"): (0, "8f2cfa9bd5cbaef7", EMPTY, "17c03d8bb087ac10", "09d76a8122f82567"),
    ("vulnerable-wifi", "attack"): (0, "c5948c3f9d8708ad", EMPTY, "b334cdc8db977456", "5e29b444ef1da68d"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _file_digest(path) -> str:
    return _digest(path.read_bytes() if path.exists() else b"")


@pytest.mark.parametrize("name, command", sorted(GOLDEN))
def test_cli_output_is_pinned(tmp_path, capsys, name, command):
    csv_path, trace_path = tmp_path / "out.csv", tmp_path / "out.trace"
    want = GOLDEN[name, command]
    traced = want[-1] is not None
    argv = [command, os.path.join(SCENARIOS, f"{name}.json"), "--csv", str(csv_path)]
    argv += ["--repeat", "2"] if command == "attack" else []
    argv += ["--trace", str(trace_path)] if traced else []
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    trace = _file_digest(trace_path) if traced else None
    assert (rc, _digest(out.encode()), _digest(err.encode()), _file_digest(csv_path), trace) == want
