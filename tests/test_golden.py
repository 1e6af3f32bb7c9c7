"""Golden digest: the shipped scenarios' CSV and trace bytes are pinned.

A refactor that claims byte-identical output must leave this digest
alone; a change that moves it must say why.
"""

import hashlib
import os

from natsim import cli

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
GOLDEN_SHA256 = "b018c42a8974f6b4a3e95f454687ab5f6e63b93dc5e196f92d3bf8883fd50645"


def test_assess_shipped_scenarios_digest(tmp_path):
    csv_path, trace_path = tmp_path / "out.csv", tmp_path / "out.trace"
    rc = cli.main(["assess", SCENARIOS, "--seed", "1", "--csv", str(csv_path),
                   "--trace", str(trace_path), "--quiet"])
    assert rc == 0
    digest = hashlib.sha256(csv_path.read_bytes() + trace_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256
