"""The README's field table names exactly the keys the loader accepts.

Each block of a shipped document, and its top level, is given a key that
names no field; the loader's `unknown field (valid: ...)` message lists the
keys it accepts there.  The table must have one row for each of them, and
no row for a key the loader refuses.  A block's own key needs no row of
its own when rows name its fields (`nodes` is named by `nodes[].id`).
"""

import copy
import json
import os
import re

from natsim.scenario import ScenarioError, load_scenario

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TABLE_HEAD = "| Field | Default | Valid |\n|---|---|---|\n"
# each block: its path in the document, and its prefix in the table
BLOCKS = [
    ((), ""),
    (("nodes", 0), "nodes[]."),
    (("links", 0), "links[]."),
    (("nat",), "nat."),
    (("server",), "server."),
    (("workload",), "workload."),
    (("probe",), "probe."),
    (("probe", "pre_echo_mtu"), "probe.pre_echo_mtu."),
    (("attack",), "attack."),
    (("expect",), "expect."),
]


def table_fields() -> list[str]:
    """Every field the table names, in full: after `block.key` in a row's
    first cell, `.other` is `block.other`."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        table = fh.read().split(TABLE_HEAD, 1)[1].split("\n\n", 1)[0]
    names = []
    for row in table.splitlines():
        first, *more = re.findall(r"`([^`]+)`", row.split(" | ")[0])
        block = first[: first.rfind(".") + 1]
        names += [first] + [block + name[1:] for name in more]
    return names


def accepted_keys(doc: dict, path: tuple) -> set[str]:
    """The keys the loader accepts in the block of `doc` at `path`."""
    doc = copy.deepcopy(doc)
    block = doc
    for key in path:
        block = block[key]
    block["no_such_field"] = 1
    try:
        load_scenario(doc)
    except ScenarioError as e:
        valid = re.fullmatch(r"\S+\.no_such_field: unknown field \(valid: (.*)\)", str(e))
        assert valid, str(e)
        return set(valid[1].split(", "))
    raise AssertionError(f"{path}: an unknown key loaded")


def test_readme_field_table_matches_the_loader():
    with open(os.path.join(ROOT, "scenarios", "vulnerable-wifi.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["probe"]["pre_echo_mtu"] = {"link": ["r1", "vantage"], "mtu": 576}
    names = table_fields()
    assert len(names) == len(set(names)), "a field has two rows"
    documented = {prefix: set() for _, prefix in BLOCKS}
    for name in names:
        block = name[: name.rfind(".") + 1]
        assert block in documented, f"row {name!r} is in no block the loader reads"
        documented[block].add(name[len(block):])
    for path, prefix in BLOCKS:
        nested = {
            inner[len(prefix):-1].removesuffix("[]") for inner in documented
            if inner.startswith(prefix) and inner != prefix and "." not in inner[len(prefix):-1]
        }
        assert documented[prefix] | nested == accepted_keys(doc, path), prefix or "top level"
