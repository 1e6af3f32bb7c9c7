"""What the benchmark's span tracer (`bench/spans.py`) needs of natsim.

The tracer wraps natsim entry points by (owner, attribute) and reads the
size of each trace file right after `TraceFile.write` returns; a change
that breaks either would only show when the benchmark runs with
`--trace 1`.
"""

import importlib.util
import os
import sys

from natsim import assess
from natsim import scenario as sc
from natsim.fabric import keep_traces

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    cached, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = cached
    return module


def test_every_wrapped_entry_point_resolves():
    spans = load_spans()
    for name, owner, attr in spans.WRAPPED:
        assert callable(getattr(owner, attr, None)), name


def test_trace_file_is_complete_when_write_returns(tmp_path):
    spans = load_spans()
    scn = sc.load_scenario(sc.nat_scenario_doc(
        "bench-contract", ephemeral_range=(40000, 40063), port_range=(40000, 40063)))
    path = tmp_path / "run.trace"
    tracer = spans.Tracer()
    with tracer.installed():
        with keep_traces():
            _, handles = assess.identify_scenario(scn)
        sink = assess.TraceFile()
        sink.add_section(scn, "identify", handles.sim)
        sink.write(str(path))
    assert path.stat().st_size > 0
    assert tracer.trace_bytes == path.stat().st_size
    assert path.read_text().startswith("#natsim-trace ")
    assert assess.replay(str(path)).identical


def test_no_instance_attribute_shadows_a_wrapped_method():
    """The tracer replaces a method on its class, so a Simulator, Host or
    NatBox that bound its own attribute of that name would bypass the
    span and its layer would count nothing."""
    spans = load_spans()
    scn = sc.load_scenario(sc.nat_scenario_doc(
        "bench-contract", ephemeral_range=(40000, 40063), port_range=(40000, 40063)))
    for run in (assess.identify_scenario, assess.attack_scenario):
        _, handles = run(scn)
        objects = [handles.sim, handles.nat, *handles.hosts.values()]
        for name, owner, attr in spans.WRAPPED:
            for obj in objects:
                if isinstance(owner, type) and isinstance(obj, owner):
                    assert attr not in vars(obj), (name, obj)
