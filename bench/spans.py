"""Span recorder for the traced benchmark run.

Tracing wraps natsim's public entry points from outside the package: each
wrapped call becomes one span with a name, start, end, parent span and run
id. Spans are held in flat `array` columns while the run goes on (about 26
bytes a span) and are written out once it ends. A layer's self time is its
spans' duration minus the part covered by their child spans.

Install the wrappers with `Tracer.installed()`; leaving the `with` block puts
every original function back, so the untraced passes of the same process run
the unmodified program.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from array import array

from natsim import assess, endpoint, fabric, natbox, probe, scenario, strike, wire

# (span name, owner object, attribute) for every wrapped entry point. The span
# name's prefix before the first dot is the natsim module, i.e. the layer.
WRAPPED = (
    ("fabric.run", fabric.Simulator, "run"),
    ("fabric.record", fabric.Simulator, "record"),
    ("fabric.inject", fabric.Simulator, "inject"),
    ("natbox.on_datagram", natbox.NatBox, "on_datagram"),
    ("endpoint.on_datagram", endpoint.Host, "on_datagram"),
    ("endpoint.observations_after", endpoint.Host, "observations_after"),
    ("wire.fragment", wire, "fragment"),
    ("wire.reassemble", wire, "reassemble"),
    ("wire.quote_of", wire, "quote_of"),
    ("probe.run_identification", probe, "run_identification"),
    ("strike.run_dos_attack", strike, "run_dos_attack"),
    ("strike.craft_rst_sweep", strike, "craft_rst_sweep"),
    ("strike.craft_push_ack_sweep", strike, "craft_push_ack_sweep"),
    ("scenario.load_scenario", scenario, "load_scenario"),
    ("scenario.build", scenario, "build"),
    ("scenario.establish", scenario, "establish"),
    ("assess.add_section", assess.TraceFile, "add_section"),
    ("assess.write", assess.TraceFile, "write"),
    ("assess.replay", assess, "replay"),
)


class Tracer:
    """Records spans around natsim's entry points, plus the few counts that a
    span cannot carry: `Ipv4Datagram.total_length` reads (too frequent for a
    span each), the NAT table's high-water mark, the bytes of every trace file
    written and the number of attacks whose outcome needed a diagnosis."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._runs = 0
        self.total_length_reads = 0
        self.nat_table_peak = 0
        self.trace_bytes = 0
        self.attacks = 0
        self.attacks_diagnosed = 0
        self._stack = [-1]

    def begin_run(self) -> None:
        """Start a graded run: spans opened until `end_run` carry its id."""
        self._runs += 1
        self.run_id = self._runs

    def end_run(self) -> None:
        """Spans outside any graded run carry run id 0."""
        self.run_id = 0

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    # -- counts taken on top of a span: each wraps the original callable ------

    def _nat_table_peak(self, fn):
        def hooked(box, sim, node, d):
            fn(box, sim, node, d)
            self.nat_table_peak = max(self.nat_table_peak, len(box.by_internal))

        return hooked

    def _trace_size(self, fn):
        def hooked(sink, path):
            fn(sink, path)
            self.trace_bytes += os.path.getsize(path)

        return hooked

    def _diagnosed(self, fn):
        def hooked(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.attacks += 1
            self.attacks_diagnosed += not report.success
            return report

        return hooked

    @contextlib.contextmanager
    def installed(self):
        hooks = {
            "natbox.on_datagram": self._nat_table_peak,
            "assess.write": self._trace_size,
            "strike.run_dos_attack": self._diagnosed,
        }
        length = wire.Ipv4Datagram.total_length

        def count_length(d):
            self.total_length_reads += 1
            return length.fget(d)

        replacements = [(wire.Ipv4Datagram, "total_length", property(count_length))]
        for span_name, owner, attr in WRAPPED:
            fn = getattr(owner, attr)
            replacements.append((owner, attr, self._wrap(span_name, hooks.get(span_name, lambda f: f)(fn))))
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
        try:
            for owner, attr, replacement in replacements:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- rollup ------------------------------------------------------------------

    def rollup(self, clock) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and how many of
        its direct children were each span name (`children`). `clock` maps a
        `perf_counter` reading to the seconds reported."""
        n = len(self.start)
        dur = [clock(self.end[i]) - clock(self.start[i]) for i in range(n)]
        covered = [0.0] * n
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}} for name in self.names}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
                kids = out[self.names[self.name[p]]]["children"]
                child = self.names[self.name[i]]
                kids[child] = kids.get(child, 0) + 1
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
        return out

    def write(self, directory: str, stem: str) -> str:
        """Write the spans as `<stem>.spans` (the five columns back to back,
        in the order name, parent, run, start, end, native byte order) and
        `<stem>.spans.json` (span count, column types and the name table)."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, stem + ".spans")
        columns = (self.name, self.parent, self.run, self.start, self.end)
        with open(path, "wb") as fh:
            for col in columns:
                col.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump(
                {
                    "spans": len(self.start),
                    "columns": [["name", "H"], ["parent", "i"], ["run", "i"], ["start", "d"], ["end", "d"]],
                    "names": self.names,
                },
                fh,
                indent=1,
            )
        return path
