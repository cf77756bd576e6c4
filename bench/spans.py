"""Span tracer for the benchmark's traced run.

``Tracer`` replaces each function in ``TARGETS`` with a recording wrapper in
every ``selenc`` module namespace that binds it (``pipeline`` and
``selective`` import names directly, so patching the home module alone
would miss their calls), and puts every original back on exit. Spans are
kept in memory as (name, start, end, parent index, operation id) and
written out by ``dump``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

SPAN = "span"  # timed, nested, self time derivable
COUNT = "count"  # call count only: too frequent and too small to time

# (home module, function, kind). Names are reported as "<module>.<function>".
TARGETS = (
    ("bitstream", "ebsp_to_rbsp", SPAN),
    ("bitstream", "rbsp_to_ebsp", SPAN),
    ("bitstream", "classify_stream", SPAN),
    ("bitstream", "split_annexb", SPAN),
    ("bitstream", "serialize_annexb", SPAN),
    ("bitstream", "parse_slice_info", COUNT),
    ("aes", "ctr_keystream", SPAN),
    ("aes", "xor_bytes", SPAN),
    ("aes", "encrypt_block", COUNT),
    ("aes", "key_expansion", COUNT),
    ("selective", "select", SPAN),
    ("selective", "encrypt_nal", SPAN),
    ("selective", "decrypt_nal", SPAN),
    ("selective", "encrypt_stream", SPAN),
    ("selective", "decrypt_stream", SPAN),
    ("pipeline", "derive_key", SPAN),
    ("pipeline", "build_report", SPAN),
    ("pipeline", "cmd_encrypt", SPAN),
    ("pipeline", "cmd_decrypt", SPAN),
    ("pipeline", "cmd_inspect", SPAN),
)


def _ebsp_to_rbsp(args, result):
    return (("bitstream.ebsp_to_rbsp.bytes", len(args[0])),
            ("bitstream.epb_removed", len(args[0]) - len(result)))


def _rbsp_to_ebsp(args, result):
    return (("bitstream.epb_inserted", len(result) - len(args[0])),)


def _ctr_keystream(args, result):
    return (("aes.ctr_keystream.bytes", len(result)),)


# Counters read off a call's arguments and result, named by metric.
OBSERVERS = {
    "bitstream.ebsp_to_rbsp": _ebsp_to_rbsp,
    "bitstream.rbsp_to_ebsp": _rbsp_to_ebsp,
    "aes.ctr_keystream": _ctr_keystream,
}


class Tracer:
    """Wraps TARGETS on enter, restores them on exit.

    Set ``op`` to an operation id before each benchmark operation; spans and
    counts made while it is None are kept but belong to no operation.
    ``missing`` names the targets that no longer exist in their module.
    """

    def __init__(self, package, observers=OBSERVERS):
        self.package = package
        self.observers = observers
        self.spans: "list" = []
        self.counts: "dict[object, Counter]" = {}
        self.op = None
        self.missing: "set[str]" = set()
        self._stack: "list[int]" = []
        self._patched: "list[tuple[object, str, object]]" = []

    def _count(self, key: str, amount: int = 1) -> None:
        counter = self.counts.get(self.op)
        if counter is None:
            counter = self.counts[self.op] = Counter()
        counter[key] += amount

    def _span_wrapper(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                for key, amount in observe(args, result):
                    self._count(key, amount)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        key = name + ".calls"

        def counted(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        try:
            for home, func, kind in TARGETS:
                name = f"{home}.{func}"
                original = getattr(sys.modules.get(f"{self.package}.{home}"), func, None)
                if not callable(original):
                    self.missing.add(name)
                    continue
                wrapper = (self._span_wrapper(name, original, self.observers.get(name))
                           if kind == SPAN else self._count_wrapper(name, original))
                for module in modules:
                    if getattr(module, func, None) is original:
                        self._patched.append((module, func, original))
                        setattr(module, func, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, func, original = self._patched.pop()
            setattr(module, func, original)

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Per-layer metrics of a traced run: (name, unit). Times are seconds per
# cycle, where a cycle is one cmd_encrypt, cmd_decrypt and cmd_inspect on one
# stream; counts are per cycle and exact.
LAYER_METRICS = (
    ("bitstream.ebsp_to_rbsp.s", "s"),
    ("bitstream.ebsp_to_rbsp.calls", "count"),
    ("bitstream.ebsp_to_rbsp.bytes", "B"),
    ("bitstream.unescapes_per_nal", "ratio"),
    ("bitstream.rbsp_to_ebsp.s", "s"),
    ("bitstream.rbsp_to_ebsp.calls", "count"),
    ("bitstream.classify_stream.s", "s"),
    ("bitstream.split_annexb.s", "s"),
    ("bitstream.serialize_annexb.s", "s"),
    ("bitstream.parse_slice_info.calls", "count"),
    ("bitstream.epb_removed", "count"),
    ("bitstream.epb_inserted", "count"),
    ("aes.ctr_keystream.s", "s"),
    ("aes.ctr_keystream.bytes", "B"),
    ("aes.xor_bytes.s", "s"),
    ("aes.encrypt_block.calls", "count"),
    ("aes.key_expansion.calls", "count"),
    ("selective.select.s", "s"),
    ("selective.encrypt_nal.self_s", "s"),
    ("selective.encrypt_nal.calls", "count"),
    ("selective.decrypt_nal.calls", "count"),
    ("selective.encrypt_stream.s", "s"),
    ("selective.decrypt_stream.s", "s"),
    ("selective.cipher_fraction", "ratio"),
    ("pipeline.derive_key.s", "s"),
    ("pipeline.build_report.s", "s"),
    ("pipeline.cmd_encrypt.self_s", "s"),
    ("pipeline.cmd_decrypt.self_s", "s"),
    ("pipeline.cmd_inspect.self_s", "s"),
    ("trace.overhead", "ratio"),
)

# Metrics whose name does not end in the function they read.
_SOURCES = {
    "bitstream.unescapes_per_nal": "bitstream.ebsp_to_rbsp",
    "bitstream.epb_removed": "bitstream.ebsp_to_rbsp",
    "bitstream.epb_inserted": "bitstream.rbsp_to_ebsp",
    "selective.cipher_fraction": "selective.encrypt_nal",
}


def source(metric: str) -> str:
    """The traced function a layer metric is read from."""
    return _SOURCES.get(metric) or metric.rsplit(".", 1)[0]


def per_cycle(tracer: Tracer) -> "dict[int, Counter]":
    """For each cycle, span time ("<name>.s"), self time ("<name>.self_s"),
    calls ("<name>.calls") and every observed counter, keyed by metric name,
    plus the same keys prefixed "<command>:" for each command's share.
    Operation ids are (cycle, command)."""
    cycles: "dict[int, Counter]" = defaultdict(Counter)
    spans = tracer.spans
    for name, start, end, parent, op in spans:
        if op is None:
            continue
        c = cycles[op[0]]
        c[name + ".s"] += end - start
        c[name + ".self_s"] += end - start
        c[name + ".calls"] += 1
        c[f"{op[1]}:{name}.calls"] += 1
        if parent >= 0:
            c[spans[parent][0] + ".self_s"] -= end - start
    for op, counter in tracer.counts.items():
        if op is None:
            continue
        cycles[op[0]].update(counter)
        cycles[op[0]].update({f"{op[1]}:{k}": v for k, v in counter.items()})
    return cycles


def layer_metrics(tracer: Tracer, nal_count: int, vcl_rbsp_bytes: int) -> "dict[str, float]":
    """Median over cycles of each LAYER_METRICS value except trace.overhead;
    a metric whose function is missing maps to None."""
    cycles = list(per_cycle(tracer).values())
    derived = {
        "bitstream.unescapes_per_nal":
            lambda c: c["encrypt:bitstream.ebsp_to_rbsp.calls"] / nal_count,
        "selective.cipher_fraction":
            lambda c: c["encrypt:selective.cipher_rbsp_bytes"] / vcl_rbsp_bytes,
    }
    out = {}
    for name, _ in LAYER_METRICS:
        if name == "trace.overhead":
            continue
        if source(name) in tracer.missing:
            out[name] = None
            continue
        read = derived.get(name, lambda c, key=name: c[key])
        out[name] = statistics.median(read(c) for c in cycles)
    return out
