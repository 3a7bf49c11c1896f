"""Outside-in tracing of tracenet's layers for the benchmark's traced run.

The tracer replaces each public function where its caller looks it up
(a module attribute, a name `simnet` imported into its own namespace, or a
method on a class) with a wrapper that records one span per call, and puts
the originals back on exit. Nothing under `src/` knows it is being traced.

A span is (id, name, start, end, parent id, run id). Spans stay in memory in
flat integer arrays and are written out once, after the measurement. A
span's self time is its duration minus the time its child spans cover, so
the self times of all spans add up to the time spent inside top-level spans.
"""

from __future__ import annotations

import array
import collections
import gc
import json
import os
import statistics
import time

from tracenet import authority, casework, cli, contact_log, ident, matching, simnet

# (owner, attribute, span name). `simnet` binds several ident and authority
# functions into its own namespace at import, so those names are patched
# there as well as on their home module.
TARGETS = [
    (simnet, "encode_beacon", "ident.encode_beacon"),
    (simnet, "decode_beacon", "ident.decode_beacon"),
    (simnet, "estimate_distance_class", "ident.estimate_distance_class"),
    (simnet, "generate_daily_identifier", "ident.generate_daily_identifier"),
    (simnet, "rotate_if_needed", "ident.rotate_if_needed"),
    (simnet, "verify_list", "authority.verify_list"),
    (ident, "encode_beacon", "ident.encode_beacon"),
    (ident, "decode_beacon", "ident.decode_beacon"),
    (ident, "estimate_distance_class", "ident.estimate_distance_class"),
    (ident, "generate_daily_identifier", "ident.generate_daily_identifier"),
    (ident, "rotate_if_needed", "ident.rotate_if_needed"),
    (contact_log.ContactLog, "observe_span", "contact_log.observe_span"),
    (contact_log.ContactLog, "prune", "contact_log.prune"),
    (contact_log.ContactLog, "export_history", "contact_log.export_history"),
    (authority.AuthorityState, "register_carrier", "authority.register_carrier"),
    (authority.AuthorityState, "publish", "authority.publish"),
    (authority.AuthorityState, "erase_expired", "authority.erase_expired"),
    (authority, "serialize_list", "authority.serialize_list"),
    (authority, "deserialize_list", "authority.deserialize_list"),
    (authority, "verify_list", "authority.verify_list"),
    (matching, "build_index", "matching.build_index"),
    (matching, "match_contacts", "matching.match_contacts"),
    (casework, "on_hits", "casework.on_hits"),
    (casework, "step", "casework.step"),
    (casework, "categorize", "casework.categorize"),
    (casework, "serialize_message", "casework.serialize_message"),
    (casework, "deserialize_message", "casework.deserialize_message"),
    (simnet.World, "step_day", "simnet.step_day"),
    (simnet, "run", "simnet.run"),
    (cli, "atomic_write", "cli.atomic_write"),
]

# Per-layer self-time metric -> the span names whose self time it sums.
# Every traced span name appears in exactly one entry, so these metrics add
# up to the time inside top-level spans; `trace.unattributed_ms` is the rest
# of `trace.wall_s`.
SELF_TIME_METRICS = {
    "ident.codec_ms": ("ident.encode_beacon", "ident.decode_beacon"),
    "ident.distance_class_ms": ("ident.estimate_distance_class",),
    "ident.rotate_ms": ("ident.generate_daily_identifier", "ident.rotate_if_needed"),
    "contact_log.observe_span_ms": ("contact_log.observe_span",),
    "contact_log.prune_ms": ("contact_log.prune",),
    "contact_log.export_history_ms": ("contact_log.export_history",),
    "authority.register_ms": ("authority.register_carrier",),
    "authority.publish_ms": ("authority.publish",),
    "authority.serialize_ms": ("authority.serialize_list",),
    "authority.deserialize_ms": ("authority.deserialize_list",),
    "authority.verify_ms": ("authority.verify_list",),
    "authority.erase_ms": ("authority.erase_expired",),
    "matching.build_index_ms": ("matching.build_index",),
    "matching.match_ms": ("matching.match_contacts",),
    "casework.on_hits_ms": ("casework.on_hits",),
    "casework.step_ms": ("casework.step",),
    "casework.categorize_ms": ("casework.categorize",),
    "casework.mailbox_codec_ms": ("casework.serialize_message",
                                  "casework.deserialize_message"),
    "simnet.step_day_self_ms": ("simnet.step_day",),
    "simnet.run_self_ms": ("simnet.run",),
    "cli.write_ms": ("cli.atomic_write",),
}

CALL_COUNT_METRICS = {
    "ident.codec_calls": ("ident.encode_beacon", "ident.decode_beacon"),
    "contact_log.observe_span_calls": ("contact_log.observe_span",),
    "contact_log.prune_calls": ("contact_log.prune",),
    "authority.register_calls": ("authority.register_carrier",),
    "authority.publish_calls": ("authority.publish",),
    "authority.verify_calls": ("authority.verify_list",),
    "matching.match_calls": ("matching.match_contacts",),
    "casework.step_calls": ("casework.step",),
    "casework.categorize_calls": ("casework.categorize",),
    "casework.mailbox_codec_calls": ("casework.serialize_message",
                                     "casework.deserialize_message"),
    "simnet.step_day_calls": ("simnet.step_day",),
    "simnet.run_calls": ("simnet.run",),
}


class Tracer:
    """Span recorder and counter set for one traced run. Use as a context
    manager: entering patches the targets, leaving restores them."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.calls = []
        self.self_ns = []
        self.errors = collections.Counter()  # (span name, exception class name)
        self.counters = dict.fromkeys(
            ("records_scanned", "hits", "list_entries", "audited_noops",
             "test_orders", "bytes_written"), 0)
        self.run_id = 0
        self.col_id = array.array("q")
        self.col_name = array.array("h")
        self.col_start = array.array("q")
        self.col_end = array.array("q")
        self.col_parent = array.array("q")
        self.col_run = array.array("q")
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_started = 0
        self._stack = []  # [span id, ns covered by children]
        self._next_id = 0
        self._patches = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original, self._hook(name)))
            self._patches.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def _hook(self, name):
        """Counters read at the call's boundary: (before, after), where
        `before(args, kwargs)` returns a value handed to `after(value,
        args, result)`. Hooks run outside the call's own span."""
        c = self.counters

        def scanned(args, kwargs):
            return len(args[0].records)

        def audit_len(args, kwargs):
            return len(args[0].audit)

        def after_match(n_records, args, hits):
            c["records_scanned"] += n_records
            c["hits"] += len(hits)

        def after_publish(_, args, lst):
            c["list_entries"] += len(lst.entries)

        def after_step(audit_before, args, result):
            case, message = args[0], args[1]
            prefix = f"{message.kind.name} in "
            c["audited_noops"] += sum(
                1 for entry in case.audit[audit_before:] if entry.startswith(prefix))

        def after_categorize(_, args, result):
            _case, messages = result
            c["test_orders"] += sum(
                1 for m in messages if m.kind == casework.MessageKind.TEST_ORDER)

        def after_write(_, args, result):
            data = args[1]
            c["bytes_written"] += len(data if isinstance(data, bytes) else data.encode())

        return {
            "matching.match_contacts": (scanned, after_match),
            "authority.publish": (None, after_publish),
            "casework.step": (audit_len, after_step),
            "casework.categorize": (None, after_categorize),
            "cli.atomic_write": (None, after_write),
        }.get(name, (None, None))

    def _wrap(self, name, fn, hook):
        nid = self._name_id(name)
        before, after = hook
        clock = time.perf_counter_ns
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        cols = (self.col_id.append, self.col_name.append, self.col_start.append,
                self.col_end.append, self.col_parent.append, self.col_run.append)
        errors = self.errors
        tracer = self

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                cols[0](sid)
                cols[1](nid)
                cols[2](t0)
                cols[3](t1)
                cols[4](parent)
                cols[5](tracer.run_id)
            if after is not None:
                after(token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_started
            if info["generation"] == 2:
                self.gc_gen2 += 1

    # -- results ----------------------------------------------------------

    def _sum(self, table, names):
        ids = [self._name_ids[n] for n in names if n in self._name_ids]
        return sum(table[i] for i in ids)

    def durations_ms(self, name):
        """Wall durations of every span with this name, in ms."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [(end - start) / 1e6 for n, start, end in
                zip(self.col_name, self.col_start, self.col_end) if n == nid]

    def layer_metrics(self, wall_s):
        """Per-layer metrics derived from spans and boundary counters."""
        m = {key: self._sum(self.self_ns, names) / 1e6
             for key, names in SELF_TIME_METRICS.items()}
        m.update({key: self._sum(self.calls, names)
                  for key, names in CALL_COUNT_METRICS.items()})
        c = self.counters
        m["authority.stale_rejections"] = self.errors[
            "authority.register_carrier", "StaleHistory"]
        m["authority.list_entries_mean"] = (
            c["list_entries"] / m["authority.publish_calls"]
            if m["authority.publish_calls"] else 0.0)
        m["matching.records_scanned"] = c["records_scanned"]
        m["matching.hits"] = c["hits"]
        m["matching.hit_ratio"] = (
            c["hits"] / c["records_scanned"] if c["records_scanned"] else 0.0)
        m["casework.audited_noops"] = c["audited_noops"]
        m["casework.test_order_ratio"] = (
            c["test_orders"] / m["casework.categorize_calls"]
            if m["casework.categorize_calls"] else 0.0)
        days = self.durations_ms("simnet.step_day")
        m["simnet.day_p50_ms"] = statistics.median(days) if days else 0.0
        m["simnet.day_max_ms"] = max(days, default=0.0)
        m["cli.bytes_written"] = c["bytes_written"]
        m["gc.pause_ms"] = self.gc_pause_ns / 1e6
        m["gc.gen2_collections"] = self.gc_gen2
        m["trace.spans"] = len(self.col_id)
        m["trace.wall_s"] = wall_s
        m["trace.unattributed_ms"] = wall_s * 1e3 - self.top_level_ns() / 1e6
        return m

    def top_level_ns(self):
        """Time covered by top-level spans inside timed units, read from the
        span columns. If the wrappers subtract child time correctly, the
        self times of all spans add up to exactly this."""
        return sum(end - start for start, end, parent, run in
                   zip(self.col_start, self.col_end, self.col_parent, self.col_run)
                   if parent == -1 and run > 0)

    def write(self, directory, stem):
        """Write the spans as raw native-endian int64 columns, one after the
        other, plus a JSON header naming the columns and the span names."""
        os.makedirs(directory, exist_ok=True)
        columns = [("id", self.col_id), ("name", self.col_name),
                   ("start_ns", self.col_start), ("end_ns", self.col_end),
                   ("parent", self.col_parent), ("run", self.col_run)]
        with open(os.path.join(directory, stem + ".bin"), "wb") as fh:
            for _, col in columns:
                array.array("q", col).tofile(fh)
        header = {"rows": len(self.col_id), "dtype": "int64",
                  "columns": [c for c, _ in columns], "names": self.names}
        with open(os.path.join(directory, stem + ".json"), "w") as fh:
            json.dump(header, fh, indent=1)
