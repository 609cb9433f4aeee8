"""Spans around xfo's layer entry points, recorded from the benchmark's side.

``Tracer.install`` replaces each entry point named in ``ENTRY_POINTS`` by a
wrapper, in every loaded xfo module that holds a reference to it, and
``uninstall`` puts the originals back; nothing under src/ is edited. A span
records its name, start, end, parent span and the workload run it belongs
to. Spans stay in memory (flat arrays) and are written out once, at the end.
Self time is a span's duration minus the time its child spans cover.
Counters (rows returned, transitions applied, firings, queries issued while
dispositions fire, tokens lexed, declarations compiled, states checked) are
taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

# (span name, owner path, attribute). Owners are classes or modules of xfo.
ENTRY_POINTS = (
    ("lang.parse_module", "xfo.lang.parser", "parse_module"),
    ("lang.compile_modules", "xfo.lang.compiler", "compile_modules"),
    ("registry.resolve", "xfo.registry:RegistryBuilder", "resolve"),
    ("registry.validate_registry", "xfo.registry", "validate_registry"),
    ("registry.predicate_declared", "xfo.registry:Registry", "predicate_declared"),
    ("kinds.is_subkind", "xfo.kinds:KindTable", "is_subkind"),
    ("relations.query", "xfo.relations:RelationStore", "query"),
    ("relations.check_assert", "xfo.relations:RelationStore", "check_assert"),
    ("relations.alive_of_kind", "xfo.relations:RelationStore", "alive_of_kind"),
    ("relations.destroy_instance", "xfo.relations:RelationStore", "destroy_instance"),
    ("relations.fingerprint", "xfo.relations:RelationStore", "fingerprint"),
    ("relations.clone", "xfo.relations:RelationStore", "clone"),
    ("fingerprint.stable_fingerprint", "xfo.fingerprint", "stable_fingerprint"),
    ("transitions.solve_guards", "xfo.transitions", "solve_guards"),
    ("transitions.apply_transitional", "xfo.transitions", "apply_transitional"),
    ("transitions.instantiate_chain", "xfo.transitions", "instantiate_chain"),
    ("transitions.step_chain", "xfo.transitions", "step_chain"),
    ("microworld.spawn", "xfo.microworld:Microworld", "spawn"),
    ("microworld.apply", "xfo.microworld:Microworld", "apply"),
    ("microworld.fire_dispositions", "xfo.microworld:Microworld", "fire_dispositions"),
    ("microworld.timeline_ndjson", "xfo.microworld:Microworld", "timeline_ndjson"),
    ("microworld.fingerprint", "xfo.microworld:Microworld", "fingerprint"),
    ("equivalence.check_equivalence", "xfo.equivalence", "check_equivalence"),
    ("cli.main", "xfo.cli", "main"),
)
QUERY_AT = "relations.query_at"

# Per-layer metrics: (name, unit, better). Every traced run reports each one;
# a layer a workload never calls reports 0 calls and 0 for its derived stats.
LAYER_METRICS = (
    ("lang.parse_module.self_s", "s", "lower"),
    ("lang.parse_module.tokens_per_s", "1/s", "higher"),
    ("lang.compile_modules.self_s", "s", "lower"),
    ("lang.compile_modules.decls_per_s", "1/s", "higher"),
    ("lang.compile_modules.growth", "ratio", "lower"),
    ("registry.resolve.self_s", "s", "lower"),
    ("registry.validate_registry.self_s", "s", "lower"),
    ("registry.predicate_declared.calls", "count", "lower"),
    ("registry.predicate_declared.self_s", "s", "lower"),
    ("kinds.is_subkind.calls", "count", "lower"),
    ("kinds.is_subkind.self_s", "s", "lower"),
    ("relations.query.calls", "count", "lower"),
    ("relations.query.self_s", "s", "lower"),
    ("relations.query.us_per_call", "us", "lower"),
    ("relations.query.rows_per_call", "rows", "lower"),
    ("relations.query.growth", "ratio", "lower"),
    ("relations.check_assert.us_per_call", "us", "lower"),
    ("relations.check_assert.growth", "ratio", "lower"),
    ("relations.query_at.calls", "count", "lower"),
    ("relations.query_at.us_per_call", "us", "lower"),
    ("relations.query_at.growth", "ratio", "lower"),
    ("relations.alive_of_kind.calls", "count", "lower"),
    ("relations.alive_of_kind.self_s", "s", "lower"),
    ("relations.destroy_instance.us_per_call", "us", "lower"),
    ("relations.destroy_instance.growth", "ratio", "lower"),
    ("relations.fingerprint.us_per_call", "us", "lower"),
    ("microworld.timeline_ndjson.us_per_call", "us", "lower"),
    ("microworld.fingerprint.us_per_call", "us", "lower"),
    ("fingerprint.stable_fingerprint.calls", "count", "lower"),
    ("fingerprint.stable_fingerprint.self_s", "s", "lower"),
    ("transitions.solve_guards.calls", "count", "lower"),
    ("transitions.solve_guards.self_s", "s", "lower"),
    ("transitions.apply_transitional.calls", "count", "lower"),
    ("transitions.apply_transitional.self_s", "s", "lower"),
    ("transitions.apply_transitional.applied_ratio", "ratio", "higher"),
    ("microworld.apply.us_per_call", "us", "lower"),
    ("microworld.apply.growth", "ratio", "lower"),
    ("microworld.fire_dispositions.calls", "count", "lower"),
    ("microworld.fire_dispositions.self_s", "s", "lower"),
    ("microworld.fire_dispositions.firings", "count", "higher"),
    ("microworld.fire_dispositions.queries_per_firing", "ratio", "lower"),
    ("microworld.fire_dispositions.us_per_firing", "us", "lower"),
    ("microworld.fire_dispositions.growth", "ratio", "lower"),
    ("microworld.spawn.calls", "count", "lower"),
    ("microworld.spawn.us_per_call", "us", "lower"),
    ("transitions.instantiate_chain.self_s", "s", "lower"),
    ("transitions.step_chain.calls", "count", "lower"),
    ("transitions.step_chain.self_s", "s", "lower"),
    ("relations.clone.us_per_call", "us", "lower"),
    ("equivalence.check_equivalence.us_per_state", "us", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
)


def _resolve(path: str):
    module_name, _, cls = path.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls) if cls else module


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.run = -1
        # One entry per closed span.
        self.span_id = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_of = array("i")
        self.self_time = array("d")
        self._stack: list[list] = []  # open spans: [span id, child time]
        self._next_id = 0
        self.counters: dict[tuple[int, str], float] = {}
        self._fire_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- bookkeeping -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_run(self, label: str) -> None:
        self.runs.append(label)
        self.run = len(self.runs) - 1

    def count(self, key: str, amount: float = 1) -> None:
        slot = (self.run, key)
        self.counters[slot] = self.counters.get(slot, 0) + amount

    @contextlib.contextmanager
    def active(self):
        """Wrap the entry points for the duration of the block only."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- the wrapper -------------------------------------------------------------------

    def _wrap(self, fn, label: str):
        tracer = self
        perf = time.perf_counter
        after = getattr(self, "_after_" + label.replace(".", "_"), None)
        default = self.name_id(label)
        at_id = self.name_id(QUERY_AT) if label == "relations.query" else default
        is_fire = label == "microworld.fire_dispositions"

        def wrapper(*args, **kwargs):
            name = at_id if kwargs.get("at") is not None else default
            stack = tracer._stack
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            if is_fire:
                tracer._fire_depth += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if is_fire:
                    tracer._fire_depth -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.span_id.append(frame[0])
                tracer.name.append(name)
                tracer.start.append(start)
                tracer.end.append(end)
                tracer.parent.append(stack[-1][0] if stack else -1)
                tracer.run_of.append(tracer.run)
                tracer.self_time.append(duration - frame[1])
            if after is not None:
                after(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # Counters taken where the work happens.

    def _after_relations_query(self, name, args, kwargs, result):
        self.count(self.names[name] + ".rows", len(result))
        if self._fire_depth:
            self.count("microworld.fire_dispositions.queries")

    def _after_transitions_apply_transitional(self, name, args, kwargs, result):
        if type(result).__name__ == "AppliedTransition":
            self.count("transitions.apply_transitional.applied")

    def _after_microworld_fire_dispositions(self, name, args, kwargs, result):
        self.count("microworld.fire_dispositions.firings", len(result))

    def _after_lang_compile_modules(self, name, args, kwargs, result):
        modules = args[0] if args else kwargs["modules"]
        self.count("lang.compile_modules.decls", sum(len(m.decls) for m in modules))

    def _after_equivalence_check_equivalence(self, name, args, kwargs, result):
        self.count("equivalence.check_equivalence.states", result.states_checked)

    def _count_tokens(self, fn):
        tracer = self

        def tokenize(*args, **kwargs):
            tokens, diagnostics = fn(*args, **kwargs)
            tracer.count("lang.parse_module.tokens", len(tokens))
            return tokens, diagnostics

        return tokenize

    # -- patching -------------------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every xfo module attribute that holds ``original`` at the wrapper."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "xfo" or module_name.startswith("xfo.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for label, owner_path, attr in ENTRY_POINTS:
            owner = _resolve(owner_path)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, label)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        parser = sys.modules["xfo.lang.parser"]
        self._restore.append((parser, "tokenize", parser.tokenize))
        parser.tokenize = self._count_tokens(parser.tokenize)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------------------------

    def totals(self, runs: set[int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds over ``runs``."""
        out: dict[str, dict[str, float]] = {}
        names = self.names
        for i in range(len(self.name)):
            if self.run_of[i] not in runs:
                continue
            entry = out.setdefault(names[self.name[i]], {"calls": 0, "incl": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["incl"] += self.end[i] - self.start[i]
            entry["self"] += self.self_time[i]
        return out

    def counter(self, runs: set[int], key: str) -> float:
        return sum(self.counters.get((run, key), 0) for run in runs)

    def runs_labelled(self, label: str) -> set[int]:
        return {i for i, name in enumerate(self.runs) if name == label}

    def layer_metrics(self, info: dict) -> dict[str, float]:
        """Every LAYER_METRICS value from the runs named in ``info``."""
        main = self.runs_labelled(info["main"])
        small = self.runs_labelled(info["small"])
        large = self.runs_labelled(info["large"])
        totals = self.totals(main)
        small_totals, large_totals = self.totals(small), self.totals(large)

        def stat(name, key):
            return totals.get(name, {}).get(key, 0)

        def per(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        def us_per_call(table, name):
            entry = table.get(name)
            return per(entry["incl"], entry["calls"], 1e6) if entry else 0.0

        def growth(name):
            if name == "lang.compile_modules":
                # Per declaration, since a call's input grows with the sweep.
                low = per(small_totals.get(name, {}).get("incl", 0),
                          self.counter(small, name + ".decls"))
                high = per(large_totals.get(name, {}).get("incl", 0),
                           self.counter(large, name + ".decls"))
            else:
                low = us_per_call(small_totals, name)
                high = us_per_call(large_totals, name)
            return per(high, low)

        firings = self.counter(main, "microworld.fire_dispositions.firings")
        fire = "microworld.fire_dispositions"
        values = {
            "tokens_per_s": per(self.counter(main, "lang.parse_module.tokens"),
                                stat("lang.parse_module", "incl")),
            "decls_per_s": per(self.counter(main, "lang.compile_modules.decls"),
                               stat("lang.compile_modules", "incl")),
            "rows_per_call": per(self.counter(main, "relations.query.rows"),
                                 stat("relations.query", "calls")),
            "applied_ratio": per(self.counter(main, "transitions.apply_transitional.applied"),
                                 stat("transitions.apply_transitional", "calls")),
            "firings": firings,
            "queries_per_firing": per(self.counter(main, fire + ".queries"), firings),
            "us_per_firing": per(stat(fire, "incl"), firings, 1e6),
            "us_per_state": per(stat("equivalence.check_equivalence", "incl"),
                                self.counter(main, "equivalence.check_equivalence.states"),
                                1e6),
        }
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            layer, _, key = metric.rpartition(".")
            if layer == "trace":
                continue
            if key == "calls":
                out[metric] = stat(layer, "calls")
            elif key == "self_s":
                out[metric] = stat(layer, "self")
            elif key == "us_per_call":
                out[metric] = us_per_call(totals, layer)
            elif key == "growth":
                out[metric] = growth(layer)
            else:
                out[metric] = values[key]
        start, end = info["window"]
        traced = end - start
        out["trace.overhead_ratio"] = traced / info["untraced_wall_s"]
        out["trace.self_coverage"] = self.self_seconds(main, start, end) / traced
        return out

    def self_seconds(self, runs: set[int], start: float, end: float) -> float:
        """Self time of spans in ``runs`` that lie inside [start, end]."""
        total = 0.0
        for i in range(len(self.name)):
            if self.run_of[i] in runs and self.start[i] >= start and self.end[i] <= end:
                total += self.self_time[i]
        return total

    def write(self, path) -> None:
        """Spans as a JSON header plus the flat arrays, in the byte order it names."""
        columns = ("span_id", "name", "start", "end", "parent", "run_of", "self_time")
        header = {
            "names": self.names,
            "runs": self.runs,
            "count": len(self.name),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in columns:
                getattr(self, column).tofile(fh)
