"""The compile workload: the modeller's edit-compile-run loop.

A seeded module set of a few thousand declarations is parsed and compiled
together with the six corpus models, and in between the in-process CLI runs
every corpus world with its chains. Declaration counts are checked against
the generator's own and against a plain-text count of the corpus; CLI
outcomes against hand-derived expectations, and two traces against the
golden files under tests/golden.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
import time

import gen_modules
from common import (
    GOLDEN_DIR,
    MODELS_DIR,
    OUT_DIR,
    Speed,
    Tally,
    compile_corpus,
    corpus_paths,
    median,
    percentile,
)

FULL = {"modules": 20, "units": 10, "sweep": (2, 5, 10), "traced_passes": 3, "setups": 15}
SMOKE = {"modules": 4, "units": 2, "sweep": (1, 2), "traced_passes": 1, "setups": 3}

# (files, world, chain, status, ticks, golden trace). Status and tick counts
# follow from the models' text: each chain step applies one transitional and
# the two worlds without a chain have no interaction rules to fire.
CLI_CASES = (
    (("trafficlight.xfo",), "demo", "cycle", "completed", 1, "trafficlight_cycle.ndjson"),
    (("trafficlight.xfo",), "demo", "go_yellow", "completed", 1, None),
    (("trafficlight.xfo",), "demo", "go_green_swapped", "completed", 1, None),
    (("waterdropper-goryeo.xfo",), "studio", "pottery", "completed", 3,
     "pottery_sequence.ndjson"),
    (("waterdropper-goryeo.xfo",), "studio", "celadon_production", "completed", 3, None),
    (("calligraphy.xfo", "waterdropper-goryeo.xfo"), "calligraphy_session", "mix_ink",
     "completed", 3, None),
    (("clock-orchestra.xfo",), "workshop", "unwind", "completed", 1, None),
    (("windshield.xfo",), "crash_test", None, "quiescent", 0, None),
    (("village-gangjin.xfo",), "gangjin", None, "quiescent", 0, None),
)

_DECL = re.compile(r"^(quality|object|aggregate|relation|transitional|chain|disposition"
                   r"|world|claim)\b", re.MULTILINE)
_ROLE = re.compile(r"^\s+role\b", re.MULTILINE)
_STATUS = re.compile(r"^status=(\S+) ticks=(\d+) fingerprint=([0-9a-f]{16})$")


def count_text(text: str) -> tuple[int, int, int]:
    """(declarations, registry entries, worlds) counted from source text."""
    keywords = _DECL.findall(text)
    worlds = keywords.count("world")
    schemas = len(keywords) - worlds - keywords.count("claim") + len(_ROLE.findall(text))
    return len(keywords), schemas, worlds


class Compile:
    name = "compile"

    def __init__(self, xfo, seed: int, smoke: bool):
        self.xfo = xfo
        self.seed = seed
        self.size = SMOKE if smoke else FULL
        self.tally = Tally()
        self.speed = Speed()
        self.rng = random.Random(seed)
        self.corpus = [(p.stem, p.read_text(encoding="utf-8"))
                       for p in corpus_paths(with_fixture=False)]
        self.corpus_counts = [sum(c) for c in zip(*(count_text(t) for _, t in self.corpus))]
        self.sets = {u: gen_modules.generate(seed, self.size["modules"], u)
                     for u in self.size["sweep"]}
        self.cli_seen: dict[tuple, str] = {}
        OUT_DIR.mkdir(parents=True, exist_ok=True)

    def setup(self):
        return compile_corpus(self.xfo)

    # -- one compile of a module set plus the corpus ------------------------------

    def compile_once(self, units: int) -> tuple[float, int, str | None]:
        lang = self.xfo.lang
        module_set = self.sets[units]
        start = time.perf_counter()
        modules, parse_diagnostics = [], []
        for name, text in module_set.sources + tuple(self.corpus):
            module, diagnostics = lang.parse_module(text, name=name)
            modules.append(module)
            parse_diagnostics += diagnostics
        result = lang.compile_modules(modules)
        elapsed = time.perf_counter() - start
        decls, schemas, worlds = (a + b for a, b in zip(
            (module_set.decls, module_set.schemas, module_set.worlds), self.corpus_counts))
        parsed = sum(len(m.decls) for m in modules)
        got_schemas = len(result.registry.schemas) if result.registry is not None else -1
        ok = (not parse_diagnostics and not result.diagnostics and parsed == decls
              and got_schemas == schemas and len(result.worlds) == worlds)
        self.tally.op(ok, f"compile units={units}: {parsed}/{decls} decls, "
                          f"{got_schemas}/{schemas} schemas, {len(result.worlds)}/{worlds} "
                          f"worlds, {len(parse_diagnostics) + len(result.diagnostics)} "
                          "diagnostics")
        fingerprint = result.registry.fingerprint if result.registry is not None else None
        return elapsed, decls, fingerprint

    # -- one in-process CLI run ------------------------------------------------------

    def cli_once(self, case) -> float:
        files, world, chain, status, ticks, golden = case
        argv = ["run", *(str(MODELS_DIR / f) for f in files), "--world", world]
        if chain is not None:
            argv += ["--chain", chain]
        if golden is not None:
            trace = OUT_DIR / golden
            argv += ["--trace", str(trace)]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = self.xfo.cli.main(argv, out=out, err=err)
        elapsed = time.perf_counter() - start
        match = _STATUS.match(out.getvalue().strip())
        ok = code == 0 and not err.getvalue() and match is not None
        ok = ok and match.group(1) == status and int(match.group(2)) == ticks
        if ok:
            # The same run must print the same fingerprint every time.
            seen = self.cli_seen.setdefault(case, match.group(3))
            ok = seen == match.group(3)
        if ok and golden is not None:
            ok = trace.read_bytes() == (GOLDEN_DIR / golden).read_bytes()
        self.tally.op(ok, f"cli run {world} {chain}: code {code} {out.getvalue()!r} "
                          f"{err.getvalue()!r}")
        return elapsed

    def cli_pass(self) -> list[float]:
        cases = list(CLI_CASES)
        self.rng.shuffle(cases)
        return [self.cli_once(case) for case in cases]

    # -- entry points ----------------------------------------------------------------

    def checkpoint(self) -> str:
        _, _, fingerprint = self.compile_once(self.size["units"])
        for case in CLI_CASES:
            self.cli_once(case)
        lines = [str(fingerprint)] + [f"{case[1]} {case[2]} {fp}"
                                      for case, fp in sorted(self.cli_seen.items())]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]

    def measure(self, seconds: float) -> dict:
        setups, raw_setups = [], []
        for _ in range(self.size["setups"]):
            factor = self.speed.sample()
            start = time.perf_counter()
            self.setup()
            raw_setups.append(time.perf_counter() - start)
            setups.append(raw_setups[-1] * factor)

        # Each compile and each CLI pass is scaled by the speed sampled before it.
        compiles, cli, raw_cli = [], [], []
        decls_total = 0
        fingerprints = set()
        deadline = time.perf_counter() + seconds
        while True:
            factor = self.speed.sample()
            elapsed, decls, fingerprint = self.compile_once(self.size["units"])
            compiles.append(elapsed * factor)
            decls_total += decls
            fingerprints.add(fingerprint)
            # CLI runs take about as long as the compile that preceded them.
            spent = 0.0
            while spent < elapsed:
                factor = self.speed.sample()
                batch = self.cli_pass()
                raw_cli += batch
                cli += [t * factor for t in batch]
                spent += sum(batch)
            if time.perf_counter() >= deadline:
                break
        self.tally.op(len(fingerprints) == 1, "registry fingerprint changed between compiles")
        checkpoint = self.checkpoint()
        raw_us = [t * 1e6 for t in raw_cli]
        cli_us = [t * 1e6 for t in cli]
        rate = median([decls_total / len(compiles) / t for t in compiles])
        return {
            "setup_s": median(setups),
            "work_per_s": rate,
            "op_p50_us": percentile(cli_us, 50),
            "op_p99_us": percentile(raw_us, 99),
            "detail": {
                "decls_per_compile": decls_total // len(compiles),
                "compiles": len(compiles),
                "compile_decls_per_s": rate,
                "compile_s_median": median(compiles),
                "cli_runs": len(cli_us),
                "cli_run_p50_ms": percentile(cli_us, 50) / 1e3,
                "cli_run_p99_ms": percentile(raw_us, 99) / 1e3,
                "raw": {"setup_s": median(raw_setups), "op_p50_us": percentile(raw_us, 50)},
                "kernel_ms": median(self.speed.samples) * 1e3,
                "registry_fingerprint": next(iter(fingerprints)),
                "checkpoint_fingerprint": checkpoint,
                "final_fingerprint": checkpoint,
            },
            "checkpoint": checkpoint,
        }

    def traced(self, tracer) -> dict:
        """One compile per size of the sweep; CLI passes at the largest size."""
        size = self.size
        largest = size["sweep"][-1]
        for units in size["sweep"]:
            tracer.begin_run(f"units={units}")
            with tracer.active():
                start = time.perf_counter()
                self.compile_once(units)
                if units == largest:
                    for _ in range(size["traced_passes"]):
                        self.cli_pass()
                window = (start, time.perf_counter())
        start = time.perf_counter()
        self.compile_once(largest)
        for _ in range(size["traced_passes"]):
            self.cli_pass()
        untraced = time.perf_counter() - start
        return {
            "main": f"units={largest}",
            "small": f"units={size['sweep'][0]}",
            "large": f"units={largest}",
            "window": window,
            "untraced_wall_s": untraced,
            "phase": "compile and CLI passes",
        }
