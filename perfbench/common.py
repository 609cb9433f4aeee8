"""Shared helpers: locating the checkout, loading xfo from its sources,
statistics, and the tally of attempted and failed operations."""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODELS_DIR = ROOT / "models"
GOLDEN_DIR = ROOT / "tests" / "golden"
FIXTURE = BENCH_DIR / "fixture" / "bench-cycle.xfo"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

CORPUS_FILES = (
    "calligraphy.xfo",
    "clock-orchestra.xfo",
    "trafficlight.xfo",
    "village-gangjin.xfo",
    "waterdropper-goryeo.xfo",
    "windshield.xfo",
)


class MissingSources(Exception):
    """The checkout lacks the program sources or data the benchmark needs."""


def load_xfo():
    """Import xfo from this checkout's ``src`` (never an installed copy)."""
    needed = [ROOT / "src" / "xfo" / "__init__.py", MODELS_DIR, GOLDEN_DIR]
    needed += [MODELS_DIR / name for name in CORPUS_FILES]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        raise MissingSources("missing from the checkout: " + ", ".join(missing))
    sys.path.insert(0, str(ROOT / "src"))
    import xfo  # noqa: PLC0415 - the path is only known at run time
    import xfo.cli  # noqa: PLC0415 - not imported by the package itself

    if Path(xfo.__file__).resolve().parent != ROOT / "src" / "xfo":
        raise MissingSources(f"xfo imported from {xfo.__file__}, not from this checkout")
    return xfo


def parse_files(xfo, paths) -> list:
    """Parse model files; any diagnostic is a benchmark input error."""
    modules = []
    for path in paths:
        module, diagnostics = xfo.lang.parse_module(
            path.read_text(encoding="utf-8"), name=path.stem, file=path.name
        )
        if diagnostics:
            raise ValueError(f"{path.name}: {xfo.format_diagnostics(diagnostics)}")
        modules.append(module)
    return modules


def corpus_paths(with_fixture: bool = True) -> list[Path]:
    paths = [MODELS_DIR / name for name in CORPUS_FILES]
    return paths + [FIXTURE] if with_fixture else paths


def compile_corpus(xfo, with_fixture: bool = True):
    result = xfo.lang.compile_modules(parse_files(xfo, corpus_paths(with_fixture)))
    if not result.ok or result.diagnostics:
        raise ValueError(xfo.format_diagnostics(result.diagnostics))
    return result


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values) -> float:
    return statistics.median(values)


# Kernel time of the machine every timed metric is scaled to.
REFERENCE_KERNEL_S = 0.0035


def _kernel() -> int:
    table = {(f"id-{i:05d}", "color", ("red", "green", "yellow")[i % 3]): i
             for i in range(3000)}
    hits = sum(1 for key in table if key[1] == "color" and key[2] != "blue")
    frozen = frozenset(table)
    ordered = sorted(table, key=lambda key: key[0], reverse=True)
    return hits + len(frozen) + len(ordered)


class Speed:
    """How fast this machine runs Python right now.

    A shared host drifts: on the 2-vCPU x86-64 host of the baseline, a fixed
    loop took from 10 to 18 ms from one 5-10 s window to the next, and every
    op of a run moved with it. ``sample`` times a fixed kernel (strings,
    tuples, a dict, a frozenset and a sort, as in the store's own scans)
    between measured items. A factor turns a
    duration measured now into the duration on a machine where the kernel
    takes REFERENCE_KERNEL_S, so runs made in slow and fast spells compare.
    Each measured item takes the factor sampled just before it. p99 latencies
    are not scaled: the heaviest ops do not follow the kernel, and scaling
    them widened the spread of p99 across runs instead of narrowing it.
    Collection is off during the kernel so that its time does not depend on
    the size of the program's heap.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel now; the factor for the item about to be measured."""
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return REFERENCE_KERNEL_S / statistics.median(self.samples[-5:])


class Tally:
    """Counts operations attempted and those that failed or were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def error(self, what: str) -> None:
        self.op(False, what)
