import faulthandler
from pathlib import Path

import pytest

from xfo import compile_modules, parse_module

MODELS_DIR = Path(__file__).resolve().parents[1] / "models"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# A test still running after this many seconds has hung: the run ends with
# every thread's traceback. The slowest test takes a few seconds.
WATCHDOG_S = 120

CORPUS_FILES = (
    "calligraphy.xfo",
    "clock-orchestra.xfo",
    "trafficlight.xfo",
    "village-gangjin.xfo",
    "waterdropper-goryeo.xfo",
    "windshield.xfo",
)


def load_corpus_modules():
    modules = []
    for filename in CORPUS_FILES:
        path = MODELS_DIR / filename
        module, diagnostics = parse_module(path.read_text(), name=path.stem, file=path.name)
        assert not diagnostics, f"{filename}: {diagnostics}"
        modules.append(module)
    return modules


@pytest.fixture(scope="session")
def corpus_modules():
    return load_corpus_modules()


@pytest.fixture(scope="session")
def corpus(corpus_modules):
    result = compile_modules(corpus_modules)
    assert result.ok, result.diagnostics
    return result


@pytest.fixture(scope="session")
def registry(corpus):
    return corpus.registry


@pytest.fixture(autouse=True)
def watchdog():
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
