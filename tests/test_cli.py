import io

from conftest import CORPUS_FILES, MODELS_DIR
from helpers import count_calls

import xfo.lang.compiler
from xfo.cli import main

CORPUS_PATHS = [str(MODELS_DIR / name) for name in CORPUS_FILES]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_unknown_subcommand_is_usage_error():
    # Argparse words an invalid choice differently across releases, so this is no contract row.
    code, out, err = invoke(["frobnicate"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: xfo")


def test_help_goes_to_the_given_stdout():
    code, out, err = invoke(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: xfo")


def test_metrics_computes_no_module_fingerprint(monkeypatch):
    # Module names are distinct once compiled, so no fingerprint is compared.
    calls = count_calls(monkeypatch, xfo.lang.compiler, "module_fingerprint")
    code, out, _ = invoke(["metrics", *CORPUS_PATHS, "--specificity", "TrafficLight"])
    assert (code, out) == (0, "specificity\tTrafficLight\t1\n")
    assert calls == []


def test_validate_reports_a_repeated_determinant_without_a_traceback(tmp_path):
    path = tmp_path / "dup.xfo"
    path.write_text("quality hue { a, a }\n")
    code, out, err = invoke(["validate", str(path)])
    assert (code, out) == (1, "")
    assert err == "dup.xfo:1:1: error[DuplicateName]: quality 'hue' repeats a determinant\n"
    # The parser is built once and reused: a second call gives the same result.
    assert invoke(["validate", str(path)]) == (code, out, err)
    assert invoke(["compile"])[0] == 2


def test_stdout_byte_identical_across_invocations(tmp_path):
    argv = [
        "run",
        str(MODELS_DIR / "trafficlight.xfo"),
        "--world",
        "demo",
        "--chain",
        "cycle",
        "--ticks",
        "10",
        "--seed",
        "13",
    ]
    outputs = set()
    for _ in range(5):
        code, out, _ = invoke(argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
