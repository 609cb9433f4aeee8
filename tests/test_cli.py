import io
import json

import pytest
from conftest import CORPUS_FILES, MODELS_DIR
from helpers import count_calls

import xfo.lang.compiler
from xfo.cli import main

CORPUS_PATHS = [str(MODELS_DIR / name) for name in CORPUS_FILES]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_validate_corpus_exits_zero_silently():
    code, out, err = invoke(["validate", *CORPUS_PATHS])
    assert code == 0
    assert out == ""
    assert err == ""


def test_validate_reports_errors_and_exits_one(tmp_path):
    bad = tmp_path / "bad.xfo"
    bad.write_text("object Bench { part oven: Kiln function \"bakes\" }\n")
    code, out, err = invoke(["validate", str(bad)])
    assert code == 1
    assert "DanglingReference" in err
    assert "bad.xfo" in err


def test_compile_prints_fingerprint():
    code, out, _ = invoke(["compile", *CORPUS_PATHS])
    assert code == 0
    fingerprint = out.strip()
    assert len(fingerprint) == 16
    int(fingerprint, 16)


def test_compile_without_files_is_usage_error(capsys):
    code, _, _ = invoke(["compile"])
    assert code == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = invoke(["frobnicate"])
    assert code == 2


def test_run_trace_ends_with_green(tmp_path):
    trace = tmp_path / "out.ndjson"
    code, out, _ = invoke(
        [
            "run",
            str(MODELS_DIR / "trafficlight.xfo"),
            "--world",
            "demo",
            "--chain",
            "cycle",
            "--ticks",
            "10",
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    assert out.startswith("status=completed")
    lines = trace.read_text().splitlines()
    last = json.loads(lines[-1])
    assert last["name"] == "turn_green"
    assert ["light", "color", "green"] in last["edits"]["creates"]


@pytest.mark.parametrize("model, args, line", [
    ("trafficlight.xfo", ["--world", "demo", "--chain", "cycle"],
     "status=completed ticks=1 fingerprint=625c1cefbdda0167"),
    ("trafficlight.xfo", ["--world", "demo", "--chain", "cycle", "--ticks", "1"],
     "status=completed ticks=1 fingerprint=625c1cefbdda0167"),
    ("waterdropper-goryeo.xfo", ["--world", "studio", "--chain", "pottery"],
     "status=completed ticks=3 fingerprint=2b2a797fd54a8de3"),
    ("clock-orchestra.xfo", ["--world", "workshop", "--chain", "unwind"],
     "status=completed ticks=1 fingerprint=55ace35b0f3ed3d9"),
    ("windshield.xfo", ["--world", "crash_test"],
     "status=quiescent ticks=0 fingerprint=08061ec0db0c28be"),
    ("village-gangjin.xfo", ["--world", "gangjin"],
     "status=quiescent ticks=0 fingerprint=e1dd00ab8daaae57"),
])
def test_run_status_line_of_each_corpus_world(model, args, line):
    assert invoke(["run", str(MODELS_DIR / model), *args]) == (0, line + "\n", "")


def test_run_trace_to_an_unwritable_path_is_one_error_line(tmp_path):
    trace = tmp_path / "missing-dir" / "t.ndjson"
    code, out, err = invoke(
        ["run", str(MODELS_DIR / "trafficlight.xfo"), "--world", "demo", "--chain", "cycle",
         "--trace", str(trace)]
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {trace}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_run_unknown_world_exits_one():
    code, _, err = invoke(
        ["run", str(MODELS_DIR / "trafficlight.xfo"), "--world", "nowhere"]
    )
    assert code == 1
    assert "unknown world" in err


def test_run_interaction_mode_quiesces():
    code, out, _ = invoke(
        ["run", str(MODELS_DIR / "trafficlight.xfo"), "--world", "demo", "--ticks", "5"]
    )
    assert code == 0
    assert out.startswith("status=quiescent")


def test_equiv_reordered_chains_equivalent():
    code, out, _ = invoke(
        [
            "equiv",
            str(MODELS_DIR / "trafficlight.xfo"),
            "--a",
            "cycle",
            "--b",
            "go_green_swapped",
            "--space",
            "light:TrafficLight",
        ]
    )
    assert code == 0
    assert out.strip() == "equivalent states=3"


def test_equiv_counterexample():
    code, out, _ = invoke(
        [
            "equiv",
            str(MODELS_DIR / "trafficlight.xfo"),
            "--a",
            "cycle",
            "--b",
            "go_yellow",
            "--space",
            "light:TrafficLight",
        ]
    )
    assert code == 0
    assert out.strip() == "counterexample: light.color=red"


def test_equiv_bad_space_spec():
    code, _, err = invoke(
        [
            "equiv",
            str(MODELS_DIR / "trafficlight.xfo"),
            "--a",
            "cycle",
            "--b",
            "go_yellow",
            "--space",
            "justaname",
        ]
    )
    assert code == 1
    assert "bad space entry" in err


@pytest.mark.parametrize("chain_a, space, message", [
    ("nope", "l:TrafficLight", "error: unknown chain: nope"),
    ("cycle", "o:Orchestra", "error: 'Orchestra' is not an object schema"),
    ("cycle", ",", "error: state space is empty"),
])
def test_equiv_error_is_one_line_and_exit_one(chain_a, space, message):
    code, out, err = invoke(
        ["equiv", *CORPUS_PATHS, "--a", chain_a, "--b", "go_yellow", "--space", space]
    )
    assert (code, out, err) == (1, "", message + "\n")


def test_metrics_lines_are_tab_separated():
    code, out, _ = invoke(
        [
            "metrics",
            *CORPUS_PATHS,
            "--orthogonality",
            "trafficlight",
            "windshield",
            "--specificity",
            "CeladonDropper",
            "--exhaustivity",
            "glaze_color,moisture,calligrapher",
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "orthogonality\ttrafficlight windshield\t1.0"
    assert lines[1] == "specificity\tCeladonDropper\t3"
    assert lines[2] == "exhaustivity\tglaze_color,moisture,calligrapher\t2"


def test_metrics_computes_no_module_fingerprint(monkeypatch):
    # Module names are distinct once compiled, so no fingerprint is compared.
    calls = count_calls(monkeypatch, xfo.lang.compiler, "module_fingerprint")
    code, out, _ = invoke(["metrics", *CORPUS_PATHS, "--specificity", "TrafficLight"])
    assert (code, out) == (0, "specificity\tTrafficLight\t1\n")
    assert calls == []


def test_metrics_without_request_is_usage_error():
    code, _, err = invoke(["metrics", *CORPUS_PATHS])
    assert code == 2
    assert "nothing requested" in err


def test_inus_subcommand(tmp_path):
    field = tmp_path / "fire.field"
    field.write_text(
        "outcome house_fire\n"
        "conditions short_circuit, flammable_material, arson\n"
        "sufficient short_circuit flammable_material\n"
        "sufficient arson\n"
    )
    code, out, _ = invoke(["inus", str(field), "--condition", "short_circuit"])
    assert code == 0
    assert out.strip() == (
        "condition=short_circuit inus=true witness=flammable_material+short_circuit"
    )
    code, out, _ = invoke(["inus", str(field), "--condition", "arson"])
    assert code == 0
    assert out.strip() == "condition=arson inus=false witness=-"


def test_inus_field_file_accepts_condition_and_conditions_lines(tmp_path):
    field = tmp_path / "mixed.field"
    field.write_text(
        "outcome fire\n"
        "condition spark\n"
        "conditions fuel, arson\n"
        "sufficient spark fuel\n"
        "sufficient arson\n"
    )
    code, out, _ = invoke(["inus", str(field), "--condition", "fuel"])
    assert code == 0
    assert out.strip() == "condition=fuel inus=true witness=fuel+spark"


def test_validate_names_an_empty_string_by_its_source_text(tmp_path):
    model = tmp_path / "empty.xfo"
    model.write_text('quality "" { a }\n')
    code, out, err = invoke(["validate", str(model)])
    assert code == 1
    assert out == ""
    assert err == "empty.xfo:1:9: error[SyntaxError]: expected quality name, found '\"\"'\n"


def test_validate_reports_a_repeated_determinant_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "dup.xfo"
    path.write_text("quality hue { a, a }\n")
    code, out, err = invoke(["validate", str(path)])
    assert (code, out) == (1, "")
    assert err == "dup.xfo:1:1: error[DuplicateName]: quality 'hue' repeats a determinant\n"
    # The parser is built once and reused: a second call gives the same result.
    assert invoke(["validate", str(path)]) == (code, out, err)
    assert invoke(["compile"])[0] == 2


def test_inus_bad_field_file(tmp_path):
    field = tmp_path / "broken.field"
    field.write_text("nonsense here\n")
    code, _, err = invoke(["inus", str(field), "--condition", "x"])
    assert code == 1
    assert "bad field line" in err


def test_expand_output_deterministic():
    code, out, _ = invoke(["expand", "--root", "bak"])
    assert code == 0
    assert out == (
        "role baker on Person\n"
        "process baking participants Person\n"
        "object bakery\n"
        "link has_role(Person, baker)\n"
        "link participates_in(Person, baking)\n"
        "link located_in(baking, bakery)\n"
    )


def test_expand_empty_root_errors():
    code, _, err = invoke(["expand", "--root", ""])
    assert code == 1
    assert "identifier" in err


def test_missing_file_reported():
    code, _, err = invoke(["compile", "no/such/file.xfo"])
    assert code == 1
    assert "cannot read" in err


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


def test_diagnostics_name_the_file_given(tmp_path):
    model = tmp_path / "user.model"
    model.write_text("object Bench { part oven: Kiln function \"bakes\" }\n")
    code, _, err = invoke(["validate", str(model)])
    assert code == 1
    assert err.startswith("user.model:1:")
