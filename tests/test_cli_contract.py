"""The CLI contract: every pinned line of the ``xfo`` CLI, run in-process through ``cli.main``.

Each row of ``ROWS`` is one command: its argv, the input files it writes to
its own directory (text as UTF-8, bytes as they are), the exact stdout and
stderr lines and the exit code. In an argv, ``models/*.xfo`` stands for the
corpus files in the shell glob's order, ``models/<name>`` for one corpus file
and a name in ``files`` for that input file; every other argument passes as
written. The output names an input file as it is named in ``files``. No row
but one leaves an object in a reference cycle. A re-pin is one edit here:
CI runs this table in tier-1 and checks beside it only that ``python -m
xfo.cli`` starts on the corpus. ``tests/test_reach.py`` runs the same rows to
decide which functions the contract enters.
"""

import io
import os
import shlex
import time
from typing import NamedTuple

import pytest
from conftest import CORPUS_FILES, MODELS_DIR
from helpers import cyclic_garbage

from xfo.cli import main


class Row(NamedTuple):
    command: str
    out: tuple[str, ...] = ()
    err: tuple[str, ...] = ()
    code: int = 0
    files: dict[str, str | bytes] = {}
    seconds: float | None = None  # a wall-clock bound, as CI's ``timeout``


LIGHTS = "".join(f"l{i:02d}:TrafficLight," for i in range(12))
BIG_FIELD = "".join([
    "outcome big\n",
    *(f"condition c{i}\n" for i in range(40)),
    "sufficient " + " ".join(f"c{i}" for i in range(20)) + "\n",
    "sufficient " + " ".join(f"c{i}" for i in range(20, 40)) + "\n",
])
FIRE_FIELD = ("outcome house_fire\nconditions short_circuit, flammable_material, arson\n"
              "sufficient short_circuit flammable_material\nsufficient arson\n")
TRAFFIC_BOM = "\ufeff" + (MODELS_DIR / "trafficlight.xfo").read_text(encoding="utf-8")
DANGLING_KILN = 'object Bench { part oven: Kiln function "bakes" }\n'
OBJECT_ITEM = "error[SyntaxError]: expected an object item (quality/part/function/role), found"

ROWS = {
    # The corpus validates and compiles
    "validate-corpus": Row("validate models/*.xfo"),
    "compile-corpus": Row("compile models/*.xfo", out=("387a3353570b14a8",)),
    # A leading UTF-8 byte-order mark is ignored
    "compile-trafficlight": Row("compile models/trafficlight.xfo", out=("0e13b973bef2d886",)),
    "compile-bom": Row("compile trafficlight.xfo", files={"trafficlight.xfo": TRAFFIC_BOM},
                       out=("0e13b973bef2d886",)),
    "validate-bom": Row("validate trafficlight.xfo", files={"trafficlight.xfo": TRAFFIC_BOM}),
    "compile-missing-file": Row(
        "compile no/such/file.xfo",
        err=("error: cannot read no/such/file.xfo: No such file or directory",), code=1),
    # Argparse's usage errors go to the stream ``main`` was given
    "compile-without-files": Row(
        "compile",
        err=("usage: xfo compile [-h] files [files ...]",
             "xfo compile: error: the following arguments are required: files"),
        code=2),
    # Run status lines: each corpus world, interaction mode and an unknown world
    "run-trafficlight": Row(
        "run models/trafficlight.xfo --world demo --chain cycle",
        out=("status=completed ticks=1 fingerprint=625c1cefbdda0167",)),
    "run-trafficlight-ticks-1": Row(
        "run models/trafficlight.xfo --world demo --chain cycle --ticks 1",
        out=("status=completed ticks=1 fingerprint=625c1cefbdda0167",)),
    "run-waterdropper": Row(
        "run models/waterdropper-goryeo.xfo --world studio --chain pottery",
        out=("status=completed ticks=3 fingerprint=2b2a797fd54a8de3",)),
    "run-clock-orchestra": Row(
        "run models/clock-orchestra.xfo --world workshop --chain unwind",
        out=("status=completed ticks=1 fingerprint=55ace35b0f3ed3d9",)),
    "run-windshield": Row(
        "run models/windshield.xfo --world crash_test",
        out=("status=quiescent ticks=0 fingerprint=08061ec0db0c28be",)),
    "run-village": Row(
        "run models/village-gangjin.xfo --world gangjin",
        out=("status=quiescent ticks=0 fingerprint=e1dd00ab8daaae57",)),
    "run-interaction-mode": Row(
        "run models/trafficlight.xfo --world demo --ticks 5",
        out=("status=quiescent ticks=0 fingerprint=bc2fabca0c0711f8",)),
    "run-unknown-world": Row(
        "run models/trafficlight.xfo --world nope",
        err=("error: unknown world: nope",), code=1),
    # An aborted chain says why on stderr; the status line and exit code stay
    "run-aborted": Row(
        "run models/trafficlight.xfo green.xfo --world green --chain cycle",
        files={"green.xfo": "import trafficlight\n"
                            "world green { spawn light: TrafficLight color = green }\n"},
        out=("status=aborted ticks=0 fingerprint=bcd9d4445f712445",),
        err=("aborted: transitional 'turn_green' blocked: guard failed at color(bearer, red)",)),
    # A tick budget below one is named as the budget
    "run-ticks-0": Row(
        "run models/trafficlight.xfo --world demo --chain cycle --ticks 0",
        err=("error: the tick budget must be positive, got 0",), code=1),
    "run-ticks-negative": Row(
        "run models/trafficlight.xfo --world demo --chain cycle --ticks -1",
        err=("error: the tick budget must be positive, got -1",), code=1),
    # A trace that cannot be written is one error line, not a traceback
    "run-unwritable-trace": Row(
        "run models/trafficlight.xfo --world demo --chain cycle --trace /nonexistent/dir/t.ndjson",
        err=("error: cannot write /nonexistent/dir/t.ndjson: No such file or directory",), code=1),
    # Foundry metrics on the corpus, and each request it cannot answer
    "metrics-corpus": Row(
        "metrics models/*.xfo --orthogonality trafficlight windshield"
        " --specificity TrafficLight --exhaustivity TrafficLight,Windshield",
        out=("orthogonality\ttrafficlight windshield\t1.0",
             "specificity\tTrafficLight\t1",
             "exhaustivity\tTrafficLight,Windshield\t1")),
    "metrics-celadon-dropper": Row(
        "metrics models/*.xfo --specificity CeladonDropper",
        out=("specificity\tCeladonDropper\t3",)),
    "metrics-orchestra": Row(
        "metrics models/*.xfo --specificity Orchestra", out=("specificity\tOrchestra\t1",)),
    "metrics-pottery": Row(
        "metrics models/*.xfo --orthogonality trafficlight windshield"
        " --specificity CeladonDropper --exhaustivity glaze_color,moisture,calligrapher",
        out=("orthogonality\ttrafficlight windshield\t1.0",
             "specificity\tCeladonDropper\t3",
             "exhaustivity\tglaze_color,moisture,calligrapher\t2")),
    "metrics-nothing-requested": Row(
        "metrics models/*.xfo",
        err=("error: nothing requested; give --orthogonality, --specificity or --exhaustivity",),
        code=1),
    "metrics-unknown-module": Row(
        "metrics models/*.xfo --orthogonality trafficlight nope",
        err=("error: unknown module: nope",), code=1),
    "metrics-unknown-schema": Row(
        "metrics models/*.xfo --specificity Nope", err=("error: unknown schema: Nope",), code=1),
    "metrics-unknown-term": Row(
        "metrics models/*.xfo --exhaustivity nope",
        err=("error: term 'nope' belongs to no registered module",), code=1),
    "metrics-empty-exhaustivity": Row(
        "metrics models/*.xfo --exhaustivity ,",
        err=("error: exhaustivity term list is empty",), code=1),
    # A dangling reference is named by the file given, whatever its suffix
    "validate-dangling": Row(
        "validate bad.xfo", files={"bad.xfo": DANGLING_KILN},
        err=("bad.xfo:1:16: error[DanglingReference]: "
             "'Kiln' is not declared in this module or its imports",),
        code=1),
    "validate-user-model": Row(
        "validate user.model", files={"user.model": DANGLING_KILN},
        err=("user.model:1:16: error[DanglingReference]: "
             "'Kiln' is not declared in this module or its imports",),
        code=1),
    # A declaration the parser drops is reported once
    "validate-broken": Row(
        "validate broken.xfo",
        files={"broken.xfo": "quality hue { }\nobject Lamp { quality hue: hue required }\n"},
        err=("broken.xfo:1:15: error[SyntaxError]: expected determinant, found '}'",), code=1),
    # Resync passes over a quality slot, stops at the next declaration
    "validate-phantom": Row(
        "validate phantom.xfo",
        files={"phantom.xfo": "quality hue { red }\nobject Lamp {\n  quality a: hue\n  bogus\n"
                              "  quality b: hue\n}\nrelation lit(b, b)\n"},
        err=(f"phantom.xfo:4:3: {OBJECT_ITEM} 'bogus'",
             "phantom.xfo:7:1: error[DanglingReference]: "
             "'b' is not declared in this module or its imports"),
        code=1),
    "validate-unclosed": Row(
        "validate unclosed.xfo",
        files={"unclosed.xfo": "quality hue { red }\nobject Lamp {\n  quality a: hue\n"
                               "object B { }\nrelation lit(B, Lamp)\n"},
        err=(f"unclosed.xfo:4:1: {OBJECT_ITEM} 'object'",), code=1),
    "validate-keyword": Row(
        "validate keyword.xfo",
        files={"keyword.xfo": 'object world { }\nobject A {\n  bogus\n  part q: world function "y"\n}\n'},
        err=(f"keyword.xfo:3:3: {OBJECT_ITEM} 'bogus'",), code=1),
    # A repeated determinant and a predicate with two meanings are one diagnostic each
    "validate-dupdet": Row(
        "validate dupdet.xfo",
        files={"dupdet.xfo": "quality hue { a, a }\n"},
        err=("dupdet.xfo:1:1: error[DuplicateName]: quality 'hue' repeats a determinant",), code=1),
    "validate-partof": Row(
        "validate partof.xfo",
        files={"partof.xfo": "object Box { }\nrelation part_of(Box, Box)\n"},
        err=("partof.xfo:2:1: error[DuplicateName]: "
             "relation 'part_of' is also a built-in predicate",),
        code=1),
    # A repeated quality slot and a repeated part slot are one diagnostic each
    "validate-dupslot": Row(
        "validate dupslot.xfo",
        files={"dupslot.xfo": 'quality hue { a }\nobject Gear { }\nobject Lamp {\n'
                              '  quality color: hue\n  part a: Gear function "x"\n'
                              '  quality color: hue required\n  part a: Gear function "y"\n}\n'},
        err=("dupslot.xfo:6:3: error[DuplicateName]: object 'Lamp' repeats quality slot 'color'",
             "dupslot.xfo:7:3: error[DuplicateName]: object 'Lamp' repeats part slot 'a'"),
        code=1),
    # A repeated world or claim, a reserved name and a function serving a
    # schema or an upper name are one line each
    "validate-dupworld": Row(
        "validate dupworld.xfo",
        files={"dupworld.xfo": "world w { }\nworld w { }\n"},
        err=("dupworld.xfo:2:1: error[DuplicateName]: world 'w' is already defined",), code=1),
    "validate-dupclaim": Row(
        "validate dupclaim.xfo",
        files={"dupclaim.xfo": 'claim c "first"\nclaim c "second"\n'},
        err=("dupclaim.xfo:2:1: error[DuplicateName]: claim 'c' is already defined",), code=1),
    "validate-entity": Row(
        "validate entity.xfo",
        files={"entity.xfo": "object Entity { }\n"},
        err=("entity.xfo:1:1: error[ReservedUpperTaxonomyName]: "
             "'Entity' is an upper-taxonomy name and cannot be redeclared",),
        code=1),
    "validate-serves": Row(
        "validate serves.xfo",
        files={"serves.xfo": "object Kiln { }\nobject Oven { function bakes serves Kiln }\n"},
        err=("serves.xfo:2:15: error[DuplicateName]: "
             "function 'bakes' serves 'Kiln', which is not a need",),
        code=1),
    "validate-oven": Row(
        "validate oven.xfo",
        files={"oven.xfo": "object Oven { function bakes serves Entity }\n"},
        err=("oven.xfo:1:15: error[DuplicateName]: "
             "function 'bakes' serves 'Entity', which is not a need",),
        code=1),
    # Equivalence sweep verdicts: one light, then spaces over the corpus
    "equiv-one-light-swapped": Row(
        "equiv models/trafficlight.xfo --a cycle --b go_green_swapped --space light:TrafficLight",
        out=("equivalent states=3",)),
    "equiv-one-light-yellow": Row(
        "equiv models/trafficlight.xfo --a cycle --b go_yellow --space light:TrafficLight",
        out=("counterexample: light.color=red",)),
    "equiv-two-lights": Row(
        "equiv models/*.xfo --a cycle --b go_yellow --space lamp-b:TrafficLight,lamp-a:TrafficLight",
        out=("counterexample: lamp-a.color=red lamp-b.color=green",)),
    "equiv-lights-and-clock": Row(
        "equiv models/*.xfo --a cycle --b go_green_swapped --space b:TrafficLight,a:TrafficLight,c:Clock",
        out=("equivalent states=18",)),
    "equiv-light-two-clocks": Row(
        "equiv models/*.xfo --a cycle --b go_yellow --space m:TrafficLight,z:Clock,a:Clock",
        out=("counterexample: a.tension=wound m.color=red z.tension=wound",)),
    "equiv-light-two-clocks-swapped": Row(
        "equiv models/*.xfo --a cycle --b go_green_swapped --space m:TrafficLight,z:Clock,a:Clock",
        out=("equivalent states=12",)),
    # An equivalence check that cannot start is one error line and exit 1
    "equiv-unknown-chain": Row(
        "equiv models/*.xfo --a nope --b go_yellow --space l:TrafficLight",
        err=("error: unknown chain: nope",), code=1),
    "equiv-not-an-object": Row(
        "equiv models/*.xfo --a cycle --b go_yellow --space o:Orchestra",
        err=("error: 'Orchestra' is not an object schema",), code=1),
    "equiv-empty-space": Row(
        "equiv models/*.xfo --a cycle --b go_yellow --space ,",
        err=("error: state space is empty",), code=1),
    "equiv-bad-space-entry": Row(
        "equiv models/trafficlight.xfo --a cycle --b go_yellow --space justaname",
        err=("error: bad space entry 'justaname'; expected name:Schema",), code=1),
    # Equivalence cone on large spaces
    "equiv-12-lights-swapped": Row(
        f"equiv models/*.xfo --a cycle --b go_green_swapped --space {LIGHTS}",
        out=("equivalent states=531441",), seconds=20),
    "equiv-12-lights-yellow": Row(
        f"equiv models/*.xfo --a cycle --b go_yellow --space {LIGHTS}",
        out=("counterexample: l00.color=red " + " ".join(f"l{i:02d}.color=green" for i in range(1, 12)),),
        seconds=20),
    "equiv-ink": Row(
        "equiv models/*.xfo --a mix_ink --b mix_ink --space d:WaterDropper,s:InkStone,t:InkStick,b:Brush",
        out=("equivalent states=36",), seconds=20),
    # INUS on a 40-condition field finishes; an empty string is named as written
    "inus-40-conditions": Row(
        "inus big.field --condition c0",
        files={"big.field": BIG_FIELD},
        out=("condition=c0 inus=true witness=c0+c1+c10+c11+c12+c13+c14+c15+c16+c17+c18+c19"
             "+c2+c3+c4+c5+c6+c7+c8+c9",),
        seconds=20),
    "validate-empty-string": Row(
        "validate empty.xfo",
        files={"empty.xfo": 'quality "" { a }\n'},
        err=("empty.xfo:1:9: error[SyntaxError]: expected quality name, found '\"\"'",), code=1),
    # INUS verdicts and field-file errors
    "inus-fire-short-circuit": Row(
        "inus fire.field --condition short_circuit", files={"fire.field": FIRE_FIELD},
        out=("condition=short_circuit inus=true witness=flammable_material+short_circuit",)),
    "inus-fire-short-circuit-bom": Row(
        "inus fire.field --condition short_circuit", files={"fire.field": "\ufeff" + FIRE_FIELD},
        out=("condition=short_circuit inus=true witness=flammable_material+short_circuit",)),
    "inus-fire-arson": Row(
        "inus fire.field --condition arson", files={"fire.field": FIRE_FIELD},
        out=("condition=arson inus=false witness=-",)),
    "inus-condition-and-conditions-lines": Row(
        "inus mixed.field --condition fuel",
        files={"mixed.field": "outcome fire\ncondition spark\nconditions fuel, arson\n"
                              "sufficient spark fuel\nsufficient arson\n"},
        out=("condition=fuel inus=true witness=fuel+spark",)),
    "inus-bad-field-line": Row(
        "inus broken.field --condition x", files={"broken.field": "nonsense here\n"},
        err=("error: bad field line: 'nonsense here'",), code=1),
    "inus-unknown-condition": Row(
        "inus f.field --condition nope",
        files={"f.field": "outcome f\nconditions a, b\nsufficient a\nsufficient b\n"},
        err=("error: condition 'nope' not in universe",), code=1),
    "inus-comment-and-blank-lines": Row(
        "inus f.field --condition a",
        files={"f.field": "# fire\n\noutcome f\nconditions a, b\nsufficient a\nsufficient b\n"},
        out=("condition=a inus=false witness=-",)),
    "inus-empty-sufficient": Row(
        "inus f.field --condition a",
        files={"f.field": "outcome f\nconditions a\nsufficient\n"},
        err=("error: empty sufficient set in field file",), code=1),
    "inus-no-outcome": Row(
        "inus f.field --condition a", files={"f.field": "conditions a\nsufficient a\n"},
        err=("error: field file needs an outcome, conditions, and sufficient sets",), code=1),
    "inus-missing-field-file": Row(
        "inus no/such.field --condition a",
        err=("error: cannot read no/such.field: No such file or directory",), code=1),
    # A file that is not UTF-8 is one error line
    "validate-latin-1": Row(
        "validate latin.xfo", files={"latin.xfo": b"object Caf\xe9 { }\n"},
        err=("error: cannot read latin.xfo: 'utf-8' codec can't decode byte 0xe9 "
             "in position 10: invalid continuation byte",), code=1),
    "inus-latin-1": Row(
        "inus latin.field --condition a", files={"latin.field": b"outcome caf\xe9\n"},
        err=("error: cannot read latin.field: 'utf-8' codec can't decode byte 0xe9 "
             "in position 11: invalid continuation byte",), code=1),
    # Macro expansion: the README's example and an empty root
    "expand-bak": Row(
        "expand --root bak",
        out=("role baker on Person",
             "process baking participants Person",
             "object bakery",
             "link has_role(Person, baker)",
             "link participates_in(Person, baking)",
             "link located_in(baking, bakery)")),
    "expand-empty-root": Row(
        "expand --root ''",
        err=("error: activity root must be a non-empty identifier, got ''",), code=1),
}


def argv_of(row, directory):
    argv = []
    for arg in shlex.split(row.command):
        if arg == "models/*.xfo":
            argv += [str(MODELS_DIR / name) for name in CORPUS_FILES]
        elif arg.startswith("models/"):
            argv.append(str(MODELS_DIR / arg.removeprefix("models/")))
        elif arg in row.files:
            argv.append(str(directory / arg))
        else:
            argv.append(arg)
    return argv


def invoke(row, directory):
    """Write the row's files to ``directory``, run it; (exit code, stdout, stderr)."""
    for name, data in row.files.items():
        if isinstance(data, bytes):
            (directory / name).write_bytes(data)
        else:
            (directory / name).write_text(data, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(argv_of(row, directory), out=out, err=err)
    inside = f"{directory}{os.sep}"
    return code, out.getvalue().replace(inside, ""), err.getvalue().replace(inside, "")


# The one row that leaves objects in reference cycles: argparse's own
# HelpFormatter leaves a 6-object cycle behind the usage error it prints.
LEAVES_CYCLES = {"compile-without-files"}


def assert_lines(text, expected):
    """``text`` is the expected lines, each ended by a newline."""
    assert text.split("\n") == [*expected, ""], text


@pytest.mark.parametrize("name", ROWS)
def test_cli_contract(name, tmp_path, monkeypatch):
    row = ROWS[name]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the pinned usage lines at COLUMNS - 2
    start = time.perf_counter()
    (code, out, err), cyclic = cyclic_garbage(lambda: invoke(row, tmp_path))
    elapsed = time.perf_counter() - start
    assert code == row.code, err
    assert_lines(out, row.out)
    assert_lines(err, row.err)
    assert row.seconds is None or elapsed < row.seconds
    assert name in LEAVES_CYCLES or cyclic == 0, f"{cyclic} objects left in reference cycles"
