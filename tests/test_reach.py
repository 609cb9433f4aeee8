"""Every function under src/xfo is entered by the CLI contract or serves a public entry.

Run as a script, this file is the probe: it installs ``sys.setprofile``
before it imports xfo, so calls made at import time count, runs every row of
``test_cli_contract.ROWS`` and prints, as JSON, where each entered function
of the package starts. The test runs it in one child process and compares
against every ``def`` in the package's source, matched by file, first line
(a decorated function starts at its first decorator) and name. A function the
contract does not enter must be in ``API_ONLY``, with the public entry it
serves: a name in ``xfo.__all__`` or ``xfo.lang.__all__``, a public attribute
of a class named there, or ``tracer:<span>`` for an entry point that
``perfbench/tracer.py`` wraps by name (its ``install`` reads
``vars(owner)[attr]``, so such a function must exist).
"""

# The standard library only at module level: the probe imports xfo after its hook is installed.
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# ``file:qualified name`` of a function the contract does not enter -> the public entry it serves.
API_ONLY = {
    "discourse.py:Claim.supported": "Claim.supported",
    "discourse.py:ClaimLedger.__init__": "ClaimLedger",
    "discourse.py:ClaimLedger.add_claim": "ClaimLedger.add_claim",
    "discourse.py:ClaimLedger.attach_evidence": "ClaimLedger.attach_evidence",
    "discourse.py:ClaimLedger.claim": "ClaimLedger.claim",
    "discourse.py:ClaimLedger.supported": "ClaimLedger.supported",
    "discourse.py:ClaimLedger.validate_evidence": "ClaimLedger.validate_evidence",
    "errors.py:DanglingReferenceError.__init__": "RegistryBuilder.resolve",
    "foundry.py:Foundry.facets": "Foundry.facets",
    "foundry.py:Foundry.modules": "Foundry.modules",
    "kinds.py:KindTable.is_subkind": "tracer:kinds.is_subkind",
    "kinds.py:KindTable.names": "KindTable.names",
    "lang/compiler.py:ModuleInfo.fingerprint": "ModuleInfo.fingerprint",
    "lang/compiler.py:module_fingerprint": "module_fingerprint",
    "lang/expand.py:register_family": "register_family",
    "lang/printer.py:_escape": "module_to_source",
    "lang/printer.py:_pattern": "module_to_source",
    "lang/printer.py:_steps": "module_to_source",
    "lang/printer.py:_term": "module_to_source",
    "lang/printer.py:module_to_source": "module_to_source",
    "microworld.py:Microworld.add_interaction_rule": "Microworld.add_interaction_rule",
    "microworld.py:Microworld.begin_process": "Microworld.begin_process",
    "microworld.py:Microworld.bind_member": "Microworld.bind_member",
    "microworld.py:Microworld.clone": "Microworld.clone",
    "microworld.py:Microworld.destroy": "Microworld.destroy",
    "microworld.py:Microworld.end_process": "Microworld.end_process",
    "microworld.py:Microworld.export_timeline": "Microworld.export_timeline",
    "microworld.py:Microworld.fire_one_interaction.<locals>.holds": "Microworld.add_interaction_rule",
    "microworld.py:Microworld.instantiate_aggregate": "Microworld.instantiate_aggregate",
    "microworld.py:Microworld.new_id": "Microworld.new_id",
    "microworld.py:Microworld.restore": "Microworld.restore",
    "microworld.py:Microworld.retract_relation": "Microworld.retract_relation",
    "microworld.py:Microworld.snapshot": "Microworld.snapshot",
    # The README promises that records print as dataclasses do; this one shows ``edits=``.
    "microworld.py:TimelineEvent.__repr__": "TimelineEvent.__repr__",
    "microworld.py:TimelineEvent.edit": "TimelineEvent.edit",
    "microworld.py:TimelineEvent.edits": "TimelineEvent.edits",
    "registry.py:Registry.aggregate": "Registry.aggregate",
    "registry.py:Registry.aggregates": "Registry.aggregates",
    "registry.py:Registry.chains": "Registry.chains",
    "registry.py:Registry.determinable_declarers": "Registry.determinable_declarers",
    "registry.py:Registry.is_determinable": "Registry.is_determinable",
    "registry.py:Registry.need": "Registry.need",
    "registry.py:Registry.process": "Registry.process",
    "registry.py:Registry.qualities": "Registry.qualities",
    "registry.py:Registry.realizables": "Registry.realizables",
    "registry.py:Registry.relations": "Registry.relations",
    "registry.py:Registry.schemas": "Registry.schemas",
    "registry.py:RegistryBuilder.__contains__": "RegistryBuilder.__contains__",
    "registry.py:RegistryBuilder.__len__": "RegistryBuilder.__len__",
    "registry.py:RegistryBuilder.register_all": "RegistryBuilder.register_all",
    "registry.py:RegistryBuilder.resolve": "RegistryBuilder.resolve",
    "registry.py:validate_registry": "validate_registry",
    "relations.py:AggregateInstance.bound_slots": "AggregateInstance.bound_slots",
    "relations.py:RelationStore._aggregate_of": "RelationStore.bind_member",
    "relations.py:RelationStore._check_member": "RelationStore.bind_member",
    "relations.py:RelationStore._orphans": "RelationStore.bind_member",
    "relations.py:RelationStore._revive": "RelationStore.destroy_instance",
    "relations.py:RelationStore.aggregate_view": "RelationStore.aggregate_view",
    "relations.py:RelationStore.bind_member": "RelationStore.bind_member",
    "relations.py:RelationStore.clone": "RelationStore.clone",
    "relations.py:RelationStore.destroy_instance": "RelationStore.destroy_instance",
    "relations.py:RelationStore.instances": "RelationStore.instances",
    "relations.py:RelationStore.instantiate_aggregate_from_member":
        "RelationStore.instantiate_aggregate_from_member",
    "relations.py:RelationStore.is_independent_continuant":
        "RelationStore.is_independent_continuant",
    "relations.py:RelationStore.link_part": "RelationStore.link_part",
    "relations.py:RelationStore.linkage": "RelationStore.linkage",
    "relations.py:RelationStore.live_triples": "RelationStore.live_triples",
    "relations.py:RelationStore.records": "RelationStore.records",
    "relations.py:RelationStore.register_instance": "RelationStore.register_instance",
    "relations.py:RelationStore.retract_relation": "RelationStore.retract_relation",
    "relations.py:Triple.live_at": "Triple.live_at",
    "relations.py:_slot_triples": "RelationStore.bind_member",
    "schemas.py:AggregateSchema.member": "RelationStore.bind_member",
    "schemas.py:step_depth": "thick_chain_summary",
    "schemas.py:text": "compile_modules",  # a string literal in a pattern or edit
    "transitions.py:ChainInstance.program_counter": "ChainInstance.program_counter",
    "transitions.py:thick_chain_summary": "thick_chain_summary",
}


def _public_entries():
    import xfo
    import xfo.lang

    entries = set()
    for module in (xfo, xfo.lang):
        for name in module.__all__:
            entries.add(name)
            owner = getattr(module, name)
            if isinstance(owner, type):
                entries.update(f"{name}.{attr}" for attr in dir(owner)
                               if not attr.startswith("_") or attr.endswith("__"))
    tracer = ast.parse((REPO / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (points,) = (node.value for node in tracer.body if isinstance(node, ast.Assign)
                 and ast.unparse(node.targets[0]) == "ENTRY_POINTS")
    entries.update(f"tracer:{span}" for span, _owner, _attr in ast.literal_eval(points))
    return entries


def _defs(package):
    """``file:qualified name`` -> (file, first line, name) of every ``def`` under ``package``."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        file = path.relative_to(package).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{file}:{prefix}{child.name}"
                    assert key not in found, f"two defs of {key}"
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[key] = (file, first, child.name)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _entered(package):
    """The (file, first line, name) of every package function the contract rows enter."""
    paths = [str(package.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, __file__], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {tuple(start) for start in json.loads(done.stdout)}


def test_every_function_is_entered_or_public():
    import xfo

    package = Path(xfo.__file__).resolve().parent
    defs = _defs(package)
    entered = _entered(package)
    unentered = {key for key, start in defs.items() if start not in entered}
    assert sorted(unentered - API_ONLY.keys()) == [], "neither entered nor listed"
    assert sorted(API_ONLY.keys() - unentered) == [], "listed but entered, or gone"
    public = _public_entries()
    assert sorted(v for v in API_ONLY.values() if v not in public) == [], "not a public entry"


def _probe():
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    import xfo
    from test_cli_contract import ROWS, invoke

    with tempfile.TemporaryDirectory() as scratch:
        for name, row in ROWS.items():
            directory = Path(scratch, name)
            directory.mkdir()
            invoke(row, directory)
    sys.setprofile(None)
    package = Path(xfo.__file__).resolve().parent
    entered = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if path.is_relative_to(package):
            entered.add((path.relative_to(package).as_posix(), code.co_firstlineno, code.co_name))
    json.dump(sorted(entered), sys.stdout)


if __name__ == "__main__":
    _probe()
