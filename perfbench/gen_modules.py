"""Seeded generator of XFO module sets for the compile workload.

Every module is built from "units". A unit declares a fixed number of
top-level items, so the declaration count of a set depends only on its size
while the seed varies the shape: inheritance depth, which earlier module a
unit reaches into, the guards of its transitionals and the nesting of its
chains. The generator counts what it emits; that count is the reference the
compiler's output is checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Top-level declarations per unit: 1 quality, 4 objects, 1 relation,
# 1 aggregate, 2 transitionals, 1 chain, 1 disposition, 1 world.
DECLS_PER_UNIT = 12
WORLDS_PER_UNIT = 1
# Registry entries per unit: every declaration but the world, plus one role.
SCHEMAS_PER_UNIT = DECLS_PER_UNIT - WORLDS_PER_UNIT + 1


@dataclass(frozen=True)
class ModuleSet:
    sources: tuple[tuple[str, str], ...]  # (module name, source text)
    decls: int  # top-level declarations emitted
    schemas: int  # registry entries the set must resolve to
    worlds: int


def _unit(rng: random.Random, tag: str, imported: list[str]) -> str:
    """One unit of declarations; ``imported`` lists units of imported modules."""
    # Inheritance depth: Mid and Leaf extend Base (1), Mid extends a Base that
    # may sit in an imported module (2), and Leaf extends Mid as well (3).
    depth = rng.randint(1, 3)
    parent = f"Base{tag}"
    if imported and rng.random() < 0.5:
        parent = f"Base{rng.choice(imported)}"  # inherit across a module boundary
    mid_parent = parent if depth > 1 else f"Base{tag}"
    leaf_parent = f"Mid{tag}" if depth > 2 else mid_parent
    linkage = rng.choice(("composition", "contained"))
    guards = [f"  require q{tag}(bearer, v0)"]
    if rng.random() < 0.6:
        guards.append(f"  require link{tag}(bearer, ?x)")
        guards.append(f"  require q{tag}(?x, v{rng.randint(0, 2)})")
    cond_value = f"v{rng.randint(0, 2)}"
    body = f"do back{tag}"
    if rng.random() < 0.5:
        body = f"if q{tag}(node, v1) {{ do back{tag} }} else {{ do back{tag} }}"
    chain = (
        f"chain procedure flow{tag} {{\n"
        f"  if q{tag}(node, {cond_value}) {{ do step{tag} }}\n"
        f"  while q{tag}(node, v2) {{ {body} }}\n"
        f"}}\n"
    )
    return (
        f"quality q{tag} {{ v0, v1, v2 }}\n"
        f"object Base{tag} {{\n  quality q{tag}: q{tag} required\n  role r{tag}\n}}\n"
        f"object Part{tag} {{ }}\n"
        f"object Mid{tag} : {mid_parent} {{\n"
        f"  part core: Part{tag} function \"carries the load\" {linkage}\n}}\n"
        f"object Leaf{tag} : {leaf_parent} {{\n  quality w{tag}: q{tag}\n}}\n"
        f"relation link{tag}(Base{tag}, Base{tag})\n"
        f"aggregate Team{tag} {{\n  member lead: Base{tag}\n  member aide: Base{tag}\n"
        f"  link link{tag}(lead, aide)\n}}\n"
        f"transitional step{tag} on Base{tag} {{\n"
        + "\n".join(guards)
        + f"\n  delete q{tag}(bearer, v0)\n  create q{tag}(bearer, v2)\n}}\n"
        f"transitional back{tag} on Base{tag} {{\n"
        f"  require q{tag}(bearer, v2)\n  delete q{tag}(bearer, v2)\n"
        f"  create q{tag}(bearer, v0)\n}}\n"
        + chain
        + f"disposition react{tag} on Base{tag} when link{tag}(bearer, ?y) realize step{tag}\n"
        f"world w{tag} {{\n"
        f"  spawn node: Base{tag} q{tag} = v{rng.randint(0, 2)}\n"
        f"  spawn peer: Base{tag} q{tag} = v{rng.randint(0, 2)}\n"
        f"  assert link{tag}(node, peer)\n}}\n"
    )


def generate(seed: int, modules: int, units_per_module: int) -> ModuleSet:
    """A module set of ``modules`` modules; module i imports one or two earlier ones."""
    rng = random.Random(seed)
    sources: list[tuple[str, str]] = []
    units_of: list[list[str]] = []
    for index in range(modules):
        name = f"gen{index:03d}"
        imports: list[int] = []
        if index:
            imports.append(index - 1)
            if index > 1 and rng.random() < 0.5:
                imports.append(rng.randrange(index - 1))
        imported = [tag for i in imports for tag in units_of[i]]
        tags = [f"{index:03d}x{u:02d}" for u in range(units_per_module)]
        header = "# facet: physical\n" + "".join(f"import gen{i:03d}\n" for i in imports)
        text = header + "".join(_unit(rng, tag, imported) for tag in tags)
        sources.append((name, text))
        units_of.append(tags)
    units = modules * units_per_module
    return ModuleSet(
        tuple(sources),
        decls=units * DECLS_PER_UNIT,
        schemas=units * SCHEMAS_PER_UNIT,
        worlds=units * WORLDS_PER_UNIT,
    )
