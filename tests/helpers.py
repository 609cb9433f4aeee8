"""Shared test plumbing: compile inline sources, build scratch worlds, count
calls and cyclic garbage."""

import gc

from xfo import build_world, compile_modules, format_diagnostics, parse_module


def parse_ok(text, name="scratch"):
    module, diagnostics = parse_module(text, name=name)
    assert not diagnostics, format_diagnostics(diagnostics)
    return module


def compile_sources(sources: dict[str, str]):
    modules = []
    parse_diagnostics = []
    for name, text in sources.items():
        module, diagnostics = parse_module(text, name=name)
        parse_diagnostics.extend(diagnostics)
        modules.append(module)
    result = compile_modules(modules)
    result.diagnostics = parse_diagnostics + result.diagnostics
    return result


def compile_ok(sources: dict[str, str]):
    result = compile_sources(sources)
    assert result.ok, format_diagnostics(result.diagnostics)
    return result


def world_from(corpus_result, world_name, seed=None):
    world_def = corpus_result.world(world_name)
    assert world_def is not None, f"no world {world_name!r}"
    return build_world(corpus_result.registry, world_def, seed=seed)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; the returned list grows by each
    call's positional arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def cyclic_garbage(call):
    """Call ``call()`` with the collector off; (its result, the number of
    objects it left in reference cycles).

    With the collector off, every object the call allocates stays in the
    youngest generation, so collecting that generation alone finds each
    cycle of them. A full collection walks the test run's whole heap and
    made the two tests that use this about eight times slower.
    """
    gc.collect(0)
    gc.disable()
    try:
        result = call()
        return result, gc.collect(0)
    finally:
        gc.enable()
