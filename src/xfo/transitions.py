"""Transitionals as atomic guarded edits, and transition chains.

Guard matching takes the first binding in deterministic query order. An
application grounds its edits and hands them to the store, which validates
and applies them once, as one unit at one tick; an edit the store rejects
blocks the application with the store untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import schemas
from .errors import (
    BearerKindMismatchError,
    ChainAlreadyFinishedError,
    DestroyedBearerError,
    MissingBindingError,
    UnknownChainError,
    XfoError,
)
from .records import record
from .relations import RelationStore

DEFAULT_LOOP_CAP = 10_000

PLANNED = "planned"
RUNNING = "running"
COMPLETED = "completed"
ABORTED = "aborted"

LOOP_CAP_REASON = "NonterminatingChain"


@record
class AppliedTransition:
    transitional: str
    bearer: str
    tick: int
    bindings: tuple[tuple[str, str], ...]
    deletes: tuple[tuple[str, str, str], ...]
    creates: tuple[tuple[str, str, str], ...]


@record
class BlockedTransition:
    transitional: str
    bearer: str
    failed_guard: schemas.Pattern | None
    reason: str


def solve_guards(
    store: RelationStore,
    guards: tuple[schemas.Pattern, ...],
    seed: dict[str, str],
) -> tuple[dict[str, str] | None, int]:
    """First full solution of a guard conjunction, or (None, deepest index).

    Guards are tried in declaration order; each extension follows the store's
    deterministic query order, so repeated runs bind identically. A loop
    over one iterator of extensions per guard: the search leaves no cycle.
    """
    if not guards:
        return dict(seed), 0
    deepest = 0
    pending = [iter(store.query(guards[0], bindings=seed))]  # pending[i]: guard i's extensions
    while pending:
        bindings = next(pending[-1], None)
        if bindings is None:
            pending.pop()
        elif len(pending) == len(guards):
            return bindings, deepest
        else:
            deepest = max(deepest, len(pending))
            pending.append(iter(store.query(guards[len(pending)], bindings=bindings)))
    return None, deepest


def _ground(pattern: schemas.Pattern, bindings: dict[str, str]) -> tuple[str, str, str]:
    subject, obj = pattern.subject, pattern.object
    return (bindings[subject.value] if subject.kind == schemas.VAR else subject.value,
            pattern.predicate, bindings[obj.value] if obj.kind == schemas.VAR else obj.value)


def apply_transitional(
    store: RelationStore,
    transitional: schemas.TransitionalSchema,
    bearer: str,
    tick: int,
) -> AppliedTransition | BlockedTransition:
    """Apply one transitional atomically at ``tick``.

    Returns an AppliedTransition on success. If any guard fails or any edit
    would be invalid, returns a BlockedTransition and the store is untouched.
    """
    record = store.instance(bearer)
    if not record.alive:
        raise DestroyedBearerError(f"bearer {bearer!r} is destroyed")
    if transitional.bearer_kind is None or not store.registry.is_subkind(
        record.schema, transitional.bearer_kind
    ):
        raise BearerKindMismatchError(
            f"{bearer!r} is a {record.schema}, not a {transitional.bearer_kind}: "
            f"cannot bear {transitional.name!r}"
        )

    bindings, deepest = solve_guards(store, transitional.guards, {"bearer": bearer})
    if bindings is None:
        return BlockedTransition(
            transitional.name,
            bearer,
            transitional.guards[deepest] if transitional.guards else None,
            "guard failed",
        )

    deletes = tuple(dict.fromkeys(_ground(p, bindings) for p in transitional.deletes))
    creates = tuple(dict.fromkeys(_ground(p, bindings) for p in transitional.creates))
    try:
        store.apply_unit(deletes, creates, tick)
    except XfoError as exc:
        return BlockedTransition(transitional.name, bearer, None, str(exc))

    return AppliedTransition(
        transitional.name,
        bearer,
        tick,
        tuple(sorted(bindings.items())),
        deletes,
        creates,
    )


# --- chain instances -------------------------------------------------------------

@dataclass
class Frame:
    steps: tuple[schemas.Step, ...]
    index: int = 0
    loop_counts: dict[int, int] = field(default_factory=dict)


@dataclass
class ChainInstance:
    """A chain Universal instantiated for one run.

    Status only ever moves planned -> running -> {completed, aborted}. Built
    without ``frames``, an instance starts at its schema's first step.
    """

    schema: schemas.ChainSchema
    bindings: dict[str, str]
    bearer_map: dict[str, str]
    status: str = PLANNED
    frames: list[Frame] | None = None
    log: list[AppliedTransition] = field(default_factory=list)
    abort_reason: str | None = None
    loop_cap: int = DEFAULT_LOOP_CAP

    def __post_init__(self) -> None:
        if self.frames is None:
            self.frames = [Frame(self.schema.steps)]

    @property
    def finished(self) -> bool:
        return self.status in (COMPLETED, ABORTED)

    @property
    def program_counter(self) -> tuple[int, ...]:
        return tuple(frame.index for frame in self.frames)


def first_bearer(registry, kind: str | None, bound) -> str | None:
    """The first instance id of ``bound``, (instance id, schema) pairs in
    binding-name order, whose schema is a ``kind``."""
    matches = (instance_id for instance_id, schema in bound if registry.is_subkind(schema, kind))
    return next(matches, None) if kind else None


def instantiate_chain(
    world,
    chain_name: str,
    bindings: dict[str, str],
    *,
    loop_cap: int = DEFAULT_LOOP_CAP,
) -> ChainInstance:
    """Instantiate a chain Universal as a planned Particular.

    ``bindings`` map role names to instance ids. Every transitional reachable
    in the body must have a bound instance of its bearer kind; the first such
    binding in name order becomes the bearer for that step.
    """
    registry = world.registry
    chain = registry.chain(chain_name)
    if chain is None:
        raise UnknownChainError(f"unknown chain: {chain_name}")
    bound: list[tuple[str, str]] = []  # (instance id, schema) in binding-name order
    for name, instance_id in sorted(bindings.items()):
        if not world.store.has_instance(instance_id):
            raise MissingBindingError(f"binding {name}={instance_id!r} names an unknown instance")
        bound.append((instance_id, world.store.instance(instance_id).schema))
    bearer_map: dict[str, str] = {}
    for name in registry.reach(chain_name).transitionals:
        transitional = registry.transitional(name)
        bearer = first_bearer(registry, transitional.bearer_kind, bound)
        if bearer is None:
            raise MissingBindingError(f"chain {chain_name!r} needs a "
                                      f"{transitional.bearer_kind} bound for transitional {name!r}")
        bearer_map[name] = bearer
    return ChainInstance(chain, dict(bindings), bearer_map, loop_cap=loop_cap)


def step_chain(world, instance: ChainInstance) -> ChainInstance:
    """Execute one step of a chain against a microworld.

    ``do`` applies its transitional (a blocked transitional aborts the chain,
    leaving state as it was before the step); ``if`` evaluates and descends;
    ``while`` re-evaluates before each iteration and aborts past the loop cap.
    A step that leaves no step to run completes the instance, as does the
    first call on a chain with no steps.
    """
    if instance.finished:
        raise ChainAlreadyFinishedError(f"chain {instance.schema.name!r} already finished")
    instance.status = RUNNING
    frame = instance.frames[-1] if instance.frames else Frame(())
    step = frame.steps[frame.index] if frame.index < len(frame.steps) else None

    if isinstance(step, schemas.DoStep):
        bearer = instance.bearer_map[step.transitional]
        result = world.apply(step.transitional, bearer)
        if isinstance(result, AppliedTransition):
            instance.log.append(result)
            frame.index += 1
        else:
            instance.status = ABORTED
            at = f" at {result.failed_guard}" if result.failed_guard is not None else ""
            instance.abort_reason = (
                f"transitional {step.transitional!r} blocked: {result.reason}{at}"
            )
    elif isinstance(step, schemas.IfStep):
        taken = _condition_holds(world, instance, step.condition)
        frame.index += 1
        branch = step.then_steps if taken else step.else_steps
        if branch:
            instance.frames.append(Frame(branch))
    elif isinstance(step, schemas.WhileStep):
        if _condition_holds(world, instance, step.condition):
            count = frame.loop_counts.get(frame.index, 0) + 1
            frame.loop_counts[frame.index] = count
            if count > instance.loop_cap:
                instance.status = ABORTED
                instance.abort_reason = (
                    f"{LOOP_CAP_REASON}: loop cap {instance.loop_cap} exceeded in "
                    f"{instance.schema.name!r}"
                )
                return instance
            instance.frames.append(Frame(step.body))
        else:
            frame.loop_counts[frame.index] = 0
            frame.index += 1
    while instance.frames and instance.frames[-1].index >= len(instance.frames[-1].steps):
        instance.frames.pop()
    if not instance.frames and instance.status == RUNNING:
        instance.status = COMPLETED
    return instance


def _condition_holds(world, instance: ChainInstance, condition: schemas.Pattern) -> bool:
    """Whether an ``if``/``while`` condition matches. Its constants may name
    chain roles; each such constant stands for the instance bound to it."""
    roles = instance.bindings
    subject, obj = condition.subject, condition.object
    if subject.kind == schemas.CONST and subject.value in roles:
        subject = schemas.const(roles[subject.value])
    if obj.kind == schemas.CONST and obj.value in roles:
        obj = schemas.const(roles[obj.value])
    return world.store.matches(schemas.Pattern(condition.predicate, subject, obj), bindings=roles)


# --- thick chain summaries ----------------------------------------------------------

@dataclass(frozen=True)
class ChainSummary:
    """A structured description of a whole chain: participants, edits
    touched, interventions, and control structure."""

    chain: str
    kind: str
    transitionals: tuple[str, ...]
    participants: tuple[str, ...]
    predicates: tuple[str, ...]
    interventions: tuple[str, ...]
    loop_count: int
    conditional_count: int
    depth: int


def thick_chain_summary(registry, chain_name: str) -> ChainSummary:
    chain = registry.chain(chain_name)
    if chain is None:
        raise UnknownChainError(f"unknown chain: {chain_name}")
    reach = registry.reach(chain_name)
    interventions = tuple(step.transitional for step in schemas.walk_steps(chain.steps)
                          if isinstance(step, schemas.DoStep) and step.intervention)
    patterns = [step.condition for step in reach.branches]
    participants: set[str] = set()
    for name in reach.transitionals:
        transitional = registry.transitional(name)
        if transitional.bearer_kind:
            participants.add(transitional.bearer_kind)
        patterns += [*transitional.guards, *(edit.pattern for edit in transitional.edits)]
    predicates = {pattern.predicate for pattern in patterns}
    for predicate in predicates:
        relation = registry.relation(predicate)
        if relation is not None:
            participants.update((relation.subject_kind, relation.object_kind))
        else:
            participants.update(registry.determinable_declarers(predicate))
    return ChainSummary(
        chain=chain.name,
        kind=chain.kind,
        transitionals=reach.transitionals,
        participants=tuple(sorted(participants)),
        predicates=tuple(sorted(predicates)),
        interventions=interventions,
        loop_count=sum(isinstance(step, schemas.WhileStep) for step in reach.branches),
        conditional_count=sum(isinstance(step, schemas.IfStep) for step in reach.branches),
        depth=schemas.step_depth(chain.steps),
    )
