"""The simulate workload: one large world, a seeded op mix, an audit of its
history, and the record (NDJSON timeline plus fingerprint).

Every op is checked against ``Shadow``, a model of the world written here
from the fixture's semantics, not from xfo: each light's colour and its
history, each windshield's condition, each clock's tension, orchestra slots,
the alive state of every instance, the logical clock and the event count.
"""

from __future__ import annotations

import bisect
import random
import time

from common import Speed, Tally, compile_corpus, median, percentile

COLORS = ("green", "yellow", "red")
LIGHT_STEPS = {  # transitional -> (required colour, resulting colour)
    "turn_green": ("red", "green"),
    "turn_yellow": ("red", "yellow"),
    "to_yellow": ("green", "yellow"),
    "to_red": ("yellow", "red"),
}
ADVANCE = {"red": "green", "green": "yellow", "yellow": "red"}
CLOCK_STEPS = {"run_down": ("wound", "unwound"), "wind_up": ("unwound", "wound")}
CLOCK_PARTS = ("escape_gear", "main_gear", "mainspring")
SLOTS = ("strings", "brass", "percussion", "conductor")
LINKS = (("strings", "conductor"), ("brass", "conductor"), ("percussion", "conductor"))

FULL = {"n": 1000, "checkpoint_ops": 100, "sweep": (250, 500, 1000, 2000),
        "traced_ops": 150, "traced_queries": 60, "setups": 5}
SMOKE = {"n": 40, "checkpoint_ops": 20, "sweep": (10, 20, 40),
         "traced_ops": 30, "traced_queries": 10, "setups": 2}
SHARE = {"ops": 0.65, "audit": 0.2, "record": 0.15}  # of the measured seconds

# One block of the op mix; the seed shuffles each block and picks the targets.
# Fixed proportions keep the work of a run the same for every seed: 13 applies
# (3 blocked by design), 2 strikes with the disposition fixpoint, 3 chain
# runs and 2 destroy/respawn churns.
BLOCK = (
    (("apply", "light", True),) * 7 + (("apply", "light", False),) * 2
    + (("apply", "shield", True), ("apply", "shield", False),
       ("apply", "clock", True), ("apply", "clock", False))
    + (("strike",),) * 2
    + (("chain", "advance"),) * 2 + (("chain", "service"),)
    + (("churn",),) * 2
)


class Shadow:
    """What the world must contain, kept without asking xfo."""

    def __init__(self):
        self.clock = 0
        self.events = 0
        self.alive: dict[str, bool] = {}
        self.color: dict[str, str] = {}
        self.history: dict[str, tuple[list[int], list[str | None]]] = {}
        self.condition: dict[str, str] = {}
        self.tension: dict[str, str] = {}
        self.orchestras: dict[str, dict[str, str]] = {}
        self.lights: list[str] = []
        self.shields: list[str] = []
        self.hammers: list[str] = []
        self.clocks: list[str] = []

    def unit(self, events: int = 1) -> int:
        self.clock += 1
        self.events += events
        return self.clock

    def set_color(self, light: str, color: str | None) -> None:
        ticks, values = self.history.setdefault(light, ([], []))
        ticks.append(self.clock)
        values.append(color)
        if color is None:
            del self.color[light]
        else:
            self.color[light] = color

    def colors_at(self, tick: int, color: str) -> list[str]:
        out = []
        for light, (ticks, values) in self.history.items():
            index = bisect.bisect_right(ticks, tick) - 1
            if index >= 0 and values[index] == color:
                out.append(light)
        return sorted(out)

    def live_set(self) -> set[tuple[str, str, str]]:
        live = {(light, "color", c) for light, c in self.color.items()}
        live |= {(shield, "condition", c) for shield, c in self.condition.items()}
        for clock, tension in self.tension.items():
            live.add((clock, "tension", tension))
            live |= {(f"{clock}.{part}", "part_of", clock) for part in CLOCK_PARTS}
        for orchestra, slots in self.orchestras.items():
            live |= {(member, "member_of", orchestra) for member in slots.values()}
            live |= {(slots[a], "performs_with", slots[b]) for a, b in LINKS}
        return live


class Sim:
    """A world and its shadow, driven by one seeded generator."""

    def __init__(self, xfo, registry, seed: int, n: int, tally: Tally, speed: Speed):
        self.xfo = xfo
        self.tally = tally
        self.speed = speed
        self.rng = random.Random(seed)
        self.world = xfo.microworld.Microworld(registry, name="simulate")
        self.shadow = Shadow()
        self.serial = 0
        self.latencies: list[float] = []
        self.factors: list[float] = []  # speed factor of each op's block
        self.kinds: list[str] = []
        self.pending: list[tuple] = []
        self.factor = 1.0
        self.block_start: tuple[int, int] | None = None
        self.block_rates: list[float] = []
        for _ in range(n):
            for schema in ("TrafficLight", "Windshield", "Sledgehammer"):
                self.spawn(schema)
        for _ in range(max(1, n // 10)):
            self.spawn("Clock")
        for _ in range(max(1, n // 20)):
            self.build_orchestra()

    # -- spawning: the world call, then its mirror in the shadow --------------

    def new_id(self, base: str) -> str:
        self.serial += 1
        return f"{base}-{self.serial:06d}"

    def plan_spawn(self, schema: str) -> tuple[str, str, dict]:
        """Draw the id and determinants of a spawn before it is timed."""
        rng = self.rng
        if schema == "TrafficLight":
            determinants = {"color": rng.choice(COLORS)}
        elif schema == "Windshield":
            determinants = {"condition": "broken" if rng.random() < 0.2 else "intact"}
        elif schema == "Clock":
            determinants = {"tension": rng.choice(("wound", "unwound"))}
        else:
            determinants = {}
        return schema, self.new_id(schema.lower()), determinants

    def do_spawn(self, plan) -> None:
        schema, instance, determinants = plan
        self.world.spawn(schema, determinants, instance_id=instance)

    def mirror_spawn(self, plan) -> None:
        schema, instance, determinants = plan
        shadow = self.shadow
        shadow.alive[instance] = True
        if schema == "TrafficLight":
            shadow.unit()
            shadow.set_color(instance, determinants["color"])
            shadow.lights.append(instance)
        elif schema == "Windshield":
            shadow.unit()
            shadow.condition[instance] = determinants["condition"]
            shadow.shields.append(instance)
        elif schema == "Clock":
            shadow.unit(events=1 + len(CLOCK_PARTS))
            for part in CLOCK_PARTS:
                shadow.alive[f"{instance}.{part}"] = True
            shadow.tension[instance] = determinants["tension"]
            shadow.clocks.append(instance)
        elif schema == "Sledgehammer":
            shadow.unit()
            shadow.hammers.append(instance)
        else:
            shadow.unit()

    def spawn(self, schema: str) -> str:
        plan = self.plan_spawn(schema)
        self.do_spawn(plan)
        self.mirror_spawn(plan)
        return plan[1]

    def build_orchestra(self) -> None:
        members = [self.spawn("Musician") for _ in SLOTS]
        orchestra = self.new_id("orchestra")
        self.world.instantiate_aggregate("Orchestra", members[0], SLOTS[0],
                                         instance_id=orchestra)
        self.shadow.unit()
        self.shadow.alive[orchestra] = True
        for slot, member in zip(SLOTS[1:], members[1:]):
            self.world.bind_member(orchestra, slot, member)
            self.shadow.unit(events=0)
        self.shadow.orchestras[orchestra] = dict(zip(SLOTS, members))

    # -- the op mix ----------------------------------------------------------------

    def step(self) -> None:
        """One seeded op: drawn, timed alone, then checked against the shadow."""
        if not self.pending:
            self.close_block()
            self.factor = self.speed.sample()
            self.pending = list(BLOCK)
            self.rng.shuffle(self.pending)
        op, *plan = self.pending.pop()
        kind, check = getattr(self, "op_" + op)(*plan)
        self.kinds.append(kind)
        self.factors.append(self.factor)
        check()

    def close_block(self) -> None:
        """Close the block just finished: its units per busy (scaled) second."""
        clock, index = self.world.clock, len(self.latencies)
        if self.block_start is not None:
            units = clock - self.block_start[0]
            busy = sum(self.latencies[self.block_start[1]:]) * self.factor
            self.block_rates.append(units / busy)
        self.block_start = (clock, index)

    def timed(self, call):
        start = time.perf_counter()
        try:
            result = call()
        except self.xfo.errors.XfoError as exc:
            self.latencies.append(time.perf_counter() - start)
            self.tally.error(f"{type(exc).__name__}: {exc}")
            return None
        self.latencies.append(time.perf_counter() - start)
        return result

    def verdict(self, ok: bool, what: str) -> None:
        """Tally one op: its outcome and the clock must both match the shadow."""
        world, shadow = self.world.clock, self.shadow.clock
        self.tally.op(ok and world == shadow, f"{what} (clock {world}, shadow {shadow})")

    def pick(self, pool: list[str], state: dict[str, str], wanted) -> str:
        """A random member of ``pool`` whose state is ``wanted``, if one turns up."""
        for _ in range(16):
            choice = self.rng.choice(pool)
            if state[choice] == wanted:
                return choice
        return choice

    def op_apply(self, target: str, applies: bool):
        """Apply a transitional whose guard holds (or, by design, fails)."""
        rng, shadow = self.rng, self.shadow
        if target == "light":
            bearer = rng.choice(shadow.lights)
            color = shadow.color[bearer]
            name = rng.choice([n for n, (need, _) in LIGHT_STEPS.items()
                               if (need == color) == applies])
            need, then = LIGHT_STEPS[name]
            state = shadow.color
        elif target == "shield":
            bearer = self.pick(shadow.shields, shadow.condition,
                               "broken" if applies else "intact")
            name, need, then = "repair", "broken", "intact"
            state = shadow.condition
        else:
            bearer = rng.choice(shadow.clocks)
            name = next(n for n, (need, _) in CLOCK_STEPS.items()
                        if (need == shadow.tension[bearer]) == applies)
            need, then = CLOCK_STEPS[name]
            state = shadow.tension
        result = self.timed(lambda: self.world.apply(name, bearer))

        def check():
            if result is None:
                return
            applies = state[bearer] == need
            if applies:
                shadow.unit()
                if state is shadow.color:
                    shadow.set_color(bearer, then)
                else:
                    state[bearer] = then
            applied = isinstance(result, self.xfo.transitions.AppliedTransition)
            self.verdict(applied == applies, f"apply {name} on {bearer}: {result}")

        return "apply", check

    def op_strike(self):
        rng, shadow = self.rng, self.shadow
        shield = self.pick(shadow.shields, shadow.condition, "intact")
        if shadow.condition[shield] != "intact":
            return self.op_apply("shield", True)
        hammer = rng.choice(shadow.hammers)

        def strike():
            self.world.assert_relation(shield, "struck_by", hammer)
            return self.world.fire_dispositions()

        fired = self.timed(strike)

        def check():
            if fired is None:
                return
            shadow.unit(events=0)
            shadow.unit()
            shadow.condition[shield] = "broken"
            got = [(f.disposition, f.bearer, f.transitional) for f in fired]
            want = [("sure_fire_breakage", shield, "shatter")]
            self.verdict(got == want, f"strike {shield}: fired {got}")

        return "strike", check

    def op_chain(self, name: str):
        rng, shadow = self.rng, self.shadow
        transitions, microworld = self.xfo.transitions, self.xfo.microworld
        if name == "advance":
            light = rng.choice(shadow.lights)
            bindings, ticks = {"light": light}, 1
        else:
            shield, clock = rng.choice(shadow.shields), rng.choice(shadow.clocks)
            bindings = {"shield": shield, "clock": clock}
            ticks = 2 if shadow.condition[shield] == "broken" else 1

        def run_chain():
            instance = transitions.instantiate_chain(self.world, name, bindings)
            return microworld.run(self.world, instance)

        outcome = self.timed(run_chain)

        def check():
            if outcome is None:
                return
            if name == "advance":
                shadow.unit()
                shadow.set_color(light, ADVANCE[shadow.color[light]])
            else:
                if shadow.condition[shield] == "broken":
                    shadow.unit()
                    shadow.condition[shield] = "intact"
                shadow.unit()
                shadow.tension[clock] = ("unwound" if shadow.tension[clock] == "wound"
                                         else "wound")
            ok = outcome.status == "completed" and outcome.ticks_used == ticks
            self.verdict(ok, f"chain {name} {bindings}: {outcome.status} {outcome.ticks_used}")

        return "chain", check

    def op_churn(self):
        """Destroy an instance and spawn its replacement as one timed op."""
        rng, shadow, world = self.rng, self.shadow, self.world
        roll = rng.random()
        orchestra = slot = None
        if roll < 0.4:
            victim = rng.choice(shadow.lights)
            doomed = {victim}
            plan = self.plan_spawn("TrafficLight")
        elif roll < 0.7:
            victim = rng.choice(shadow.clocks)
            doomed = {victim} | {f"{victim}.{part}" for part in CLOCK_PARTS}
            plan = self.plan_spawn("Clock")
        else:
            orchestra = rng.choice(sorted(shadow.orchestras))
            slot = rng.choice(SLOTS)
            victim = shadow.orchestras[orchestra][slot]
            doomed = {victim}
            plan = self.plan_spawn("Musician")

        def churn():
            gone = world.destroy(victim)
            self.do_spawn(plan)
            if orchestra is not None:
                world.bind_member(orchestra, slot, plan[1])
            return gone

        gone = self.timed(churn)

        def check():
            if gone is None:
                return
            shadow.unit()
            for instance in doomed:
                shadow.alive[instance] = False
            if victim in shadow.color:
                shadow.set_color(victim, None)
                shadow.lights.remove(victim)
            elif victim in shadow.tension:
                del shadow.tension[victim]
                shadow.clocks.remove(victim)
            self.mirror_spawn(plan)
            if orchestra is not None:
                shadow.unit(events=0)
                shadow.orchestras[orchestra][slot] = plan[1]
            self.verdict(set(gone) == doomed, f"destroy {victim}: {gone}")

        return "churn", check

    # -- whole-state checks ----------------------------------------------------------

    def check_state(self) -> None:
        store = self.world.store
        live = set(store.live_set())
        want = self.shadow.live_set()
        self.tally.op(live == want, f"live store differs from shadow: "
                                    f"{sorted(live ^ want)[:4]}")
        alive = {r.id: r.alive for r in store.instances()}
        self.verdict(alive == self.shadow.alive, "alive states differ from shadow")

    def audit(self, deadline: float | None, count: int | None, check_every: int):
        """Seeded history and live queries; returns per-query seconds."""
        schemas, store = self.xfo.schemas, self.world.store
        var, const = schemas.var, schemas.const
        rng, shadow = self.rng, self.shadow
        times: list[float] = []
        while True:
            roll = rng.random()
            if roll < 0.5:
                color = rng.choice(COLORS)
                tick = rng.randint(1, shadow.clock)
                pattern = schemas.Pattern("color", var("l"), const(color))
                start = time.perf_counter()
                rows = store.query(pattern, at=tick)
                times.append(time.perf_counter() - start)
                if len(times) % check_every == 0:
                    got = [row["l"] for row in rows]
                    self.tally.op(got == shadow.colors_at(tick, color),
                                  f"query color(?l, {color}) at {tick}")
            elif roll < 0.75:
                light = rng.choice(shadow.lights)
                pattern = schemas.Pattern("color", var("l"), var("c"))
                start = time.perf_counter()
                rows = store.query(pattern, bindings={"l": light})
                times.append(time.perf_counter() - start)
                want = [{"l": light, "c": shadow.color[light]}]
                self.tally.op(rows == want, f"query color({light}, ?c): {rows}")
            else:
                pattern = schemas.Pattern("condition", var("s"), const("broken"))
                start = time.perf_counter()
                rows = store.query(pattern)
                times.append(time.perf_counter() - start)
                if len(times) % check_every == 0:
                    want = sorted(s for s, c in shadow.condition.items() if c == "broken")
                    self.tally.op([row["s"] for row in rows] == want,
                                  "query condition(?s, broken)")
            if count is not None and len(times) >= count:
                return times
            if deadline is not None and time.perf_counter() >= deadline:
                return times

    def record(self) -> tuple[float, str]:
        start = time.perf_counter()
        text = self.world.timeline_ndjson()
        fingerprint = self.world.fingerprint()
        elapsed = time.perf_counter() - start
        lines = text.splitlines()
        ok = len(lines) == self.shadow.events and lines[0].startswith('{"tick":1,"kind":')
        self.tally.op(ok, f"timeline has {len(lines)} events, shadow {self.shadow.events}")
        return elapsed, fingerprint


class Simulate:
    name = "simulate"

    def __init__(self, xfo, seed: int, smoke: bool):
        self.xfo = xfo
        self.seed = seed
        self.size = SMOKE if smoke else FULL
        self.tally = Tally()
        self.speed = Speed()

    def setup(self, n: int | None = None) -> Sim:
        registry = compile_corpus(self.xfo).registry
        sim = Sim(self.xfo, registry, self.seed, n or self.size["n"], self.tally, self.speed)
        sim.check_state()
        return sim

    def checkpoint(self) -> str:
        """Fingerprint after a fixed number of ops: the same for any timing."""
        sim = self.setup()
        for _ in range(self.size["checkpoint_ops"]):
            sim.step()
        return sim.world.fingerprint()

    def measure(self, seconds: float) -> dict:
        setups, raw_setups = [], []
        for _ in range(self.size["setups"]):
            factor = self.speed.sample()
            start = time.perf_counter()
            sim = self.setup()
            raw_setups.append(time.perf_counter() - start)
            setups.append(raw_setups[-1] * factor)

        # Op mix: each op is timed alone; checks run between ops, untimed.
        # The phase ends on a block boundary, so every block is whole.
        clock0 = sim.world.clock
        deadline = time.perf_counter() + SHARE["ops"] * seconds
        checkpoint = None
        while True:
            sim.step()
            if len(sim.latencies) == self.size["checkpoint_ops"]:
                checkpoint = sim.world.fingerprint()
            if not sim.pending and checkpoint is not None and time.perf_counter() >= deadline:
                break
        sim.close_block()
        busy = sum(sim.latencies)
        units = sim.world.clock - clock0
        sim.check_state()

        audit_factor = self.speed.sample()
        query_times = sim.audit(time.perf_counter() + SHARE["audit"] * seconds, None,
                                check_every=5)

        records = []
        record_factor = self.speed.sample()
        deadline = time.perf_counter() + SHARE["record"] * seconds
        while len(records) < 2 or time.perf_counter() < deadline:
            records.append(sim.record())
        final = {fp for _, fp in records}
        self.tally.op(len(final) == 1, "record fingerprint changed between calls")

        raw_us = [t * 1e6 for t in sim.latencies]
        latencies_us = [t * f for t, f in zip(raw_us, sim.factors)]
        by_kind = {}
        for kind, t in zip(sim.kinds, latencies_us):
            by_kind.setdefault(kind, []).append(t)
        return {
            "setup_s": median(setups),
            "work_per_s": median(sim.block_rates),
            "op_p50_us": percentile(latencies_us, 50),
            "op_p99_us": percentile(raw_us, 99),
            "detail": {
                "n": self.size["n"],
                "ops": len(latencies_us),
                "sim_units": units,
                "blocks": len(sim.block_rates),
                "sim_units_per_s": median(sim.block_rates),
                "sim_units_per_busy_s_raw": units / busy,
                "sim_op_p50_us": percentile(latencies_us, 50),
                "sim_op_p99_us": percentile(raw_us, 99),
                "op_p50_us_by_kind": {k: percentile(v, 50) for k, v in sorted(by_kind.items())},
                "ops_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
                "audit_queries": len(query_times),
                "audit_queries_per_s": len(query_times) / sum(query_times) / audit_factor,
                "record_ms": median([t for t, _ in records]) * 1e3 * record_factor,
                "events": sim.shadow.events,
                "raw": {"setup_s": median(raw_setups), "op_p50_us": percentile(raw_us, 50)},
                "kernel_ms": median(self.speed.samples) * 1e3,
                "checkpoint_fingerprint": checkpoint,
                "final_fingerprint": records[-1][1],
            },
            "checkpoint": checkpoint,
        }

    def traced(self, tracer) -> dict:
        """Fixed-size passes over the N sweep; the main N also runs untraced."""
        size = self.size
        windows = {}
        for n in size["sweep"]:
            tracer.begin_run(f"N={n}")
            with tracer.active():
                sim = self.setup(n)
                start = time.perf_counter()
                for _ in range(size["traced_ops"]):
                    sim.step()
                windows[n] = (start, time.perf_counter())
                sim.audit(None, size["traced_queries"], check_every=1)
                sim.record()
            sim.check_state()
        sim = self.setup()
        start = time.perf_counter()
        for _ in range(size["traced_ops"]):
            sim.step()
        untraced = time.perf_counter() - start
        return {
            "main": f"N={size['n']}",
            "small": f"N={size['sweep'][0]}",
            "large": f"N={size['sweep'][-1]}",
            "window": windows[size["n"]],
            "untraced_wall_s": untraced,
            "phase": "op mix",
        }
