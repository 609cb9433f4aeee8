"""The equiv workload: check_equivalence over k TrafficLights.

Thousands of tiny worlds: spawn, kinds and chain set-up dominate and the
store never holds more than k live triples. The verdicts are known from the
model's text. Both chains step only the first light in name order, so
``cycle`` and ``go_green_swapped`` (red -> green either way) agree on all
3^k states, while ``cycle`` and ``go_yellow`` first differ when that light is
red: the sweep visits the colours in ontology order (green, yellow, red) with
the first light most significant, so the witness is state 2 * 3^(k-1) + 1.
"""

from __future__ import annotations

import hashlib
import random
import time

from common import Speed, Tally, compile_corpus, median, percentile

FULL = {"k": 7, "sweep": (5, 6, 7, 8), "setups": 15}
SMOKE = {"k": 3, "sweep": (2, 3), "setups": 3}


class Equiv:
    name = "equiv"

    def __init__(self, xfo, seed: int, smoke: bool):
        self.xfo = xfo
        self.size = SMOKE if smoke else FULL
        self.tally = Tally()
        self.speed = Speed()
        self.rng = random.Random(seed)
        self.names = {}
        for k in sorted(set(self.size["sweep"]) | {self.size["k"]}):
            names: set[str] = set()
            while len(names) < k:
                names.add(f"lamp-{self.rng.getrandbits(24):06x}")
            self.names[k] = sorted(names)
        self.registry = self.setup()

    def setup(self):
        """The registry ``xfo equiv models/*.xfo`` would check against."""
        return compile_corpus(self.xfo, with_fixture=False).registry

    def cases(self, k: int):
        names = self.names[k]
        witness = tuple((f"{name}.color", "red" if i == 0 else "green")
                        for i, name in enumerate(names))
        return (
            ("cycle", "go_green_swapped", True, 3 ** k, None),
            ("cycle", "go_yellow", False, 2 * 3 ** (k - 1) + 1, witness),
        )

    def check(self, k: int, case) -> tuple[float, int]:
        chain_a, chain_b, equivalent, states, witness = case
        equivalence = self.xfo.equivalence
        # Instances are listed in a seeded order; the checker sorts them.
        instances = [(name, "TrafficLight") for name in self.names[k]]
        self.rng.shuffle(instances)
        space = equivalence.StateSpace(tuple(instances))
        start = time.perf_counter()
        result = equivalence.check_equivalence(self.registry, chain_a, chain_b, space)
        elapsed = time.perf_counter() - start
        got = (result.equivalent, result.states_checked, result.counterexample)
        self.tally.op(got == (equivalent, states, witness),
                      f"equiv {chain_a} vs {chain_b} k={k}: {got}")
        return elapsed, result.states_checked

    def witness_fingerprint(self, k: int) -> str:
        """Fingerprint of go_yellow run from the known counterexample state."""
        microworld, transitions = self.xfo.microworld, self.xfo.transitions
        world = microworld.Microworld(self.registry, name="witness")
        for state, value in self.cases(k)[1][4]:
            world.spawn("TrafficLight", {"color": value}, instance_id=state.split(".")[0])
        names = {name: name for name in self.names[k]}
        microworld.run(world, transitions.instantiate_chain(world, "go_yellow", names))
        return world.fingerprint()

    def checkpoint(self) -> str:
        k = self.size["k"]
        verdicts = [self.check(k, case)[1] for case in self.cases(k)]
        text = f"{verdicts} {self.witness_fingerprint(k)}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def measure(self, seconds: float) -> dict:
        setups, raw_setups = [], []
        for _ in range(self.size["setups"]):
            factor = self.speed.sample()
            start = time.perf_counter()
            self.registry = self.setup()
            raw_setups.append(time.perf_counter() - start)
            setups.append(raw_setups[-1] * factor)

        # Each call is scaled by the speed sampled before it.
        k = self.size["k"]
        per_state, raw_per_state, calls = [], [], []
        states = 0
        deadline = time.perf_counter() + seconds
        while True:
            cases = list(self.cases(k))
            self.rng.shuffle(cases)
            for case in cases:
                factor = self.speed.sample()
                elapsed, checked = self.check(k, case)
                calls.append(elapsed * factor)
                raw_per_state.append(elapsed / checked * 1e6)
                per_state.append(raw_per_state[-1] * factor)
                states += checked
            if time.perf_counter() >= deadline:
                break
        checkpoint = self.checkpoint()
        rate = median([1e6 / us for us in per_state])
        return {
            "setup_s": median(setups),
            "work_per_s": rate,
            "op_p50_us": percentile(per_state, 50),
            "op_p99_us": percentile(raw_per_state, 99),
            "detail": {
                "k": k,
                "calls": len(calls),
                "states": states,
                "equiv_states_per_s": rate,
                "call_s_median": median(calls),
                "raw": {"setup_s": median(raw_setups),
                        "op_p50_us": percentile(raw_per_state, 50)},
                "kernel_ms": median(self.speed.samples) * 1e3,
                "checkpoint_fingerprint": checkpoint,
                "final_fingerprint": checkpoint,
            },
            "checkpoint": checkpoint,
        }

    def traced(self, tracer) -> dict:
        """Both cases once per k of the sweep; the main k also runs untraced."""
        size = self.size
        main = size["k"]
        for k in size["sweep"]:
            tracer.begin_run(f"k={k}")
            with tracer.active():
                start = time.perf_counter()
                for case in self.cases(k):
                    self.check(k, case)
            if k == main:
                window = (start, time.perf_counter())
        start = time.perf_counter()
        for case in self.cases(main):
            self.check(main, case)
        untraced = time.perf_counter() - start
        return {
            "main": f"k={main}",
            "small": f"k={size['sweep'][0]}",
            "large": f"k={size['sweep'][-1]}",
            "window": window,
            "untraced_wall_s": untraced,
            "phase": "both cases at the main k",
        }
