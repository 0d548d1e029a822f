"""A word-parallel gate evaluator written apart from ``repro.sim``.

The benchmark checks the program's outputs with this module only: it reads a
netlist's nodes (type name, fan-in, LUT config), orders the combinational
logic itself and evaluates ``WIDTH`` random patterns at once, one bit lane per
pattern, in Python integers.  Nothing here imports the program's simulators,
so a fault in ``repro.sim`` cannot hide itself.

Two netlists "agree" when, for the same random primary-input and flip-flop
state vectors, every primary output (by position) and every flip-flop D pin
(by flip-flop name) carries the same word.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Tuple

#: Patterns evaluated per word.  A wrong key that MlAttack returns for s953
#: differs from the original on so few patterns that 1024 miss it; 16384
#: catch it.
WIDTH = 1 << 14


class Evaluator:
    """Snapshot of one netlist's combinational logic in evaluation order."""

    def __init__(self, netlist) -> None:
        self.inputs: List[str] = []
        self.flip_flops: List[Tuple[str, str]] = []  # (ff name, D-pin net)
        self.outputs: List[str] = list(netlist.outputs)
        logic: Dict[str, Tuple[str, List[str], Optional[int]]] = {}
        for node in netlist:
            kind = node.gate_type.value
            if kind == "INPUT":
                self.inputs.append(node.name)
            elif kind == "DFF":
                self.flip_flops.append((node.name, node.fanin[0]))
            else:
                logic[node.name] = (kind, list(node.fanin), node.lut_config)
        self.program = _order(logic, set(self.inputs) | {f for f, _ in self.flip_flops})

    def run(self, sources: Mapping[str, int], width: int) -> Dict[str, int]:
        """Evaluate every net for the given PI/state words."""
        mask = (1 << width) - 1
        values = dict(sources)
        for name, kind, fanin, config in self.program:
            values[name] = _gate(kind, [values[src] for src in fanin], config, mask)
        return values

    def observe(self, sources: Mapping[str, int], width: int) -> Dict[str, int]:
        """Words on the observation points: ``po:<index>`` and ``d:<ff>``."""
        values = self.run(sources, width)
        seen = {f"po:{i}": values[name] for i, name in enumerate(self.outputs)}
        seen.update({f"d:{ff}": values[d] for ff, d in self.flip_flops})
        return seen


def _order(logic, sources) -> List[Tuple[str, str, List[str], Optional[int]]]:
    """Kahn order of the combinational nodes (flip-flops cut the loops)."""
    waiting = {name: sum(1 for s in fanin if s not in sources) for name, (_, fanin, _) in logic.items()}
    readers: Dict[str, List[str]] = {}
    for name, (_, fanin, _) in logic.items():
        for src in fanin:
            if src not in sources:
                readers.setdefault(src, []).append(name)
    ready = [name for name, count in waiting.items() if count == 0]
    program = []
    while ready:
        name = ready.pop()
        kind, fanin, config = logic[name]
        program.append((name, kind, fanin, config))
        for reader in readers.get(name, ()):
            waiting[reader] -= 1
            if waiting[reader] == 0:
                ready.append(reader)
    if len(program) != len(logic):
        raise ValueError("combinational loop or undriven net in netlist")
    return program


def _gate(kind: str, ins: List[int], config: Optional[int], mask: int) -> int:
    if kind == "AND" or kind == "NAND":
        out = mask
        for word in ins:
            out &= word
        return out if kind == "AND" else out ^ mask
    if kind == "OR" or kind == "NOR":
        out = 0
        for word in ins:
            out |= word
        return out if kind == "OR" else out ^ mask
    if kind == "XOR" or kind == "XNOR":
        out = 0
        for word in ins:
            out ^= word
        return out if kind == "XOR" else out ^ mask
    if kind == "BUF":
        return ins[0]
    if kind == "NOT":
        return ins[0] ^ mask
    if kind == "CONST0":
        return 0
    if kind == "CONST1":
        return mask
    if kind == "LUT":
        if config is None:
            raise ValueError("cannot evaluate an unprogrammed LUT")
        # Sum of the minterms whose row bit is set; pin 0 is the row's LSB.
        out = 0
        for row in range(1 << len(ins)):
            if (config >> row) & 1:
                term = mask
                for pin, word in enumerate(ins):
                    term &= word if (row >> pin) & 1 else word ^ mask
                out |= term
        return out
    raise ValueError(f"unknown gate type {kind!r}")


def agree(reference, candidate, seed: str) -> bool:
    """True when *candidate* matches *reference* on ``WIDTH`` random
    PI + state vectors drawn from *seed* (same names on both sides)."""
    ref, cand = Evaluator(reference), Evaluator(candidate)
    if (
        sorted(ref.inputs) != sorted(cand.inputs)
        or len(ref.outputs) != len(cand.outputs)
        or sorted(ff for ff, _ in ref.flip_flops) != sorted(ff for ff, _ in cand.flip_flops)
    ):
        return False
    rng = random.Random(seed)
    sources = {name: rng.getrandbits(WIDTH) for name in ref.inputs}
    sources.update({ff: rng.getrandbits(WIDTH) for ff, _ in ref.flip_flops})
    return ref.observe(sources, WIDTH) == cand.observe(sources, WIDTH)


def programmed_copy(foundry, key: Mapping[str, int], name: str):
    """The foundry netlist with *key* written into its LUTs."""
    candidate = foundry.copy(name)
    for lut, config in key.items():
        candidate.node(lut).lut_config = config
    return candidate
