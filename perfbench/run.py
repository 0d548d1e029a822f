#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Every round runs on inputs set up afresh for it, so no round finds caches
that an earlier round left on its netlists.  With ``--trace 0`` it times
whole rounds, at least three and more while they fit in ``--seconds``, and
prints the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``).
With ``--trace 1`` it runs one round to warm the process, then times one
round with tracing off and one under a ``repro.obs`` recorder, and prints the
per-layer metrics of the traced round plus the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md next to this file describes the
workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up is repeated at least this many times, and for at least this many
#: seconds, per run; ``setup_s`` is the median.  A small workload's set-up
#: takes 20-100 ms and single samples swing by half, so it takes many.
SETUP_REPEATS = 11
SETUP_SECONDS = 1.5

#: Timed rounds per ``--trace 0`` run, at least; more while the next one is
#: expected to end within ``--seconds``.  ``wall_s`` is their median, so a
#: slow first round (lazy imports, a cold allocator) does not decide it.
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-grid", "sat-attack", "oracle-attacks", "sweep-steal"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(with_workers: bool) -> float:
    """Peak RSS of this process; with workers, plus the largest worker's."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def layer_metrics(rec, layers, overhead_s: float):
    """Per-layer numbers of one traced round (see README.md for the map)."""
    from workloads import WORKERS

    def spans(*names):
        return [s for s in rec.spans if s.name in names]

    def total(*names):
        return sum(s.duration for s in spans(*names))

    def attr_sum(name, attr):
        return sum(s.attrs.get(attr, 0) for s in spans(name))

    def ratio(num, den):
        return num / den if den else 0.0

    count = rec.counters.get
    lock_names = ("lock.independent", "lock.dependent", "lock.parametric")
    sat_rounds = attr_sum("attack.sat", "iterations")
    filled = count("sim.keybatch.lanes_filled", 0)
    wasted = count("sim.keybatch.lanes_wasted", 0)
    memo_hits = count("oracle.memo_hits", 0)
    first_s = layers.get("sweep.first_s", 0.0)
    values = {
        "circuits.generate_s": (layers.get("circuits.generate_s", 0.0), "s"),
        "locking.run_s": (total(*lock_names), "s"),
        "locking.paths_s": (total("lock.paths"), "s"),
        "locking.select_s": (total("lock.select"), "s"),
        "locking.replace_s": (total("lock.replace"), "s"),
        "locking.provision_s": (total("lock.provision"), "s"),
        "locking.paths": (attr_sum("lock.paths", "n_paths"), "count"),
        "locking.luts": (sum(s.attrs.get("n_stt", 0) for s in spans(*lock_names)), "count"),
        "analysis.sta_s": (layers.get("analysis.sta_s", 0.0), "s"),
        "analysis.power_s": (layers.get("analysis.power_s", 0.0), "s"),
        "analysis.area_s": (layers.get("analysis.area_s", 0.0), "s"),
        "locking.security_s": (layers.get("locking.security_s", 0.0), "s"),
        "netlist.csr_builds": (count("netlist.csr.builds", 0), "count"),
        "attacks.sat_s": (total("attack.sat"), "s"),
        "attacks.sat.rounds": (sat_rounds, "count"),
        "attacks.sat.round_s": (ratio(total("attack.sat.iteration"), sat_rounds), "s"),
        "attacks.sat.extract_s": (total("attack.sat.extract"), "s"),
        "sat.conflicts": (count("sat.solver_conflicts", 0), "count"),
        "attacks.verify_s": (layers.get("attacks.verify_s", 0.0), "s"),
        "attacks.brute_s": (total("attack.brute"), "s"),
        "attacks.brute.hypotheses": (attr_sum("attack.brute", "hypotheses_tested"), "count"),
        "attacks.brute.equivalence_s": (total("attack.brute.equivalence"), "s"),
        "attacks.ml_s": (total("attack.ml"), "s"),
        "attacks.ml.iterations": (attr_sum("attack.ml", "iterations"), "count"),
        "sim.keybatch.lane_use": (ratio(filled, filled + wasted), "ratio"),
        "sim.codegen_compiles": (count("sim.codegen_compiles", 0), "count"),
        "oracle.queries": (count("oracle.queries", 0), "count"),
        "oracle.memo_hit_rate": (
            ratio(memo_hits, memo_hits + count("sim.evaluations", 0)),
            "ratio",
        ),
        "sweep.trial_s": (layers.get("sweep.trial_s", 0.0), "s"),
        "sweep.busy_share": (
            ratio(layers.get("sweep.trial_s", 0.0), WORKERS * first_s),
            "ratio",
        ),
        "sweep.claims": (layers.get("sweep.claims", 0), "count"),
        "sweep.duplicate_claims": (layers.get("sweep.duplicate_claims", 0), "count"),
        "sweep.resume_s": (layers.get("sweep.resume_s", 0.0), "s"),
        "process.cpu_s": (layers["cpu"], "s"),
        "obs.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(args) -> dict:
    import workloads
    from repro.obs import Recorder, Stopwatch, use_recorder

    work_dir = HERE / f".work-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, work_dir)
    setup_times, generate_times = [], []

    def set_up() -> None:
        # Garbage of earlier set-ups and rounds is collected here, not in
        # the next timed section.
        gc.collect()
        setup_tally = workloads.Tally()
        clock = Stopwatch()
        workload.setup(setup_tally)
        setup_times.append(clock.elapsed())
        generate_times.append(setup_tally.layers["circuits.generate_s"])

    setup_clock = Stopwatch()
    while len(setup_times) < SETUP_REPEATS or setup_clock.elapsed() < SETUP_SECONDS:
        set_up()

    tally = workloads.Tally()

    def one_round(recorder=None) -> float:
        """Program seconds of one round on freshly set-up inputs."""
        set_up()
        gc.collect()
        before = tally.layers.get("program", 0.0)
        cpu0 = cpu_seconds()
        with use_recorder(recorder):
            workload.round(tally)
        tally.layers["cpu"] = tally.layers.get("cpu", 0.0) + cpu_seconds() - cpu0
        return tally.layers["program"] - before

    try:
        if args.trace:
            one_round()  # warm-up, so that the untraced round pays no one-time costs
            untraced = one_round()
            before = dict(tally.layers)
            recorder = Recorder()
            traced = one_round(recorder)
            layers = {k: v - before.get(k, 0) for k, v in tally.layers.items()}
            layers["circuits.generate_s"] = statistics.median(generate_times)
            metrics = layer_metrics(recorder, layers, traced - untraced)
            walls = [untraced]
        else:
            clock = Stopwatch()
            walls = []
            # The next round is expected to take as long as the mean so far.
            while len(walls) < MIN_ROUNDS or clock.elapsed() * (len(walls) + 1) <= (
                args.seconds * len(walls)
            ):
                walls.append(one_round())
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "peak_rss_mb": {
                    "value": peak_rss_mb(args.workload == "sweep-steal"),
                    "unit": "MB",
                },
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    print(
        f"{args.workload}: seed {args.seed}, untraced rounds "
        f"{[round(w, 3) for w in walls]}, {tally.attempted} operations, "
        f"{tally.failed} failed, cpu_count {os.cpu_count()}"
    )
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path[:0] = [str(HERE), str(src)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: the program is not in {src}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
