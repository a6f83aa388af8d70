"""clotkit benchmark: one workload per run, each round in a fresh process.

  python3 perfbench/run.py --workload t3-pairs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
src/).  The run makes its inputs from the seed, then starts rounds of the
workload one after another, each in its own single-threaded Python process
with clotkit's caches cold, while the elapsed time plus one more round fits
in --seconds (at least one round).  Set-up is sampled at least five times.
Every round's outputs are checked against the oracles.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
round, then traced rounds, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("yield") else "count"


class Runner:
    def __init__(self, workload: str, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self.started = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def round(self, setup_only: bool = False, trace_file=None) -> dict:
        job = {"workload": self.workload, "inputs": self.inputs,
               "setup_only": setup_only,
               "trace_file": str(trace_file) if trace_file else None}
        remaining = RUN_LIMIT_S - (perf_counter() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "worker.py")],
                input=json.dumps(job), capture_output=True, text=True,
                cwd=ROOT, env=self.env, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"a round ran past {RUN_LIMIT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def rounds(self, seconds: float, trace_file=None) -> list:
        """Whole rounds while the elapsed time plus the last round's fits."""
        begin = perf_counter()
        done = []
        while True:
            path = trace_file and trace_file.with_suffix(f".{len(done)}.json")
            t0 = perf_counter()
            done.append(self.round(trace_file=path))
            last = perf_counter() - t0
            if perf_counter() - begin + last > seconds:
                return done


def end_to_end(rounds: list, setups: list) -> dict:
    times = [t for r in rounds for t in r["verdict_s"]]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "verdict_p50_ms": statistics.median(times) * 1000,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
    }


def per_layer(untraced: dict, traced: list) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                               - untraced["run_s"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clotkit" / "__init__.py").is_file():
        print(f"error: no clotkit sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    make, check = workloads.WORKLOADS[args.workload]
    inputs, expected = make(args.seed)
    runner = Runner(args.workload, inputs)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.trace:
            untraced = runner.round()
            traced = runner.rounds(args.seconds - untraced["run_s"],
                                   RESULTS / f"spans-{tag}")
            checked = [untraced] + traced
            metrics = per_layer(untraced, traced)
        else:
            checked = runner.rounds(args.seconds)
            setups = [r["setup_s"] for r in checked]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.round(setup_only=True)["setup_s"])
            metrics = end_to_end(checked, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = []
    for r in checked:
        try:
            problems += check(r, expected)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    errors = [e for r in checked for e in r["errors"]]
    for line in (problems + [f"failed: {e}" for e in errors])[:20]:
        print(line, file=sys.stderr)
    failed = len(errors)
    result = {
        "correct": not problems,
        "attempted": sum(len(r["verdict_s"]) for r in checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(f"{args.workload} seed {args.seed}: {len(checked)} rounds, "
          f"{result['attempted']} verdicts, {failed} failed, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    keys = ("setup_s", "run_s", "verdict_s", "rss_kb")
    rounds = [{k: r.get(k) for k in keys} for r in checked]
    (RESULTS / f"result-{tag}.json").write_text(
        json.dumps(dict(result, rounds=rounds), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
