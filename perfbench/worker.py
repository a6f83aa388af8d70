"""One round of one workload, in a fresh process, so clotkit's caches start
cold as they do for a user of the command line.

Reads a job from standard input as JSON: {"workload", "inputs", "setup_only",
"trace_file"}.  Times the set-up (importing clotkit, then building and
validating the inputs) and each verdict, and prints one JSON line with the
times, ru_maxrss and the program's outputs, serialised after the timing.
The parent process checks those outputs against the oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

clotkit = None  # imported inside the timed set-up


def setup_t3_pairs(inputs):
    monoid = clotkit.monoid
    t3, _ = monoid.full_transformation_monoid(3)
    enum = monoid.enumerate_submonoids(t3)
    known = {mask.bits for mask in enum.masks}
    index = {label: i for i, label in enumerate(t3.labels)}
    subs = []
    for labels in inputs["submonoids"]:
        bits = frozenset(index[label] for label in labels)
        if bits not in known:
            raise ValueError(f"{labels} is not an enumerated submonoid of T3")
        subs.append(bits)
    facts = {"order": t3.order, "submonoids": len(enum.masks),
             "truncated": enum.truncated}
    return [(t3, bits) for bits in subs], facts


def setup_t4_scale(inputs):
    monoid = clotkit.monoid
    pairs = []
    for item in inputs["pairs"]:
        spec = monoid.TransformationSpec(
            4, tuple(tuple(g) for g in item["generators"]))
        m = monoid.monoid_from_transformations(spec)
        element = m.labels.index(item["element"])
        pairs.append((m, monoid.submonoid_closure(m, {element}).bits))
    facts = {"pairs": [{"order": m.order,
                        "submonoid": sorted(m.labels[i] for i in bits)}
                       for m, bits in pairs]}
    return pairs, facts


def setup_hunt(inputs):
    import clotkit.cli  # noqa: F401  (not imported by the package)
    return [inputs["argv"]], {}


SETUP = {
    "t3-pairs": setup_t3_pairs,
    "t4-scale": setup_t4_scale,
    "hunt": setup_hunt,
}


def finite_verdict(pair):
    report = clotkit.classify.classify_pair(*pair)
    return report, clotkit.classify.check_consistency(report)


def hunt_verdict(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = clotkit.cli.main(argv)
    return code, out.getvalue()


VERDICT = {
    "t3-pairs": finite_verdict,
    "t4-scale": finite_verdict,
    "hunt": hunt_verdict,
}


def serialise(workload, operand, result):
    if workload == "hunt":
        code, text = result
        return {"exit": code, "stdout": text}
    report, violations = result
    return {"report": clotkit.classify.report_json(report, operand[0]),
            "consistency": violations}


def corpus_dump():
    """The finite corpus the hunt classified, for the clot oracle."""
    monoids = {}
    pairs = []
    for pair in clotkit.search.default_corpus():
        key = (pair.monoid.table, pair.monoid.identity)
        if key not in monoids:
            monoids[key] = len(monoids)
        pairs.append([monoids[key], sorted(pair.mask)])
    return {"monoids": [[list(map(list, table)), identity]
                        for table, identity in monoids],
            "pairs": pairs}


def main() -> None:
    global clotkit
    job = json.load(sys.stdin)
    workload = job["workload"]
    start = perf_counter()
    import clotkit
    recorder = None
    if job.get("trace_file"):
        from spans import Recorder
        recorder = Recorder().install()
    operands, facts = SETUP[workload](job["inputs"])
    setup_s = perf_counter() - start
    result = {"setup_s": setup_s, "facts": facts}
    if not job.get("setup_only"):
        times, raw, errors = [], [], []
        run_start = perf_counter()
        for operand in operands:
            t0 = perf_counter()
            try:
                raw.append(VERDICT[workload](operand))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                raw.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            times.append(perf_counter() - t0)
        run_s = perf_counter() - run_start
        result.update(
            run_s=run_s, verdict_s=times, errors=errors,
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            outputs=[None if r is None else serialise(workload, o, r)
                     for o, r in zip(operands, raw)])
        if workload == "hunt":
            result["corpus"] = corpus_dump()
    if recorder is not None:
        recorder.uninstall()
        result["layers"] = recorder.layer_metrics()
        recorder.write(job["trace_file"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
