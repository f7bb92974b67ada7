"""The traced run: per-layer metrics over a fixed list of operations.

Three passes cover ``wl.trace_ops``: (A) plain timing, (B) spans, LAPACK
counts and output checks on freshly built inputs, (C) LAPACK counts without
spans in a separate process (``run.py --count-probe``), which builds its own
inputs.  So neither B nor C sees state an earlier pass left in bwt's
objects, and the counters of B and C must agree exactly.
``trace.overhead_s`` is the median operation time of B minus that of A.
On ``cli`` the passes run each argv in-process through ``bwt.cli.main``;
the subprocess calls are timed and checked separately, and the start-up
cost comes from import probes.

Per-operation metrics (``.../op`` units) are totals over the traced pass
divided by its number of operations; ``decomps/call`` divides by the calls
of that function.  ``busy_s`` and ``self_s`` count only outermost spans of
a name, and ``self_s`` excludes the LAPACK spans beneath.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import run_child

#: Subprocess cycles over the ``cli`` calls, and import probes.
CLI_TRACE_CYCLES = 2
IMPORT_PROBES = 3

#: Public calls with busy, self, decomposition and failure metrics.
FUNCS = {layer: tracing.TRACED[layer] for layer in ("transport", "geodesic")}

UNITS = {
    "lapack.decomps": "calls/op", "lapack.eigh": "calls/op",
    "lapack.eigvalsh": "calls/op", "lapack.svd": "calls/op",
    "lapack.work_n3": "n3/op", "lapack.dup_frac": "1",
    "lapack.busy_s": "s/op", "lapack.share": "1",
    "linalg.CovMatrix.calls": "calls/op", "linalg.CovMatrix.busy_s": "s/op",
    "linalg.trace_fidelity.busy_s": "s/op",
    "linalg.align_green.calls": "calls/op", "linalg.align_green.busy_s": "s/op",
    "linalg.psd_function.calls": "calls/op",
    "schur.schur_complement.busy_s": "s/op", "schur.schur_complement.decomps": "decomps/call",
    **{f"{layer}.{f}.{m}": u for layer, fs in FUNCS.items() for f in fs
       for m, u in (("busy_s", "s/op"), ("self_s", "s/op"), ("decomps", "decomps/call"),
                    ("failed", "count"))},
    "barycenter.sweeps.fullrank": "sweeps", "barycenter.sweeps.singular": "sweeps",
    "barycenter.solve_bcd.self_s": "s/op", "barycenter.fixed_point_residual.busy_s": "s/op",
    "gproc.ibm_w2_numeric.busy_s": "s/op", "gproc.cross_gram_certificate.busy_s": "s/op",
    **{f"cli.call_s.{c}": "s" for c in ("distance", "map", "geodesic", "barycenter", "gp")},
    "cli.read_matrix.busy_s": "s/op", "cli.write_json.busy_s": "s/op",
    "import.bwt_s": "s", "import.scipy_linalg_s": "s", "import.floor_s": "s",
    "trace.overhead_s": "s",
}


def _pass(wl, tracer, ledger=None):
    """Run every trace op once; returns (wall durations, calibrated
    durations, sweeps by kind)."""
    times, calibrated, sweeps = [], [], {"fullrank": 0, "singular": 0}
    before = wl.probe()
    for k, op in enumerate(wl.trace_ops):
        prep = wl.prepare(op)
        if tracer is not None:
            tracer.begin_op(k)
        t0 = time.perf_counter()
        out = wl.in_process(op) if wl.name == "cli" else wl.run(op, prep)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        after = wl.probe()
        calibrated.append(times[-1] * wl.probe.scale(before, after))
        before = after
        if ledger is not None and wl.name != "cli":
            wl.check(op, prep, out, ledger)
        if wl.name == "barycenter":
            sweeps[wl.kind(op)] += wl.sweeps(op, out)
    return times, calibrated, sweeps


def _counters(tracer, sweeps) -> dict:
    """The deterministic counters, for the repeat check."""
    return {**tracer.counters(), **{f"sweeps.{k}": v for k, v in sweeps.items()}}


def count_pass(wl) -> dict:
    """Counters of one pass over ``wl.trace_ops`` with LAPACK counting but no
    spans (pass C, run in a process of its own)."""
    tracer = tracing.Tracer(spans=False)
    undo = tracing.install(tracer)
    try:
        _, _, sweeps = _pass(wl, tracer)
    finally:
        undo()
    return _counters(tracer, sweeps)


def _recount(args) -> dict:
    here = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, str(here / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--count-probe"],
        capture_output=True, text=True, cwd=here.parent, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"count probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_calls(wl, ledger) -> dict:
    """Median subprocess wall time per command over a few cycles, with every
    call checked."""
    walls: dict = {c: [] for c in wl.CMDS}
    for _ in range(CLI_TRACE_CYCLES):
        for op in wl.ops:
            prep = wl.prepare(op)
            t0 = time.perf_counter()
            out = wl.run(op, prep)
            walls[wl.argv(op)[0]].append(time.perf_counter() - t0)
            wl.check(op, prep, out, ledger)
    return {f"cli.call_s.{c}": statistics.median(v) for c, v in walls.items()}


def _import_probes(wl) -> dict:
    """Cumulative import times of bwt and scipy.linalg (``-X importtime``,
    median of a few processes) and the wall time of ``import numpy``."""
    bwt_s, scipy_s, floor = [], [], []
    log = wl.work / "importtime.log"
    for _ in range(IMPORT_PROBES):
        run_child([sys.executable, "-X", "importtime", "-c", "import bwt.cli"],
                  wl.env, wl.work, log)
        cum = {}
        for line in log.read_text().splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s?(\s*)(\S+)", line)
            if m:
                cum[m.group(3)] = int(m.group(1)) * 1e-6
        bwt_s.append(cum["bwt"])
        scipy_s.append(cum.get("scipy.linalg", 0.0))
        _, wall, _ = run_child([sys.executable, "-c", "import numpy"], wl.env, wl.work, log)
        floor.append(wall)
    return {"import.bwt_s": statistics.median(bwt_s),
            "import.scipy_linalg_s": statistics.median(scipy_s),
            "import.floor_s": statistics.median(floor)}


def per_layer(args, wl, ledger, work: Path):
    metrics = dict.fromkeys(UNITS, 0.0)
    _, plain, _ = _pass(wl, None)

    wl.setup(args.seed, work)  # fresh inputs: no state left by pass A
    tracer = tracing.Tracer(spans=True)
    undo = tracing.install(tracer)
    try:
        timed, traced_cal, sweeps_b = _pass(wl, tracer, ledger)
    finally:
        undo()

    first = _counters(tracer, sweeps_b)
    second = _recount(args)
    correct = first == second
    if not correct:
        print(f"deterministic counters differ between two processes: {first} vs {second}")

    n_ops = len(wl.trace_ops)
    agg = tracing.aggregate(tracer)
    total = lambda name, key: agg.get(name, {}).get(key, 0)  # noqa: E731

    decomps = sum(tracer.counts.values())
    lapack_busy = sum(total(f"lapack.{f}", "busy_s") for f in tracing.LAPACK_FUNCS)
    metrics.update({
        "lapack.decomps": decomps / n_ops,
        **{f"lapack.{f}": c / n_ops for f, c in tracer.counts.items()},
        "lapack.work_n3": tracer.work_n3 / n_ops,
        "lapack.dup_frac": tracer.dups / decomps if decomps else 0.0,
        "lapack.busy_s": lapack_busy / n_ops,
        "lapack.share": lapack_busy / sum(timed),
        "linalg.CovMatrix.calls": total("linalg.CovMatrix", "calls") / n_ops,
        "linalg.align_green.calls": total("linalg.align_green", "calls") / n_ops,
        "linalg.psd_function.calls": total("linalg.psd_function", "calls") / n_ops,
        "barycenter.sweeps.fullrank": sweeps_b["fullrank"],
        "barycenter.sweeps.singular": sweeps_b["singular"],
        "trace.overhead_s": statistics.median(traced_cal) - statistics.median(plain),
    })
    for name in ("linalg.CovMatrix", "linalg.trace_fidelity", "linalg.align_green",
                 "schur.schur_complement", "barycenter.fixed_point_residual",
                 "gproc.ibm_w2_numeric", "gproc.cross_gram_certificate", "cli.read_matrix"):
        metrics[f"{name}.busy_s"] = total(name, "busy_s") / n_ops
    metrics["cli.write_json.busy_s"] = total("cli.write_json_file", "busy_s") / n_ops
    metrics["barycenter.solve_bcd.self_s"] = total("barycenter.solve_bcd", "self_s") / n_ops
    outer = total("schur.schur_complement", "outer_calls")
    metrics["schur.schur_complement.decomps"] = (
        total("schur.schur_complement", "decomps") / outer if outer else 0.0)
    for layer, funcs in FUNCS.items():
        for f in funcs:
            name = f"{layer}.{f}"
            outer = total(name, "outer_calls")
            metrics[f"{name}.busy_s"] = total(name, "busy_s") / n_ops
            metrics[f"{name}.self_s"] = total(name, "self_s") / n_ops
            metrics[f"{name}.decomps"] = total(name, "decomps") / outer if outer else 0.0
            metrics[f"{name}.failed"] = ledger.failed_calls(f)

    if wl.name == "cli":
        metrics.update(_cli_calls(wl, ledger))
        metrics.update(_import_probes(wl))

    out_dir = Path(__file__).resolve().parent.parent / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{wl.name}-{args.seed}.jsonl")
    info = {"trace_ops": n_ops, "counters": first,
            "op_s.p50.traced": statistics.median(traced_cal),
            "op_s.p50.untraced": statistics.median(plain)}
    print(f"traced {n_ops} operations; overhead {metrics['trace.overhead_s']:.6g} s per "
          f"operation at the median; counters repeat: {correct}")
    return metrics, info, correct
