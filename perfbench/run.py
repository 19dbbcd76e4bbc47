#!/usr/bin/env python3
"""Benchmark of the expotrans package, driven from outside through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: moment-pipeline, recover, boundary-trace, cli-cold (see README.md).
One process, one caller, closed loop: the next operation starts when the
previous one and its check have finished.  The run executes whole decks of
operations (workloads.py) until --seconds have passed.

--trace 0 measures the end-to-end metrics.  --trace 1 spends half the time
untraced and half traced on the same inputs, reports per-layer metrics from
the traced half, the tracing overhead, and the stage probes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it is the reproducibility record.  Both are also
written to perfbench/out/, with the spans of a traced run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# Pin BLAS threads before numpy loads, so reductions repeat exactly.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")  # relative to ROOT
SETUP_ROUNDS = 5
WORKLOADS = ("moment-pipeline", "recover", "boundary-trace", "cli-cold")
CLI_COMMANDS = ("moments", "transform", "pipeline", "detect", "fill", "reconstruct", "evolve", "gallery", "selftest")
ACCURACY = {"moment-pipeline": "route_err_max", "boundary-trace": "boundary_err_max", "recover": "recon_l1_rel"}

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    from tracer import TRACED

    spec: dict[str, tuple[str, str]] = {}
    functions = [f"{m}.{f}" for m, names in TRACED.items() for f in names] + ["reconstruct.sample"]
    for fn in functions:
        if fn != "gallery.b_for":  # it runs only in set-up: gallery.b_for.setup_ms
            spec[f"{fn}.busy_ms"] = ("ms", "lower")
    for fn in ("series.exp_neg", "series.log_neg", "shapes.moments", "shapes.cauchy_kernel_log",
               "exptransform.eval_E", "exptransform.boundary_root", "finiteterm.fit_certificate",
               "finiteterm.detect_order", "reconstruct.real_moments"):
        spec[f"{fn}.calls"] = ("count", "lower")
    # boundary_root's probes inside the support: the only calls that fail in a correct run
    spec["exptransform.eval_E.failed"] = ("count", "lower")
    for fn in ("op", "exptransform.a_to_b", "exptransform.b_to_a", "exptransform.boundary_root",
               "reconstruct.reconstruct_from_certificate", "reconstruct.support_box"):
        spec[f"{fn}.self_ms"] = ("ms", "lower")
    spec["orthopoly.orthonormalize.stop_degree"] = ("count", "higher")
    spec["finiteterm.detect_order.hit_ratio"] = ("ratio", "higher")
    spec["finiteterm.fill_from_first_column.certified_entries"] = ("count", "higher")
    spec["reconstruct.reconstruct_from_certificate.covered_order"] = ("count", "higher")
    spec["gallery.b_for.setup_ms"] = ("ms", "lower")
    for name in PROBES:
        spec[name] = ("count", "higher") if name.endswith("_certified") else ("ms", "lower")
    spec["cli.import_ms"] = ("ms", "lower")
    for cmd in CLI_COMMANDS:
        spec[f"cli.{cmd}.cold_ms"] = ("ms", "lower")
        spec[f"cli.{cmd}.inproc_ms"] = ("ms", "lower")
    spec["trace.ops"] = ("count", "higher")
    spec["trace.overhead_ms"] = ("ms", "lower")
    spec["defects.shown"] = ("count", "lower")
    spec["e2e.op_p90_ms"] = ("ms", "lower")
    spec["e2e.route_err_max"] = ("rel", "lower")
    spec["e2e.boundary_err_max"] = ("length", "lower")
    spec["e2e.recon_l1_rel"] = ("rel", "lower")
    return spec


PROBES = (
    "shapes.moments.ellipse.n12_ms", "shapes.moments.ellipse.n24_ms", "shapes.moments.ellipse.n48_ms",
    "shapes.moments.grid.n24_ms", "shapes.cauchy_kernel_log.far_ms", "shapes.cauchy_kernel_log.near_ms",
    "series.exp_neg.n12_ms", "series.exp_neg.n24_ms", "series.exp_neg.n48_ms", "series.log_neg.n48_ms",
    "operators.b_from_operator.n12_ms", "operators.b_from_operator.n24_ms", "operators.b_from_operator.n48_ms",
    "orthopoly.orthonormalize.n48_ms", "orthopoly.hessenberg.n48_ms", "finiteterm.detect_order.n48_ms",
    "finiteterm.fill_from_first_column.n12_ms", "finiteterm.fill_from_first_column.n24_ms",
    "finiteterm.fill_from_first_column.n48_ms", "finiteterm.fill_from_first_column.n48_certified",
    "reconstruct.real_moments.n12_ms", "reconstruct.real_moments.n24_ms", "reconstruct.real_moments.n40_ms",
    "reconstruct.legendre_fit.l10_ms", "reconstruct.sample.g64_ms",
    "serialize.dumps.n48_ms", "serialize.matrix_from_obj.n48_ms",
)


def make_workload(name: str):
    import workloads

    if name == "moment-pipeline":
        return workloads.MomentPipeline()
    if name == "recover":
        return workloads.Recover()
    if name == "boundary-trace":
        return workloads.BoundaryTrace()
    return workloads.CliCold(ROOT, OUT, SRC)


def _jsonable(x):
    if isinstance(x, complex):
        return [repr(x.real), repr(x.imag)]
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def inputs_digest(wl, seed: int) -> str:
    """sha256 over the seed's set-up sources and first deck, floats in repr."""
    doc = {"deck0": wl.deck(seed, 0)}
    if hasattr(wl, "sources"):
        doc["sources"] = wl.sources(seed)
    text = json.dumps(_jsonable(doc), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cpu_now() -> float:
    """CPU seconds of this process and its finished children.

    The timed metrics count CPU time: on a shared virtual machine the
    hypervisor steals a varying share of wall time, which CPU time excludes.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def setup_round(wl, seed: int):
    """One set-up: a fresh interpreter importing expotrans, then inputs and preparation."""
    import workloads

    t0 = cpu_now()
    subprocess.run([sys.executable, "-c", "import expotrans"], env=workloads.child_env(SRC),
                   cwd=ROOT, check=True, capture_output=True, timeout=120)
    t1 = cpu_now()
    wl.deck(seed, 0)
    ctx = wl.prepare(seed)
    return cpu_now() - t0, t1 - t0, ctx


def measure(wl, seed: int, seconds: float, ctx: dict, tracer=None, first_op: int = 0):
    """Run whole decks until `seconds` have passed; one row per operation."""
    rows = []
    t_start = time.perf_counter()
    k = 0
    while True:
        for spec in wl.deck(seed, k):
            op_id = first_op + len(rows)
            exc, out = None, None
            t0 = cpu_now()
            try:
                if tracer is None:
                    out = wl.run(spec, ctx)
                else:
                    with tracer.span("op", op=op_id):
                        out = wl.run(spec, ctx)
            except Exception as e:  # an operation's failure is data, the loop goes on
                exc = e
            ms = (cpu_now() - t0) * 1e3
            verdict = wl.check(spec, out, exc, ctx)
            rows.append({"op": op_id, "spec": spec, "ms": ms, "verdict": verdict})
        k += 1
        if time.perf_counter() - t_start >= seconds:
            return rows, k


def e2e_figures(rows: list[dict], workload: str) -> dict:
    lat = [r["ms"] for r in rows]
    failed = sum(not r["verdict"].ok for r in rows)
    fig = {
        "samples": len(lat),
        "op_p50_ms": statistics.median(lat),
        # an operation completes when it returns or raises; failures are counted apart
        "ops_per_s": len(rows) / (sum(lat) / 1e3),
        "fail_ratio": failed / len(rows),
    }
    if len(lat) >= 100:
        fig["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1]
    if workload in ACCURACY:
        # a raise carries no figure (err 0), so this is the worst output returned
        fig[ACCURACY[workload]] = max(r["verdict"].err for r in rows)
    return fig


def layer_metrics(tracer, rows_traced, rows_plain, workload, probes, defects, ctx, import_ms, setup_b_for_ms) -> dict:
    from tracer import summarize

    spec = per_layer_spec()
    m = {name: 0.0 for name in spec}
    n_ops = len(rows_traced)
    summary = summarize(tracer.spans, {r["op"] for r in rows_traced})
    for fn, row in summary.items():
        for key, val in (("busy_ms", row["busy"] * 1e3 / n_ops), ("self_ms", row["self"] * 1e3 / n_ops),
                         ("calls", row["calls"]), ("failed", row["failed"])):
            if f"{fn}.{key}" in m:
                m[f"{fn}.{key}"] = float(val)
        c = row["counters"]
        if fn == "orthopoly.orthonormalize":
            m["orthopoly.orthonormalize.stop_degree"] = c["stop_degree"] / row["calls"]
        elif fn == "finiteterm.detect_order":
            m["finiteterm.detect_order.hit_ratio"] = c["hit"] / row["calls"]
        elif fn == "finiteterm.fill_from_first_column":
            m["finiteterm.fill_from_first_column.certified_entries"] = c["certified_entries"] / row["calls"]
        elif fn == "reconstruct.reconstruct_from_certificate" and "covered_order" in c:
            ok = row["calls"] - row["failed"]
            m["reconstruct.reconstruct_from_certificate.covered_order"] = c["covered_order"] / max(ok, 1)
    m["gallery.b_for.setup_ms"] = setup_b_for_ms
    m.update(probes)
    m["cli.import_ms"] = import_ms
    if workload == "cli-cold":
        for cmd in CLI_COMMANDS:
            cold = [r["ms"] for r in rows_plain + rows_traced if r["spec"]["cmd"] == cmd]
            m[f"cli.{cmd}.cold_ms"] = statistics.median(cold)
            m[f"cli.{cmd}.inproc_ms"] = statistics.median(ctx["inproc_ms"][cmd])
    plain = e2e_figures(rows_plain, workload)
    m["trace.ops"] = float(n_ops)
    m["trace.overhead_ms"] = statistics.median(r["ms"] for r in rows_traced) - plain["op_p50_ms"]
    for key in ("op_p90_ms", "route_err_max", "boundary_err_max", "recon_l1_rel"):
        m[f"e2e.{key}"] = float(plain.get(key, 0.0))
    m["defects.shown"] = float(sum(d["shows"] for d in defects.values()))
    return {name: {"value": float(val), "unit": spec[name][0]} for name, val in m.items()}


def versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "expotrans", "__init__.py")):
        sys.stderr.write(f"perfbench: no expotrans sources at {SRC}; run from a checkout of the repository\n")
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]
    import expotrans

    if not os.path.abspath(expotrans.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported expotrans from {expotrans.__file__}, not from {SRC}\n")
        return 2
    import tracer as tracing
    from defects import run_defects
    from probes import run_probes

    os.makedirs(OUT, exist_ok=True)
    wl = make_workload(args.workload)

    rounds = [setup_round(wl, args.seed) for _ in range(SETUP_ROUNDS)]
    setup_s = statistics.median(r[0] for r in rounds)
    import_ms = statistics.median(r[1] for r in rounds) * 1e3
    ctx = rounds[-1][2]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": inputs_digest(wl, args.seed),
        **versions(),
    }
    if args.trace == 0:
        rows, decks = measure(wl, args.seed, args.seconds, ctx)
        all_rows = rows
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        fig = e2e_figures(rows, args.workload)
        metrics = {"setup_s": setup_s, "ops_per_s": fig["ops_per_s"], "op_p50_ms": fig["op_p50_ms"],
                   "peak_rss_mb": peak_mb}
        metrics = {k: {"value": float(v), "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        record.update(decks=decks, **fig)
    else:
        rows_plain, decks_a = measure(wl, args.seed, args.seconds / 2, ctx)
        tr = tracing.Tracer()
        undo = tracing.instrument(tr)
        try:
            with tr.span("setup", op="setup"):
                wl.prepare(args.seed)
            setup_b_for_ms = sum(s.end - s.start for s in tr.spans if s.name == "gallery.b_for") * 1e3
            rows_traced, decks_b = measure(wl, args.seed, args.seconds / 2, ctx, tracer=tr, first_op=len(rows_plain))
        finally:
            tracing.restore(undo)
        probes = run_probes()
        defects = run_defects(args.workload, OUT)
        all_rows = rows_plain + rows_traced
        metrics = layer_metrics(tr, rows_traced, rows_plain, args.workload, probes, defects, ctx, import_ms,
                                setup_b_for_ms)
        record.update(decks=decks_a + decks_b, samples=len(all_rows), defects=defects)
        with open(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(tracing.to_jsonl(tr.spans, tr.spans[0].start if tr.spans else 0.0))

    failed = sum(not r["verdict"].ok for r in all_rows)
    record["attempted"] = len(all_rows)
    record["failed"] = failed
    result = {
        "correct": failed == 0,
        "attempted": len(all_rows),
        "failed": failed,
        "metrics": metrics,
    }
    details = [
        {"spec": _jsonable(r["spec"]), "detail": r["verdict"].detail}
        for r in all_rows if not r["verdict"].ok
    ][:100]
    with open(os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "failure_details": details}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
