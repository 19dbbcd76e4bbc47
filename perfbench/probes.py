"""Stage probes: each stage timed on its own, on fixed inputs, at set orders.

The inputs do not depend on the seed, so a probe reads the same work in
every traced run of every workload.  Each time is the median CPU time of REPS calls;
work counters come from the return values.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np

from expotrans import finiteterm, gallery, operators, orthopoly, reconstruct, serialize, series, shapes

REPS = 5


def _median_ms(fn, reps: int = REPS):
    times, result = [], None
    for _ in range(reps):
        t0 = time.process_time()
        result = fn()
        times.append((time.process_time() - t0) * 1e3)
    return statistics.median(times), result


def run_probes() -> dict[str, float]:
    m: dict[str, float] = {}
    ell = shapes.Ellipse(0.1 + 0.05j, 1.5, 0.7, 0.4)
    for n in (12, 24, 48):
        m[f"shapes.moments.ellipse.n{n}_ms"], _ = _median_ms(lambda: shapes.moments(ell, n), 3 if n == 48 else REPS)
    xs = np.linspace(-1, 1, 48)
    grid = shapes.Grid(shapes.Box(-1, 1, -1, 1), np.clip(1.2 - np.hypot(xs[None, :], xs[:, None]), 0, 1))
    m["shapes.moments.grid.n24_ms"], _ = _median_ms(lambda: shapes.moments(grid, 24))
    kshape = shapes.Ellipse(0j, 1.5, 0.5)
    m["shapes.cauchy_kernel_log.far_ms"], _ = _median_ms(lambda: shapes.cauchy_kernel_log(kshape, 3.0, 3.0 + 0.5j))
    m["shapes.cauchy_kernel_log.near_ms"], _ = _median_ms(lambda: shapes.cauchy_kernel_log(kshape, 1.6, 1.6), 3)

    a48 = shapes.moments(shapes.Ellipse(0j, 1.5, 0.5), 48).a
    for n in (12, 24, 48):
        tail = series.BiSeries.from_tail(a48[:n, :n])
        m[f"series.exp_neg.n{n}_ms"], e = _median_ms(lambda: series.exp_neg(tail))
    m["series.log_neg.n48_ms"], _ = _median_ms(lambda: series.log_neg(e))

    trifoil = gallery.resolve("gallery:trifoil")
    for n in (12, 24, 48):
        op = trifoil.sized_for(n)
        m[f"operators.b_from_operator.n{n}_ms"], _ = _median_ms(lambda: operators.b_from_operator(op, n))

    b = {n: gallery.b_for("gallery:ellipse?u=2", n) for n in (12, 24, 48)}
    m["orthopoly.orthonormalize.n48_ms"], basis = _median_ms(lambda: orthopoly.orthonormalize(b[48]))
    m["orthopoly.hessenberg.n48_ms"], _ = _median_ms(lambda: orthopoly.hessenberg(b[48], basis))
    m["finiteterm.detect_order.n48_ms"], cert = _median_ms(lambda: finiteterm.detect_order(b[48], 4))
    for n in (12, 24, 48):
        col = b[n].b[:, 0]
        m[f"finiteterm.fill_from_first_column.n{n}_ms"], filled = _median_ms(
            lambda: finiteterm.fill_from_first_column(col, cert.q, n), 3 if n == 48 else REPS)
    m["finiteterm.fill_from_first_column.n48_certified"] = float(filled.certified.sum())

    for n in (12, 24, 40):
        a = shapes.moments(shapes.Disk(0j, 1.0), n)
        m[f"reconstruct.real_moments.n{n}_ms"], _ = _median_ms(lambda: reconstruct.real_moments(a), 3 if n == 40 else REPS)
    a12 = shapes.moments(shapes.Disk(0j, 1.0), 12)
    rm, box = reconstruct.real_moments(a12), reconstruct.support_box(a12)
    m["reconstruct.legendre_fit.l10_ms"], fld = _median_ms(lambda: reconstruct.legendre_fit(rm, box, 10))
    m["reconstruct.sample.g64_ms"], _ = _median_ms(lambda: fld.sample(64, 64))

    obj = serialize.matrix_to_obj(b[48].b)
    m["serialize.dumps.n48_ms"], text = _median_ms(lambda: serialize.dumps(obj))
    parsed = json.loads(text)
    m["serialize.matrix_from_obj.n48_ms"], _ = _median_ms(lambda: serialize.matrix_from_obj(parsed))
    return m
