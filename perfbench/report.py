#!/usr/bin/env python3
"""Print every metric by name with its unit, one row per workload.

    python3 perfbench/report.py

A row holds the reproducibility record, the end-to-end metrics and figures
of the latest untraced run in perfbench/out, then every per-layer metric of
the latest traced run, zeros included.
"""
from __future__ import annotations

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402
FIGURES = (("samples", "count"), ("decks", "count"), ("fail_ratio", "ratio"), ("op_p90_ms", "ms"),
           ("route_err_max", "rel"), ("boundary_err_max", "length"), ("recon_l1_rel", "rel"))


def latest(workload: str, trace: int):
    files = glob.glob(os.path.join(OUT, f"{workload}-s*-t{trace}.json"))
    if not files:
        return None
    with open(max(files, key=os.path.getmtime), encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value: float, unit: str) -> str:
    return f"{value:.6g} {unit}"


def main() -> int:
    for w in WORKLOADS:
        plain, traced = latest(w, 0), latest(w, 1)
        cells = []
        if plain:
            rec = plain["record"]
            cells.append(f"seed={rec['seed']} correct={plain['result']['correct']} "
                         f"attempted={rec['attempted']} failed={rec['failed']} "
                         f"inputs={rec['inputs_digest'][:12]} python={rec['python']} numpy={rec['numpy']} "
                         f"blas_threads={rec['blas_threads']} nproc={rec['nproc']}")
            cells += [f"{k}={fmt(v['value'], v['unit'])}" for k, v in plain["result"]["metrics"].items()]
            cells += [f"{k}={fmt(rec[k], u)}" for k, u in FIGURES if k in rec]
        if traced:
            cells += [f"{k}={fmt(v['value'], v['unit'])}" for k, v in traced["result"]["metrics"].items()]
        print(f"{w}: " + ("; ".join(cells) if cells else "no results in perfbench/out"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
