"""Run one benchmark workload against the repro package of this checkout.

    python3 perfbench/run.py --workload serve-tile24 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Human-readable lines come first: the host
block, every metric under its own name with its unit, the workload's
properties and the output checks.  The last line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Per-run details and the recorded spans are written under
``.perfbench_out/``.  See perfbench/WORKLOADS.md for what each workload
loads and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-tile24", "fleet-patch100", "sweep-grid", "sweep-train")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no repro package under {ROOT / 'src'}; run from the root of a checkout")
    try:
        return json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {spec_path}: {exc}")


def _run(workload: str, seed: int, seconds: float, trace: bool):
    if workload in ("serve-tile24", "fleet-patch100"):
        from perfbench import serving

        run = serving.serve_tile24 if workload == "serve-tile24" else serving.fleet_patch100
        return run(seed, seconds, trace)
    from perfbench import sweeps

    run = sweeps.sweep_grid if workload == "sweep-grid" else sweeps.sweep_train
    return run(seed, seconds, trace, ROOT)


def _metrics(result, spec: dict, trace: bool) -> dict:
    """Exactly the metrics BENCHMARK.json names for this mode, with its units.

    A per-layer metric of a layer this workload leaves idle reads 0.
    """
    out = {}
    if trace:
        for entry in spec["per_layer"]:
            value = result.per_layer.get(entry["name"], (0.0, entry["unit"]))[0]
            out[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        return out
    for entry in spec["end_to_end"]:
        if entry["name"] not in result.metrics:
            _fail(f"{result.workload} did not measure {entry['name']}")
        out[entry["name"]] = {"value": float(result.metrics[entry["name"]][0]),
                              "unit": entry["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = _load_spec()
    # One BLAS thread in every workload, whatever the caller's environment
    # says, so every run measures the same configuration.  Thread-mode
    # serving already runs one replica per core, and BLAS threads on top of
    # that oversubscribe the cores (the process-mode serving workers pin BLAS
    # to one thread for the same reason); the sweeps run one trial at a time
    # and use the same setting so a kernel is timed the same way everywhere.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import host_block

    host = host_block()
    result, tracer = _run(args.workload, args.seed, args.seconds, bool(args.trace))

    print("host " + json.dumps(host))
    print(f"workload {result.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<28} {value:14.4f} {unit}")
    for name, value in result.properties.items():
        print(f"  property {name}: {json.dumps(value)}")
    for name, (value, unit) in sorted(result.per_layer.items()):
        print(f"  layer {name:<40} {value:12.4f} {unit}")
    for name, ok in result.checks.items():
        print(f"  check {name}: {'pass' if ok else 'FAIL'}")
    for note in result.notes:
        print(f"  note: {note}")

    out_dir = ROOT / ".perfbench_out"
    stem = f"{result.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(exist_ok=True)
    details = {"host": host, "workload": result.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "metrics": result.metrics,
               "properties": result.properties, "per_layer": result.per_layer,
               "checks": result.checks, "notes": result.notes}
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=2), encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl")

    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": _metrics(result, spec, bool(args.trace))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
