"""Record the reference outputs and peak memory that run.py checks against.

    python3 perfbench/record.py outputs --workload eval_ml1m
    python3 perfbench/record.py peaks

``outputs`` runs one unit of the workload for each input seed from 0 to
``run.RECORDED_SEEDS - 1`` and stores its output record under
``outputs.<workload>.<seed>`` in reference.json. ``peaks`` runs each
workload once through run.py for BENCHMARK.json's ``run_seconds``, each in
a fresh process, and stores its measured ``peak_rss_mb`` for the memory
guard. Re-record after any change to a workload's inputs or configuration.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def record_outputs(name, reference):
    import workloads
    wl = workloads.WORKLOADS[name]
    if not wl.recorded:
        raise SystemExit(f"{name} checks its outputs without a recording")
    outputs = reference.setdefault("outputs", {}).setdefault(name, {})
    for seed in range(run.RECORDED_SEEDS):
        state = wl.setup(seed)
        wl.reset(state)
        record = [float(v) for v in wl.run(state).record]
        problems = wl.check(record, None)
        if problems:
            raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
        outputs[str(seed)] = record
        print(f"{name} seed {seed}: {record}", flush=True)


def record_peaks(reference):
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name in run.WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", name,
                               "--seed", "0", "--seconds", str(seconds), "--trace", "0"],
                              cwd=run.ROOT, capture_output=True, text=True, check=True)
        peak = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["peak_rss_mb"]["value"]
        reference["peak_rss_mb"][name] = round(peak)
        print(f"{name}: peak {peak:.0f} MB", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("outputs", "peaks"))
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args()
    run.limit_threads()
    run.import_program()
    reference = run.read_reference()
    if args.what == "outputs":
        if args.workload is None:
            parser.error("outputs needs --workload")
        record_outputs(args.workload, reference)
        # another recorder may have written meanwhile: merge into the file as it is now
        current = run.read_reference()
        current.setdefault("outputs", {})[args.workload] = reference["outputs"][args.workload]
        reference = current
    else:
        record_peaks(reference)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
