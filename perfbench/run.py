"""Benchmark runner for mixrec.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` makes the traced run and prints the per-layer
metrics. ``--workload all`` runs every workload, each in a fresh process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every value is a
number. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import NUMKIT_OPS, TRACED_MODULES, Tracer, merge_times, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("train_paper", "search_desk", "eval_ml1m")
# reference.json holds outputs for input seeds 0..RECORDED_SEEDS-1, and a
# run's inputs come from ``--seed`` modulo this, so every unit is checked
# against a recorded output
RECORDED_SEEDS = 64

# exit codes; argparse exits with 2 on a usage error
EXIT_NO_PROGRAM, EXIT_NO_MEMORY, EXIT_NO_LAYER = 3, 4, 5

# end-to-end metric -> (unit, higher is better)
END_TO_END = {
    "examples_per_s": ("1/s", True),
    "setup_s": ("s", False),
    "peak_rss_mb": ("MB", False),
}

# per-layer metric -> (unit, how it is derived from the traced run)
#   ("total", span)  inclusive span time per work item
#   ("self", span)   span time minus its child spans, per work item
#   ("count", key)   counter per work item
#   ("ratio", num, den)  one counter over another
PER_LAYER = {}
for _op in ("gelu", "matmul", "layer_norm", "mul", "batch_transpose", "take_rows",
            "repeat_rows", "row_dot"):
    PER_LAYER[f"numkit.{_op}.fwd_ms"] = ("ms/item", ("total", f"numkit.{_op}.fwd"))
    PER_LAYER[f"numkit.{_op}.bwd_ms"] = ("ms/item", ("total", f"numkit.{_op}.bwd"))
PER_LAYER.update({
    "numkit.dropout_mask.ms": ("ms/item", ("total", "numkit.dropout_mask")),
    "numkit.softmax.calls": ("1/item", ("count", "numkit.softmax.calls")),
    "numkit.backward.self_ms": ("ms/item", ("self", "numkit.backward")),
    "numkit.zero_grad.ms": ("ms/item", ("total", "numkit.zero_grad")),
    "numkit.nodes": ("1/item", ("count", "numkit.nodes")),
    "numkit.node_mb": ("MB/item", ("count", "numkit.node_bytes", 1e-6)),
    "numkit.gelu.elements": ("1/item", ("count", "numkit.gelu.elements")),
    "numkit.mul.const_operand_frac": ("frac", ("ratio", "numkit.mul.const_operands",
                                               "numkit.mul.operands")),
    "model.embed.fwd_ms": ("ms/item", ("total", "model.embed")),
    "model.sequence_mixer_block.fwd_ms": ("ms/item", ("total", "model.sequence_mixer_block")),
    "model.channel_mixer_block.fwd_ms": ("ms/item", ("total", "model.channel_mixer_block")),
    "model.interest_forward.long.fwd_ms": ("ms/item", ("total", "model.interest_forward.long")),
    "model.interest_forward.short.fwd_ms": ("ms/item", ("total", "model.interest_forward.short")),
    "model.mixture_short_term.fwd_ms": ("ms/item", ("total", "model.mixture_short_term")),
    "model.fuse_output.fwd_ms": ("ms/item", ("total", "model.fuse_output")),
    "model.score_items.fwd_ms": ("ms/item", ("total", "model.score_items")),
    "model.copy_data.ms": ("ms/item", ("total", "model.copy_data")),
    "train.batch_loss.ms": ("ms/item", ("total", "train.batch_loss")),
    "train.adam_update.ms": ("ms/item", ("total", "train.adam_update")),
    "train.make_batches.ms": ("ms/item", ("total", "train.make_batches")),
    "train.sample_training_negatives.ms": ("ms/item", ("total", "train.sample_training_negatives")),
    "search.approx_inner.ms": ("ms/item", ("total", "search.approx_inner")),
    "search.alpha_gradient.self_ms": ("ms/item", ("self", "search.alpha_gradient")),
    "search.arch_step.ms": ("ms/item", ("total", "search.arch_step")),
    "search.weight_step.ms": ("ms/item", ("total", "search.weight_step")),
    "evaluate.evaluate_split.ms": ("ms/item", ("total", "evaluate.evaluate_split")),
    "evaluate.example_rng.ms": ("ms/item", ("total", "evaluate.example_rng")),
    "evaluate.rank_of_target.ms": ("ms/item", ("total", "evaluate.rank_of_target")),
    "evaluate.example_rng.repeat_frac": ("frac", ("ratio", "evaluate.example_rng.repeats",
                                                  "evaluate.example_rng.calls")),
    "data.sample_negatives.ms": ("ms/item", ("total", "data.sample_negatives")),
    "data.build_sequences.s": ("s", ("setup", "data.build_sequences")),
    "trace.coverage_frac": ("frac", ("coverage",)),
    "trace.overhead_frac": ("frac", ("overhead",)),
})
# counters kept over every numkit op rather than over one function
MODULE_COUNTERS = {"numkit.nodes", "numkit.node_bytes"}


def missing_layer_functions(target_names):
    """Functions that a per-layer metric reads from but that are not among
    the tracer's ``target_names``: a span or counter ``a.b[.c]`` is read
    from the function ``a.b``. Backward spans also need the op in
    ``NUMKIT_OPS``."""
    missing = set()
    for _, how in PER_LAYER.values():
        for key in how[1:]:
            if not isinstance(key, str) or key in MODULE_COUNTERS:
                continue
            fn = ".".join(key.split(".")[:2])
            if fn not in target_names or (key.endswith(".bwd")
                                          and fn.split(".")[1] not in NUMKIT_OPS):
                missing.add(fn)
    return sorted(missing)


def limit_threads():
    """Cap BLAS and OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    return int(n)


def import_program():
    """Import mixrec from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mixrec" / "__init__.py").is_file():
        print(f"error: no mixrec sources at {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import mixrec
    if Path(mixrec.__file__).resolve().parent != (SRC / "mixrec").resolve():
        print(f"error: imported mixrec from {mixrec.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def read_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- memory guard ------------------------------------------------------------

def available_mb():
    """Memory this process could still get: MemAvailable, lowered to the
    headroom under the cgroup limit when one is set."""
    avail = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) / 1024
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = int(Path("/sys/fs/cgroup/memory.current").read_text())
        if limit != "max":
            headroom = (int(limit) - used) / 2 ** 20
            avail = headroom if avail is None else min(avail, headroom)
    except (OSError, ValueError):
        pass
    return avail


def guard_memory(workload, reference):
    need = reference["peak_rss_mb"][workload]
    have = available_mb()
    if have is not None and have < need:
        print(f"error: {workload} peaks at about {need:.0f} MB but only {have:.0f} MB "
              f"is available; refusing to start", file=sys.stderr)
        sys.exit(EXIT_NO_MEMORY)


# -- provenance ----------------------------------------------------------------

def provenance(seed, input_seed, threads):
    import numpy
    import scipy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        git = ({"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
               if sha.returncode == 0 else None)
    except (OSError, subprocess.TimeoutExpired):
        git = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mixrec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git["sha"] if git else None,
        "git_dirty": git["dirty"] if git else None,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20),
        "seed": seed,
        "input_seed": input_seed,
    }


# -- measurement -----------------------------------------------------------------

def summarize(samples, higher_is_better):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it on the bad side (None below eleven samples). With no
    samples (every unit failed) the median is 0: nothing was done."""
    out = {"median": statistics.median(samples) if samples else 0.0, "n": len(samples),
           "tail": None, "samples": list(samples)}
    n = len(samples)
    if n > 10:
        pct = (100 * (n - 10)) // n
        ordered = sorted(samples, reverse=higher_is_better)
        out["tail"] = {"p": pct, "value": ordered[max(0, -(-pct * n // 100) - 1)]}
    return out


class Measurement:
    def __init__(self):
        self.rates = []        # examples per second, one per unit
        self.walls = []        # seconds per unit
        self.examples = 0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.layers = {}       # traced runs: merged ``spans.self_times`` per span name
        self.counts = {}       # traced runs: summed tracer counters

    def add(self, other):
        self.rates += other.rates
        self.walls += other.walls
        for key in ("examples", "items", "attempted", "failed"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        merge_times(self.layers, other.layers)
        add_counts(self.counts, other.counts)


def add_counts(into, counts):
    for key, value in counts.items():
        into[key] = into.get(key, 0.0) + value


def measure(wl, state, seconds, check, tracer=None):
    """Run units until the next one would end after ``seconds``; each unit's
    output goes through ``check`` and counts as failed if it raises or fails.
    Only units that return add samples, spans and counters."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        wl.reset(state)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            unit = wl.run(state)
        except Exception:  # a failed unit is counted, and the run goes on
            unit = None
            traceback.print_exc()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            spans, counts = tracer.take()
            if unit is not None:
                merge_times(m.layers, self_times(spans))
                add_counts(m.counts, counts)
        m.attempted += 1
        problems = ["raised an exception"] if unit is None else check(unit.record)
        if problems:
            m.failed += 1
            print(f"check failed: {wl.name}: " + "; ".join(problems), file=sys.stderr)
        if unit is not None:
            m.rates += [n / t for n, t in (unit.parts or [(unit.examples, wall)])]
            m.walls.append(wall)
            m.examples += unit.examples
            m.items += unit.items
        now = time.perf_counter()
        if now + wall > deadline:
            return m


def warm_up(wl, state, check):
    """The workload's untimed warm-up units; only their failures count."""
    warm = Measurement()
    for _ in range(wl.warmup_units):
        warm.add(measure(wl, state, 0, check))
    return warm


def make_checker(wl, reference, input_seed):
    """The check of one unit's output. A workload with recorded outputs is
    checked against the one recorded for ``input_seed``; with none recorded,
    every unit fails."""
    if not wl.recorded:
        return lambda record: wl.check(record, None)
    ref = reference.get("outputs", {}).get(wl.name, {}).get(str(input_seed))
    if ref is None:
        return lambda record: [f"no output recorded for input seed {input_seed}"]
    return lambda record: wl.check(record, ref)


def run_untraced(wl, seed, seconds, check):
    setup = []
    state = None
    for _ in range(wl.setup_repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup.append(time.perf_counter() - t0)
    warm = warm_up(wl, state, check)
    m = measure(wl, state, seconds, check)
    m.attempted += warm.attempted
    m.failed += warm.failed
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats = {"examples_per_s": summarize(m.rates, True),
             "setup_s": summarize(setup, False),
             "peak_rss_mb": summarize([peak], False)}
    return m, stats


def per_layer_values(plain, traced, setup_stats, entry):
    """Per-layer metrics from the traced units. A metric whose span never
    ran in them, or whose counter never counted, is 0: the layer took no
    time and counted nothing."""
    stats, counts = traced.layers, traced.counts
    items, wall = traced.items, sum(traced.walls)
    values = {}
    for name, (_, how) in PER_LAYER.items():
        kind, value = how[0], 0.0
        if kind in ("total", "self") and how[1] in stats:
            value = stats[how[1]][kind] * 1e3 / items
        elif kind == "count" and how[1] in counts:
            value = counts[how[1]] * (how[2] if len(how) > 2 else 1) / items
        elif kind == "ratio" and counts.get(how[2]):
            value = counts.get(how[1], 0.0) / counts[how[2]]
        elif kind == "setup" and how[1] in setup_stats:
            value = setup_stats[how[1]]["total"]
        elif kind == "coverage" and wall:
            # the entry point's span covers the whole unit; coverage is the
            # share of wall time inside the spans of the layers it calls
            covered = sum(rec["self"] for rec in stats.values())
            value = (covered - stats.get(entry, {}).get("self", 0.0)) / wall
        elif kind == "overhead" and wall and plain.examples:
            value = 1.0 - (traced.examples / wall) / (plain.examples / sum(plain.walls))
        values[name] = value
    return values


def run_traced(wl, seed, seconds, check, modules):
    tracer = Tracer(modules)
    missing = missing_layer_functions(tracer.target_names())
    if missing:
        print("error: per-layer metrics read from functions the program no longer has: "
              + ", ".join(missing), file=sys.stderr)
        sys.exit(EXIT_NO_LAYER)
    tracer.install()
    state = wl.setup(seed)
    tracer.uninstall()
    setup_stats = self_times(tracer.take()[0])
    # warm-up units first, so first-touch costs fall on neither side; then
    # untraced and traced units alternate, so a slow spell of the machine
    # falls on both sides of the overhead comparison
    warm = warm_up(wl, state, check)
    plain, traced = Measurement(), Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        plain.add(measure(wl, state, 0, check))
        traced.add(measure(wl, state, 0, check, tracer=tracer))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    values = per_layer_values(plain, traced, setup_stats, wl.entry)
    m = Measurement()
    m.attempted = warm.attempted + plain.attempted + traced.attempted
    m.failed = warm.failed + plain.failed + traced.failed
    detail = {"traced_units": traced.attempted, "work_items": traced.items,
              "untraced_examples_per_s": rate(plain), "traced_examples_per_s": rate(traced)}
    return m, values, detail


def rate(m):
    return m.examples / sum(m.walls) if m.walls else None


def run_one(name, seed, seconds, trace):
    threads = limit_threads()
    import_program()
    import workloads
    reference = read_reference()
    guard_memory(name, reference)
    input_seed = seed % RECORDED_SEEDS
    prov = provenance(seed, input_seed, threads)
    return run_workload(workloads.WORKLOADS[name], input_seed, seconds, trace, reference, prov)


def run_workload(wl, input_seed, seconds, trace, reference, prov=None):
    """Measure one workload, print its metrics, and return the result line."""
    name = wl.name
    check = make_checker(wl, reference, input_seed)
    if trace:
        modules = {m: importlib.import_module(f"mixrec.{m}") for m in TRACED_MODULES}
        m, values, detail = run_traced(wl, input_seed, seconds, check, modules)
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}
        for k, v in values.items():
            print(f"{name:12s} {k:40s} {v:14.6g} {PER_LAYER[k][0]}")
    else:
        m, stats = run_untraced(wl, input_seed, seconds, check)
        detail = stats
        metrics = {k: {"value": s["median"], "unit": END_TO_END[k][0]} for k, s in stats.items()}
        for k, s in stats.items():
            tail = f"p{s['tail']['p']}={s['tail']['value']:.6g}" if s["tail"] else "no tail percentile"
            print(f"{name:12s} {k:16s} {s['median']:14.6g} {END_TO_END[k][0]:4s} "
                  f"median of n={s['n']}, {tail}")
    failed_frac = m.failed / m.attempted
    print(f"{name:12s} {'failed_frac':16s} {failed_frac:14.6g} frac "
          f"({m.failed} of {m.attempted} units)")
    print(json.dumps({"workload": name, "trace": trace, "provenance": prov,
                      "failed_frac": failed_frac, "detail": detail}, default=float))
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def run_all(seed, seconds, trace):
    """Each workload in a fresh process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
