"""homstruct benchmark.

Run from the root of a source checkout:

    python3 bench/run.py --workload check-dense --seed 1 --seconds 25 --trace 0

Workloads: check-dense, check-sparse, cli-fixtures, constructions (see
BENCHMARK.json for why each exists).  The inputs are generated from --seed
and written under .bench_work/ before anything is timed; the program under
test is imported from ./src.  Each workload is a closed loop with one caller
in this single-threaded process: it repeats the workload's fixed batch of
top-level calls until --seconds have passed, checking every output.

--trace 0 prints the end-to-end metrics, measured without tracing.
--trace 1 runs untraced batches for UNTRACED_SHARE of the time, then traced
batches, and prints the per-layer metrics (values per batch).  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

All times are in reference seconds (see speed.py): measured seconds scaled
by a fixed probe measured next to them, which takes out the drift of the
machine's speed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("check-dense", "check-sparse", "cli-fixtures", "constructions")
# highest percentile with at least ten samples beyond it at the seed commit
TAIL_PERCENTILE = {"check-dense": 75, "check-sparse": 75, "cli-fixtures": 99,
                   "constructions": 95}
SETUP_PROBES = 11
PROBE_EVERY_S = 0.2
PROBE_WINDOW = 4
# share of a traced run spent on untraced batches, the base of trace.overhead_s
UNTRACED_SHARE = 0.3
CLASSES = ("comm-hom-assoc", "hom-lie", "hom-poisson", "transposed-hom-poisson",
           "hom-pre-lie", "hom-pre-lie-poisson")
# identity ids with a per-family time; every other family is summed in "other"
IDENTITIES = ("commutative", "hom-associative", "skew-symmetry", "hom-jacobi",
              "poisson-leibniz", "transposed-leibniz", "hom-pre-lie",
              "pre-poisson-1", "pre-poisson-2",
              "assoc-action", "bracket-action", "mixed-1", "mixed-2",
              "twist-intertwine:s", "twist-intertwine:rho", "invariance:dot",
              "invariance:bracket", "leibniz:dot", "leibniz:bracket",
              "commutes-with-twist", "hyp-mixed-1", "hyp-mixed-2",
              "o-equation:dot", "o-equation:bracket", "bracket-coop-cocycle",
              "dot-coop-infinitesimal", "triple-tensor", "mixed-dot-cobracket",
              "mixed-bracket-coproduct")
SUBCOMMANDS = ("check", "catalog", "twist", "tensor", "subadjacent", "bracketd",
               "derivations", "semidirect", "checkrep", "dualrep", "matched",
               "manin", "rb")


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.known_red = 0
        self.raw_walls = []


def run_batch(calls, stats, tracer=None):
    """Run every call once, with speed probes at most PROBE_EVERY_S apart.

    Returns (batch wall, call latencies), in reference seconds (see
    speed.py).
    """
    lat, starts = [], []
    probes = [(time.perf_counter(), speed.probe())]
    for idx, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = (stats.attempted // len(calls), idx)
        starts.append(time.perf_counter())
        dt, out, err = call.run()
        lat.append(dt)
        stats.attempted += 1
        if type(err).__name__ == "ConstructionError" and call.spec["kind"] == "equivalence_report":
            stats.known_red += 1
        try:
            call.verify(out, err)
        except Exception as exc:  # a wrong output in any form is a failed call
            stats.failed += 1
            stats.errors.append("%s: %s" % (type(exc).__name__, exc))
        now = time.perf_counter()
        if now - probes[-1][0] >= PROBE_EVERY_S or idx == len(calls) - 1:
            probes.append((now, speed.probe()))
    stats.raw_walls.append(sum(lat))
    scaled = scale_to_reference(starts, lat, probes)
    return sum(scaled), scaled


def scale_to_reference(starts, lat, probes):
    """Scale each latency by the median of the PROBE_WINDOW probes nearest
    its start; probes is a time-ordered list of (time, probe seconds)."""
    out, j = [], 0
    half = PROBE_WINDOW // 2
    for start, dt in zip(starts, lat):
        while probes[j + 1][0] <= start:
            j += 1
        lo = max(0, min(j + 1 - half, len(probes) - PROBE_WINDOW))
        near = statistics.median(p for _, p in probes[lo:lo + PROBE_WINDOW])
        out.append(dt * speed.PROBE_NOMINAL_S / near)
    return out


def run_for(calls, seconds, stats, setup, tracer=None):
    """Repeat the batch until seconds have passed, stopping early when more
    than half of the next batch would run past them (at least one batch).
    Set-up samples due are taken between batches."""
    walls, lats = [], []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        wall, lat = run_batch(calls, stats, tracer)
        walls.append(wall)
        lats += lat
        if time.perf_counter() + (time.perf_counter() - t0) / 2 > t_end:
            return walls, lats
        setup.catch_up()


def percentile(values, pct):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    ordered = sorted(values)
    idx = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - 1 - idx


class SetupSampler:
    """Set-up and import time in fresh interpreters, spread over the run.

    Each sample is a fresh interpreter running the import probe (see
    speed.py) and then one running setup_probe.py; the set-up time is
    scaled to reference seconds by the probe next to it.  A first pair,
    untimed, fills the bytecode caches.  The pairs start between batches,
    evenly over the run, so that the median covers the whole run.
    """

    def __init__(self, root, workdir, manifest, seconds):
        self.argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                     os.path.join(root, "src")]
        self.argv += ["%s=%s" % (f["kind"], os.path.join(workdir, f["file"]))
                      for f in manifest["files"]]
        self.seconds = seconds
        self.results = []
        self._sample()  # the warm-up
        self.results.clear()
        self.t0 = time.perf_counter()

    def _sample(self):
        probe = subprocess.run([sys.executable, "-c", speed.IMPORT_PROBE], capture_output=True,
                               text=True, timeout=60, check=True)
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=60, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        scale = speed.IMPORT_NOMINAL_S / float(probe.stdout)
        self.results.append({k: v * scale for k, v in result.items()})

    def catch_up(self):
        """Take the samples due by now."""
        share = (time.perf_counter() - self.t0) / self.seconds
        while len(self.results) < min(SETUP_PROBES, math.ceil(share * SETUP_PROBES)):
            self._sample()

    def medians(self):
        while len(self.results) < SETUP_PROBES:
            self._sample()
        return (statistics.median(r["setup_s"] for r in self.results),
                statistics.median(r["import_s"] for r in self.results))


def batch_wall(lats, batch_size):
    """Time to finish the batch, as the sum over its calls of each call's
    median latency across the batch's repetitions.

    Every repetition runs the same calls, so this estimates the median batch
    time while a burst of machine noise moves only the calls it hits.
    """
    return sum(statistics.median(lats[i::batch_size]) for i in range(batch_size))


def end_to_end(workload, setup_s, walls, lats, stats):
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(lats, pct)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (batch_wall(lats, len(lats) // len(walls)), "s"),
        "call_p50_ms": (statistics.median(lats) * 1000, "ms"),
        "call_tail_ms": (tail * 1000, "ms"),
        "success_rate": (1 - stats.failed / stats.attempted, "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    notes = ["batches: %d, calls: %d, median batch wall %.4f s unscaled"
             % (len(walls), len(lats), statistics.median(stats.raw_walls)),
             "call_tail_ms is p%d with %d samples beyond it" % (pct, beyond),
             "error_rate: %.6f (%d failed of %d attempted)"
             % (stats.failed / stats.attempted, stats.failed, stats.attempted),
             "equivalence_report ConstructionError raises (expected by the oracle): %d"
             % stats.known_red]
    return metrics, notes


def per_layer(tr, walls, raw_walls, import_s, untraced_wall, traced_wall, bytes_out):
    """Per-batch layer metrics from the spans of the traced batches.

    walls and raw_walls are those batches' times in reference and measured
    seconds; span times are scaled by the same factor.  Shares in the notes
    are of the mean traced batch, the base those times share.
    """
    batches = len(walls)
    scale = sum(walls) / sum(raw_walls)
    sp = tr.spans
    selfs = tracing.self_times(sp)

    def per(v):
        return v / batches

    def incl(name):
        return per(tracing.inclusive(sp, lambda n: n == name)) * scale

    def self_of(pred):
        return per(sum(t for s, t in zip(sp, selfs) if pred(s[0]))) * scale

    c = tr.counts
    m = {
        "core.parse_s": incl("core.parse"),
        "core.substitute_s": incl("core.substitute"),
        "core.serialize_s": incl("core.serialize"),
        "core.families_self_s": self_of(lambda n: n == "core.families"),
        "core.entries_visited": per(c["entries_visited"]),
        "core.eval_bilinear_calls": per(c["eval_bilinear_calls"]),
        "core.tuples": per(c["tuples"]),
        "core.witness_keep_ratio": c["witnesses"] / c["failures"] if c["failures"] else 1.0,
    }
    for cls in CLASSES:
        m["axioms.check_s.%s" % cls] = incl("axioms.check.%s" % cls)
    for ident in IDENTITIES:
        m["axioms.family_s.%s" % ident.replace(":", ".")] = per(tr.family_s.get(ident, 0.0)) * scale
    m["axioms.family_s.other"] = per(
        sum(v for k, v in tr.family_s.items() if k not in IDENTITIES)) * scale
    import workloads
    checks = len(tr.check_inputs)
    unique = len({(batch, name, workloads.fingerprint(a))
                  for batch, name, a in tr.check_inputs})
    m["axioms.check_calls"] = per(checks)
    m["axioms.check_unique_ratio"] = unique / checks if checks else 1.0
    for b in tracing.BUILDERS:
        m["constructions.build_s.%s" % b] = incl("constructions.build.%s" % b)
    roots = tracing.outermost(sp, lambda n: n.startswith("constructions.build."))
    build_total = sum(sp[i][2] - sp[i][1] for i in roots)
    verify = tracing.descendant_time(sp, roots, lambda n: n in ("axioms.check_class",
                                                        "axioms.check_morphism"))
    m["constructions.verify_share"] = verify / build_total if build_total else 0.0
    m.update({
        "representations.check_rep_s": incl("representations.check_rep"),
        "representations.semidirect_s": incl("representations.semidirect"),
        "representations.dual_rep_s": incl("representations.dual_rep"),
        "matched_pairs.build_double_s": incl("matched_pairs.build_double"),
        "matched_pairs.check_s": incl("matched_pairs.check"),
        "matched_pairs.check_self_s": self_of(lambda n: n == "matched_pairs.check"),
        "duality.manin_s": incl("duality.manin"),
        "duality.bialgebra_s": incl("duality.bialgebra"),
        "duality.equivalence_s": incl("duality.equivalence"),
        "duality.equivalence_errors": per(sum(
            1 for s in sp if s[0] == "duality.equivalence" and s[5] == "ConstructionError")),
        "operators.derivation_space_s": incl("operators.derivation_space"),
        "operators.nullspace_s": incl("operators.nullspace"),
        "operators.system_cells": per(c["system_cells"]),
        "catalog.get_s": incl("catalog.get"),
    })
    for sub in SUBCOMMANDS:
        m["cli.main_s.%s" % sub] = incl("cli.main.%s" % sub)
    m["cli.self_s"] = self_of(lambda n: n.startswith("cli.main."))
    m["cli.output_bytes"] = per(bytes_out)
    m["setup.import_s"] = import_s
    traced = traced_wall
    m["trace.wall_s"] = traced
    m["trace.overhead_s"] = traced - untraced_wall
    units = {}
    for k in m:
        if k.endswith("_s") or "_s." in k:
            units[k] = "s"
        elif k.endswith(("_ratio", "_share")):
            units[k] = "ratio"
        else:
            units[k] = "count"
    metrics = {k: (v, units[k]) for k, v in m.items()}
    base = sum(walls) / batches
    shares = sorted(((v / base, k) for k, v in m.items()
                     if units[k] == "s" and not k.startswith(("trace.", "setup."))),
                    reverse=True)
    notes = ["traced batches: %d, untraced wall %.4f s, traced wall %.4f s (reference s)"
             % (batches, untraced_wall, traced),
             "core.witness_keep_ratio base: %d failures found" % per(c["failures"]),
             "axioms.check_unique_ratio base: %d checker calls" % per(checks)]
    notes += ["share of traced wall_s: %-44s %.3f" % (k, s) for s, k in shares[:8]]
    cli_share = sum(m[k] for k in ("cli.self_s", "core.parse_s", "core.substitute_s",
                                   "core.serialize_s")) / base
    notes.append("share of traced wall_s in cli self, parse, substitute, serialize: %.3f"
                 % cli_share)
    return metrics, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "homstruct", "__init__.py")):
        print("error: run from a homstruct checkout (no src/homstruct here)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import homstruct
    if not os.path.abspath(homstruct.__file__).startswith(src + os.sep):
        print("error: homstruct imported from %s, not %s" % (homstruct.__file__, src),
              file=sys.stderr)
        return 2
    import gen
    import workloads

    work_root = os.path.join(root, ".bench_work")
    workdir = os.path.join(work_root, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        manifest = gen.generate(args.workload, args.seed, workdir)
        setup = SetupSampler(root, workdir, manifest, args.seconds)
        inputs = workloads.load_inputs(workdir, manifest)
        calls = workloads.make_calls(workdir, manifest, inputs)
        os.chdir(workdir)
        stats = Stats()
        if args.trace == 0:
            walls, lats = run_for(calls, args.seconds, stats, setup)
            metrics, notes = end_to_end(args.workload, setup.medians()[0], walls, lats, stats)
        else:
            t0 = time.perf_counter()
            _, untraced = run_for(calls, args.seconds * UNTRACED_SHARE, stats, setup)
            for call in calls:
                call.bytes_out = 0
            tracer = tracing.Tracer()
            tracer.install()
            try:
                remaining = args.seconds - (time.perf_counter() - t0)
                walls, traced = run_for(calls, remaining, stats, setup, tracer)
            finally:
                tracer.uninstall()
            # the factor that took the traced batches to reference seconds
            n = len(calls)
            metrics, notes = per_layer(tracer, walls, stats.raw_walls[-len(walls):],
                                       setup.medians()[1], batch_wall(untraced, n),
                                       batch_wall(traced, n),
                                       sum(call.bytes_out for call in calls))
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print("  %-48s %.6g %s" % (name, value, unit))
    for err in stats.errors[:10]:
        print("  failed: " + err)
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
