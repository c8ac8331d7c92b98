"""corm benchmark: one workload, one seed, for a fixed number of seconds.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark imports corm from the checkout's ``src/`` and drives the
public command line, ``corm.cli.main``, in-process, one command after
another, repeating the workload until the time is spent. After every
iteration it checks the outputs (see checks.py) outside the timed section.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json as
medians over iterations. ``--trace 1`` alternates untraced iterations with
iterations in which spans wrap the public functions of every corm module,
and reports the per-layer metrics. End-to-end timings are in reference
seconds (see calibration.py); per-layer timings are raw. A human-readable
table and a ``results`` line (provenance, digests, sample counts, raw
figures) come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spans import Spans
from workloads import WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
TICK_S = 0.05  # at most this long between calibration ticks during decode or replay

# Single-threaded BLAS, as the workloads are defined; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def median_quartiles(values):
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


# --------------------------------------------------------------------------
# Probes: the few timers end-to-end metrics need, present in every iteration
# --------------------------------------------------------------------------


def install_probes(spans, corm_mods, captured, clock):
    """Time each policy's run + generate, the trace recording and each replay.

    With a `clock`, each of those samples is followed by a calibration point,
    so every sample is bracketed by two, and a tick follows any decode or
    replay step that ends TICK_S or more after the last calibration.
    """
    from corm.policies import Full

    model, trace = corm_mods["model"], corm_mods["trace"]

    def sample(kind, *fields):
        def after(stat, _, args, kwargs, result, dur):
            captured[kind].append((time.perf_counter(), dur) + tuple(f(args, kwargs, result) for f in fields))
            if clock is not None and kind != "runs":
                clock.calibrate()
        return after

    def after_run(stat, token, args, kwargs, result, dur):
        policy = args[2] if len(args) > 2 else kwargs["policy"]
        if isinstance(policy, Full) and not kwargs.get("capture", False):
            captured["full_runs"].append((args[1], result.logits))
        sample("runs", lambda a, k, r: policy)(stat, token, args, kwargs, result, dur)

    spans.patch("probe.run", model.ToyTransformer, "run", after=after_run)
    spans.patch("probe.generate", model.ToyTransformer, "generate",
                after=sample("generates", lambda a, k, r: len(r), lambda a, k, r: a[1].policy))
    spans.patch("probe.record", trace, "record", after=sample("record", lambda a, k, r: r.n_steps))
    spans.patch("probe.replay", trace, "replay_policy",
                after=sample("replays", lambda a, k, r: a[0].n_steps, lambda a, k, r: a[1]))
    if clock is not None:
        def tick(*_):
            if time.perf_counter() - clock.points[-1][1] >= TICK_S:
                clock.tick()

        spans.patch("probe.decode_step", model.ToyTransformer, "decode_step", after=tick)
        spans.patch("probe.sim_step", trace.PolicySimulator, "step", after=tick)


def policy_rates(w, captured, clock):
    """Reference tokens/s per policy key: live decodes, or recording and replays."""
    from corm.policies import policy_label

    key = {p.label: p.key for p in w.policies}
    samples = []  # (key, tokens, start, end, seconds)
    for end, dur, steps, policy in captured["generates"]:
        run_end, run_dur = [(e, d) for e, d, p in captured["runs"] if p is policy and e <= end - dur][-1]
        samples.append((key[policy_label(policy)], w.prompt + steps, run_end - run_dur, end, run_dur + dur))
    for end, dur, n_steps in captured["record"]:
        samples.append(("record", n_steps, end - dur, end, dur))
    for end, dur, n_steps, policy in captured["replays"]:
        samples.append((key[policy_label(policy)], n_steps, end - dur, end, dur))
    return {k: n / ((sec - clock.inside(t0, t1)) * clock.factor(t0, t1)) for k, n, t0, t1, sec in samples}


# --------------------------------------------------------------------------
# Spans: one per public function of each layer, for traced iterations
# --------------------------------------------------------------------------

CACHE_ARRAYS = ("keys", "values", "positions", "message", "acc_scores")


def _cache_before(args, kwargs):
    cache = args[0]
    return cache.size, [getattr(cache, a) for a in CACHE_ARRAYS]


def _cache_after(stat, token, args, kwargs, result, dur):
    # Computed, not measured: bytes of the cache arrays the call allocated anew.
    cache = args[0]
    size, before = token
    stat.add("bytes_copied", sum(
        getattr(cache, a).nbytes for a, old in zip(CACHE_ARRAYS, before) if getattr(cache, a) is not old
    ))
    stat.add("evicted", size - cache.size)


def _policy_before(args, kwargs):
    return args[1].size


def _policy_after(stat, size, args, kwargs, result, dur):
    stat.add("evicting", int(args[1].size < size))


def _file_bytes(index):
    def after(stat, _, args, kwargs, result, dur):
        stat.add("bytes", os.path.getsize(args[index]))
    return after


def install_spans(spans, corm_mods):
    m = corm_mods
    aliases = list(m.values())

    def patch(name, owner, attr, **kw):
        spans.patch(name, owner, attr, aliases=aliases, **kw)

    patch("cli.main", m["cli"], "main")
    for command in ("generate", "trace", "replay", "analyze"):
        patch(f"cli.{command}", m["cli"], f"cmd_{command}")
    patch("manifest.InputSpec.load", m["manifest"].InputSpec, "load")
    patch("model.init_model", m["model"], "init_model")
    patch("model.run", m["model"].ToyTransformer, "run")
    patch("model.generate", m["model"].ToyTransformer, "generate")
    patch("model.decode_step", m["model"].ToyTransformer, "decode_step", keep_durations=True)
    for fn in ("scaled_dot_scores", "softmax_normalize", "attention_output"):
        patch(f"attention.{fn}", m["attention"], fn)
    patch("attention.AttentionRow", m["attention"].AttentionRow, "__init__",
          after=lambda stat, _, args, kw, res, dur: stat.add("entries", len(args[0].scores)))
    patch("positional.rope_apply_many", m["positional"], "rope_apply_many")
    patch("positional.sinusoidal_table", m["positional"], "sinusoidal_table",
          after=lambda stat, _, args, kw, res, dur: stat.add("rows_built", args[0]))
    for meth in ("append", "keep_only"):
        patch(f"policies.KvCacheState.{meth}", m["policies"].KvCacheState, meth,
              before=_cache_before, after=_cache_after)
    patch("policies.apply_policy", m["policies"], "apply_policy",
          before=_policy_before, after=_policy_after)
    patch("trace.record", m["trace"], "record")
    patch("trace.save", m["trace"], "save", after=_file_bytes(1))
    patch("trace.load", m["trace"], "load", after=_file_bytes(0))
    patch("trace.PolicySimulator.step", m["trace"].PolicySimulator, "step")
    for fn in ("sparsity_profile", "query_similarity_map", "recent_similarity_fraction",
               "overlap_similarity_samples", "spearman_rank_correlation", "output_divergence"):
        patch(f"analysis.{fn}", m["analysis"], fn)
    for fn in sorted(dir(m["analysis"])):
        if fn.startswith("write_"):
            patch("analysis.write_csv", m["analysis"], fn, after=_file_bytes(0))


# Spans each workload must record calls in (and must not, for `zero`).
COMMON = [
    "cli.main", "manifest.InputSpec.load", "model.init_model", "model.decode_step",
    "attention.scaled_dot_scores", "attention.softmax_normalize", "attention.attention_output",
    "attention.AttentionRow", "policies.KvCacheState.append", "policies.KvCacheState.keep_only",
    "policies.apply_policy", "analysis.write_csv",
]
EXERCISED = {
    "decode-mha-long": (COMMON + ["cli.generate", "positional.rope_apply_many", "analysis.output_divergence"],
                        ["positional.sinusoidal_table"]),
    "decode-gqa-wide": (COMMON + ["cli.generate", "positional.sinusoidal_table", "analysis.output_divergence"],
                        ["positional.rope_apply_many"]),
    "trace-replay-analyze": (COMMON + [
        "cli.trace", "cli.replay", "cli.analyze", "positional.rope_apply_many", "trace.record",
        "trace.save", "trace.load", "trace.PolicySimulator.step", "analysis.sparsity_profile",
        "analysis.query_similarity_map", "analysis.recent_similarity_fraction",
        "analysis.overlap_similarity_samples", "analysis.spearman_rank_correlation",
    ], ["positional.sinusoidal_table"]),
}


def layer_value(name, stats):
    """Value of one per-layer metric from one traced iteration's spans."""
    if name == "policies.evicted_entries":
        return stats["policies.KvCacheState.keep_only"].counters.get("evicted", 0)
    if name == "policies.evicting_update_ratio":
        st = stats["policies.apply_policy"]
        return st.counters.get("evicting", 0) / st.calls if st.calls else 0.0
    if name == "policies.cache_entries_mean":
        st = stats["attention.AttentionRow"]
        return st.counters.get("entries", 0) / st.calls if st.calls else 0.0
    span, field = name.rsplit(".", 1)
    st = stats[span]
    if field == "calls":
        return st.calls
    if field == "self_s":
        return st.self_s
    if field == "s":
        return st.total_s
    if field in ("p50_ms", "p99_ms"):
        if not st.durations:
            return 0.0
        return 1000.0 * float(sorted(st.durations)[int(0.01 * int(field[1:3]) * (len(st.durations) - 1))])
    if field == "mb_s":
        return st.counters.get("bytes", 0) / 1e6 / st.total_s if st.total_s else 0.0
    return st.counters.get(field, 0)


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


def git_commit():
    """Commit of the checkout, or None where it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def provenance(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
    }


def peak_rss_mb(workdir, w, seed):
    """Peak RSS of a fresh process that runs one iteration of the workload."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "rss_probe.py"), SRC, os.path.join(workdir, "rss"),
         w.name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(out.stdout.split()[-1])


def setup_samples(workdir, w, seed):
    """(raw, reference) set-up seconds, each measured in a fresh interpreter.

    Each sample is normalised by the calibration kernel the probe runs in its
    own process right after the timed section: the probe may run on another
    core than this process, so calibration points taken here do not track it.
    """
    from calibration import NOMINAL_S

    samples = []
    for i in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
             os.path.join(workdir, f"setup{i}"), w.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw, kernel_s = (float(x) for x in out.stdout.split()[-2:])
        samples.append((raw, raw * NOMINAL_S / kernel_s))
    return samples


class Iteration:
    def __init__(self, traced):
        self.traced = traced
        self.commands = {}  # command -> (start, end, seconds excluding calibration)
        self.failed_commands = {}
        self.captured = {"runs": [], "full_runs": [], "generates": [], "record": [], "replays": []}
        self.stats = {}
        self.ops = []
        self.rates = {}

    @property
    def raw_wall(self):
        return sum(sec for _, _, sec in self.commands.values())

    def walls(self, clock):
        """Reference seconds per command."""
        return {c: sec * clock.factor(t0, t1) for c, (t0, t1, sec) in self.commands.items()}


def run_iteration(cli, corm_mods, w, seed, itdir, traced, clock):
    it = Iteration(traced)
    commands = write_inputs(itdir, w, seed)
    probes, spans = Spans(), Spans()
    install_probes(probes, corm_mods, it.captured, None if traced else clock)
    if traced:
        install_spans(spans, corm_mods)
    clock.calibrate()
    try:
        for command, argv in commands:
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash of the program under test fails its operations
                rc = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            clock.calibrate()
            it.commands[command] = (start, end, end - start - clock.inside(start, end))
            if rc != 0:
                it.failed_commands[command] = rc
    finally:
        spans.unpatch()
        probes.unpatch()
    it.stats = spans.stats
    return it


def check_iteration(it, checker, itdir, first):
    """Check outputs; each operation must also match the first iteration's bytes."""
    it.ops = checker.check(itdir, it.captured)
    for op in it.ops:
        command = op.name.split("/")[0]
        if command in it.failed_commands:
            op.ok, op.detail = False, f"{command} failed: {it.failed_commands[command]}"
        if first is not None and op.ok:
            ref = next((o for o in first.ops if o.name == op.name), None)
            if ref is None or ref.digest != op.digest:
                op.ok, op.detail = False, "output bytes differ from the first iteration"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "corm", "cli.py")):
        print(f"error: no corm sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import numpy as np
    import corm
    from corm import analysis, attention, cli, manifest, model, policies, positional, trace
    from calibration import Clock
    from checks import Checker, digest_ops

    if not os.path.abspath(corm.__file__).startswith(SRC + os.sep):
        print(f"error: corm was imported from {corm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    corm_mods = {
        "cli": cli, "manifest": manifest, "model": model, "attention": attention,
        "positional": positional, "policies": policies, "trace": trace, "analysis": analysis,
    }
    clock = Clock(w.calibration_mix)
    workroot = os.path.join(HERE, ".work")
    workdir = os.path.join(workroot, f"{w.name}-{os.getpid()}")
    try:
        setup = setup_samples(workdir, w, args.seed)
        rss = None if args.trace else peak_rss_mb(workdir, w, args.seed)
        checker = Checker(w)
        iters = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(iters) % 2 == 1
            itdir = os.path.join(workdir, f"it{len(iters)}")
            it = run_iteration(cli, corm_mods, w, args.seed, itdir, traced, clock)
            check_iteration(it, checker, itdir, iters[0] if iters else None)
            it.rates = policy_rates(w, it.captured, clock)
            shutil.rmtree(itdir)
            iters.append(it)
            elapsed = time.perf_counter() - start
            enough = len(iters) >= (2 if args.trace else 1)
            if enough and elapsed * (len(iters) + 1) / len(iters) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(workroot) and not os.listdir(workroot):
            os.rmdir(workroot)

    ops = [op for it in iters for op in it.ops]
    untraced = [it for it in iters if not it.traced]
    if args.trace:
        traced = [it for it in iters if it.traced]
        overhead = (statistics.median(sum(t.walls(clock).values()) for t in traced)
                    / statistics.median(sum(u.walls(clock).values()) for u in untraced) - 1.0)
        ops += traced_guards(traced, overhead, w)
        rows = layer_rows(traced, overhead, spec["per_layer"])
        wanted = spec["per_layer"]
    else:
        rows = end_to_end_rows(iters, setup, rss, w, clock, model, trace)
        wanted = spec["end_to_end"]
    rows.append(("calibration_ms", "ms", [1000.0 * p[2] for p in clock.points]))
    failed = [op for op in ops if not op.ok]

    print(f"{w.name} seed={args.seed} trace={args.trace}: {len(iters)} iterations "
          f"({len(untraced)} untraced), {len(ops)} operations, {len(failed)} failed")
    print(f"{'metric':44} {'unit':8} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    summary = {}
    for name, unit, samples in rows:
        med, q1, q3 = median_quartiles(samples)
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(samples)}
        print(f"{name:44} {unit:8} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(samples):4d}")
    print(f"{'ops_failed_frac':44} {'ratio':8} {len(failed) / len(ops):14.6g}")
    for op in failed:
        print(f"FAILED {op.name}: {op.detail}")
    first = untraced[0].ops
    print("results " + json.dumps({
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(np),
        "digest": digest_ops(first),
        "op_digests": {op.name: op.digest for op in first},
        "metrics": summary,
        "ops_attempted": len(ops), "ops_failed": len(failed),
    }, sort_keys=True))

    metrics = {}
    for m in wanted:
        if m["name"] not in summary:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": summary[m["name"]]["median"], "unit": m["unit"]}
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


def end_to_end_rows(iters, setup, rss, w, clock, model, trace):
    """(name, unit, samples) of every end-to-end figure, gated or not.

    Timings are in reference seconds; `.raw` rows are as measured.
    """
    walls = [it.walls(clock) for it in iters]
    rows = [
        ("setup_s", "s", [ref for _, ref in setup]),
        ("setup_s.raw", "s", [raw for raw, _ in setup]),
        ("wall_s", "s", [sum(wl.values()) for wl in walls]),
        ("wall_s.raw", "s", [it.raw_wall for it in iters]),
    ]
    for command in walls[0]:
        rows.append((f"{command}_s", "s", [wl[command] for wl in walls]))
    for key in iters[0].rates:
        name = f"decode_tok_s.{key}" if w.decodes else ("record_tok_s" if key == "record" else f"replay_tok_s.{key}")
        rows.append((name, "tok/s", [it.rates[key] for it in iters if key in it.rates]))
    full = "full" if w.decodes else "record"
    rows.append(("tok_s.full", "tok/s", [it.rates[full] for it in iters if full in it.rates]))
    rows.append(("tok_s.corm", "tok/s", [it.rates["corm"] for it in iters if "corm" in it.rates]))
    if not w.decodes:
        cfg = model.ModelConfig.from_dict(w.model)
        size = trace.trace_byte_size(cfg.n_layers, cfg.n_heads, cfg.d_h, w.prompt)
        rows.append(("trace_file_mb", "MB", [size / 1e6]))
    rows.append(("peak_rss_mb", "MB", [rss]))
    return [r for r in rows if r[2]]


def layer_rows(traced, overhead, per_layer):
    """Per-layer figures of the traced iterations, raw seconds."""
    rows = []
    for m in per_layer:
        if m["name"] == "trace_overhead_frac":
            samples = [overhead]
        elif m["name"] == "spans.self_total_s":
            samples = [sum(st.self_s for st in it.stats.values()) for it in traced]
        elif m["name"] == "spans.traced_wall_s":
            samples = [it.raw_wall for it in traced]
        else:
            samples = [layer_value(m["name"], it.stats) for it in traced]
        rows.append((m["name"], m["unit"], samples))
    return rows


def traced_guards(traced, overhead, w):
    """One operation per traced iteration: spans exercised and self times accounted.

    That traced outputs match untraced bytes is checked with every iteration.
    """
    from checks import Op

    ops = []
    must, zero = EXERCISED[w.name]
    for i, it in enumerate(traced):
        problems = [f"{n} recorded no calls" for n in must if it.stats[n].calls == 0]
        problems += [f"{n} recorded {it.stats[n].calls} calls" for n in zero if it.stats[n].calls != 0]
        self_total = sum(st.self_s for st in it.stats.values())
        if abs(self_total - it.raw_wall) > max(abs(overhead), 0.01) * it.raw_wall:
            problems.append(f"span self times sum to {self_total:.4f}s of a {it.raw_wall:.4f}s traced wall")
        ops.append(Op(f"traced-guards#{i + 1}", not problems, "; ".join(problems), ""))
    return ops


if __name__ == "__main__":
    sys.exit(main())
