"""Mutation runner: each mutant must fail the tests named to kill it.

    python tools/mutants.py [NAME ...]

A mutant names a file under `src/corm`, an exact old text that must occur in
it once, the text that replaces it, and the tests expected to kill it (files
or pytest node ids). For each mutant the runner copies `src` to a temporary
directory, applies the edit there and runs the named tests against the copy
with `-o pythonpath=<copy>/src` (pytest's `pythonpath` setting would
otherwise put this checkout's `src` first). The checkout itself is never
edited. First the union of the named tests must pass against an unmutated
copy. Each pytest child may map at most `MEMORY_CAP` bytes, so a mutant that
grows an array without end fails with MemoryError instead of exhausting the
machine.

Each mutant prints `killed` (pytest exit code 1: a test failed), `SURVIVED`
(exit code 0) or `ERROR`: pytest exits 2-5 on interruption, internal,
usage and collection errors, so a mutant that stops a test file from
importing is reported, not counted as killed; so are a child ended by a
signal, a timeout, and an old text that does not occur exactly once. The
exit code is 0 only when every mutant was killed. This runner is not part
of tier-1; it takes a minute or two on 2 CPUs.
"""

from __future__ import annotations

import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run; the slowest named file takes seconds
MEMORY_CAP = 3 * 2**30  # address space per pytest run; no mutant of a sweep of five files reached it


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/corm
    old: str
    new: str
    tests: tuple[str, ...]  # files or node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "softmax row sum over m columns",
        "attention.py",
        "np.add.reduce(e[a:b, ..., :n], axis=-1",
        "np.add.reduce(e[a:b, ..., :m], axis=-1",
        ("tests/test_attention.py",),
    ),
    Mutant(
        "softmax pads not set to -inf",
        "attention.py",
        "                e[a:b, ..., n:] = -np.inf",
        "                pass",
        ("tests/test_attention.py",),
    ),
    Mutant(
        "score gemv for a run of two heads",
        "attention.py",
        "        if group == 1 and b - a == 1:\n            np.dot(keys",
        "        if group == 1 and b - a <= 2:\n            np.dot(keys",
        ("tests/test_attention.py", "tests/test_model.py"),
    ),
    Mutant(
        "fused row sum over m columns",
        "attention.py",
        "totals[a, 0, 0] = np.add.reduce(scores[a, 0, :n])",
        "totals[a, 0, 0] = np.add.reduce(scores[a, 0, :m])",
        ("tests/test_attention.py", "tests/test_model.py"),
    ),
    Mutant(
        "fused run one entry short when heads are unequal",
        "attention.py",
        "scores[a:b, :, n:] = -np.inf",
        "scores[a:b, :, n - 1 :] = -np.inf",
        ("tests/test_attention.py", "tests/test_model.py"),
    ),
    Mutant(
        "softmax writes into its input",
        "attention.py",
        "e, m = w.copy(), w.shape[-1]",
        "e, m = w, w.shape[-1]",
        ("tests/test_attention.py",),
    ),
    Mutant(
        "corm records the steps of unflagged entries",
        "policies.py",
        "np.putmask(flagged_at, flags[:, 0] if flags.shape[1] == 1 else np.logical_or.reduce(flags, axis=1), t)",
        "np.putmask(flagged_at, ~(flags[:, 0] if flags.shape[1] == 1 else np.logical_or.reduce(flags, axis=1)), t)",
        ("tests/test_policies.py",),
    ),
    Mutant(
        "h2o/tova totals summed over the in-place row with its zeros",
        "trace.py",
        "restricted[a:b][held[a:b]].reshape(b - a, group, n).sum(axis=2)",
        "restricted[a:b].sum(axis=2)",
        ("tests/test_trace.py",),
    ),
    Mutant(
        "float32 restricted rows in replay",
        "trace.py",
        "np.float64(0.0))",
        "np.float32(0.0))",
        ("tests/test_trace.py",),
    ),
    Mutant(
        "budget guard on the block width",
        "policies.py",
        "if max(cache.sizes) <= budget:",
        "if cache.width <= budget:",
        ("tests/test_policies.py",),
    ),
    Mutant(
        "scissorhands slot t % window",
        "policies.py",
        "(t - 1) % self.window",
        "t % self.window",
        ("tests/test_policies.py",),
    ),
    Mutant(
        "counts left out of entry_names",
        "policies.py",
        "if arr is None:",
        'if arr is None and name != "counts":',
        ("tests/test_policies.py",),
    ),
    Mutant(
        "policy string sizes swapped",
        "policies.py",
        "*_integers(cls.name, args[0], pair), *[",
        "*_integers(cls.name, args[0], pair)[::-1], *[",
        ("tests/test_policies.py",),
    ),
    Mutant(
        "optional third policy size required",
        "policies.py",
        "if not args:",
        "if len(args) < at_most:",
        ("tests/test_policies.py",),
    ),
    Mutant(
        "full not grouped",
        "policies.py",
        '    label = "full"\n    grouped = True\n',
        '    label = "full"\n    grouped = False\n',
        ("tests/test_policies.py::TestRegistry::test_grouped_query_layout",),
    ),
    Mutant(
        "group_size_for ignores an explicit group size",
        "policies.py",
        'group = getattr(self, "group_size", None) or n_heads // n_kv_heads',
        "group = n_heads // n_kv_heads",
        (
            "tests/test_trace.py::TestReplay::test_group_shape_mismatch_rejected",
            "tests/test_cli.py::TestTraceReplayAnalyze::test_replay_partial_outputs_removed_on_failure",
        ),
    ),
    Mutant(
        "gqa_corm label without its g",
        "policies.py",
        'f"{label}_g{self.group_size}"',
        'f"{label}_{self.group_size}"',
        ("tests/test_policies.py",),
    ),
    Mutant(
        "trace payload step offset off by one",
        "trace.py",
        "        offset += count\n",
        "        offset += count - 1\n",
        ("tests/test_trace.py::TestRecord::test_rows_equal_rounded_decode_rows",),
    ),
    Mutant(
        "recorded chunk position i written to position i + 1",
        "trace.py",
        "for step_rows, step_queries, block in zip(sr.rows, sr.queries, blocks):",
        # zip takes a block before it finds the chunk spent, so the next chunk starts one block late
        "for block, step_rows, step_queries in zip(blocks, sr.rows, sr.queries):",
        ("tests/test_trace.py::TestRecord::test_rows_equal_rounded_decode_rows",),
    ),
    Mutant(
        "trace meta n_layers and n_heads declarations swapped",
        "trace.py",
        "    n_layers: int\n    n_heads: int\n",
        "    n_heads: int\n    n_layers: int\n",
        ("tests/test_trace.py", "tests/test_golden.py"),
    ),
    Mutant(
        "trace seed range unchecked",
        "trace.py",
        'if f.type == "int" and not',
        'if f.type == "int" and f.name != "seed" and not',
        ("tests/test_trace.py",),
    ),
    Mutant(
        "trace header range checks only the seed",
        "trace.py",
        'if f.type == "int" and not',
        'if f.name == "seed" and not',
        ("tests/test_trace.py::TestRecord::test_meta_rejects_a_field_beyond_its_u32",),
    ),
    Mutant(
        "trace payload length unchecked",
        "trace.py",
        'p.dtype == "<f4" and p.shape == (need,) and',
        'p.dtype == "<f4" and p.ndim == 1 and',
        ("tests/test_trace.py::TestSaveLoad::test_malformed_payload_rejected_before_the_file_is_opened",),
    ),
    Mutant(
        "trace payload sized with t(t-1)/2 scores",
        "trace.py",
        "t * (t + 1) // 2 + t * d_h",
        "t * (t - 1) // 2 + t * d_h",
        ("tests/test_trace.py",),
    ),
    Mutant(
        "save writes the header CRC in both CRC slots",
        "trace.py",
        "zlib.crc32(header), zlib.crc32(trace.payload)",
        "zlib.crc32(header), zlib.crc32(header)",
        ("tests/test_trace.py",),
    ),
    Mutant(
        "trace keeps a writeable payload",
        "trace.py",
        "payload = _read_only(p)",
        "payload = p",
        ("tests/test_trace.py::TestSaveLoad::test_payload_changed_after_building_reaches_neither_the_trace_nor_its_file",),
    ),
    Mutant(
        "span check skips its last step",
        "trace.py",
        "lengths = np.repeat(np.arange(first, stop), heads)",
        # the last step's rows and queries then fall into the step before's last query
        "lengths = np.repeat(np.arange(first, stop - 1), heads)",
        ("tests/test_trace.py::TestSpanCheck",),
    ),
    Mutant(
        "span check refuses a row sum at the tolerance edge",
        "trace.py",
        "sums.max() <= 1.0 + SUM_TOL and",
        "sums.max() < 1.0 + SUM_TOL and",
        ("tests/test_trace.py::TestSpanCheck",),
    ),
    Mutant(
        "span sums start from each row's first value",
        "trace.py",
        # the segments are the rows again, whose sums then differ from sum(axis=-1) in the last bits
        "    edges[0::2] -= 1\n",
        "",
        ("tests/test_trace.py::TestSpanCheck::test_span_reductions_equal_the_stepwise_ones_bit_for_bit",),
    ),
    Mutant(
        "span check lets a row holding both infinities raise a floating-point error",
        "trace.py",
        'with np.errstate(invalid="ignore"):',
        "with np.errstate():",
        ("tests/test_trace.py::TestSpanCheck",),
    ),
    Mutant(
        "span check names the first off sum, not the farthest",
        "trace.py",
        "sums[i, np.argmax(np.abs(sums[i] - 1.0))]",
        "sums[i, np.argmax(off[i])]",
        ("tests/test_trace.py::TestSpanCheck",),
    ),
    Mutant(
        "zero query's layer and head divide by layers x heads",
        "trace.py",
        "divmod(int(np.argmax(zero_query[i])), n_heads)",
        "divmod(int(np.argmax(zero_query[i])), heads)",
        ("tests/test_trace.py::TestSpanCheck",),
    ),
    Mutant(
        "span check tests a step's sums before its range",
        "trace.py",
        "if out_of_range[i].any():",
        "if out_of_range[i].any() and not off[i].any():",
        ("tests/test_trace.py::TestSpanCheck",),
    ),
    Mutant(
        "blocked argmax lets column j = i in",
        "analysis.py",
        "where=np.tri(b - a, b - 1, k=a - 1, dtype=bool)",
        "where=np.tri(b - a, b - 1, k=a, dtype=bool)",
        ("tests/test_analysis.py::TestRecentSimilarityFraction",),
    ),
    Mutant(
        "divergence skips the last partial block",
        "analysis.py",
        "for s in range(0, n, ARGMAX_ROWS):",
        "for s in range(0, n - n % ARGMAX_ROWS, ARGMAX_ROWS):",
        ("tests/test_analysis.py::TestOutputDivergence",),
    ),
    Mutant(
        "divergence takes one max over the whole block",
        "analysis.py",
        "x.max(axis=1, keepdims=True)",
        "x.max(keepdims=True)",
        ("tests/test_analysis.py::TestOutputDivergence",),
    ),
    Mutant(
        "token ids converted to int64 before the range check",
        "manifest.py",
        "ids = [int(p) for p in parts]",
        "ids = np.array([int(p) for p in parts], dtype=np.int64).tolist()",
        ("tests/test_cli.py::TestFailLoud::test_token_beyond_int64",),
    ),
    Mutant(
        "stacked projection as one gemm",
        "model.py",
        "return np.matmul(x[:, None, :], w)[:, 0]",
        "return x @ w",
        ("tests/test_golden.py", "tests/test_model.py"),
    ),
    Mutant(
        "chunk run one entry short",
        "model.py",
        "[(i, i + 1, t0 + i + 1) for i in range(n)]",
        "[(i, i + 1, t0 + i) for i in range(n)]",
        ("tests/test_model.py::TestFullChunks",),
    ),
    Mutant(
        "chunk ALiBi bias at the chunk's last step",
        "model.py",
        "np.arange(t0 + 1, t0 + n + 1)[:, None, None, None]",
        "cache.step",
        ("tests/test_model.py::TestFullChunks",),
    ),
    Mutant(
        "n-row append writes only the first row's position",
        "policies.py",
        "steps = position if n == 1 else np.arange(position, position + n)",
        "steps = position",
        ("tests/test_policies.py::TestAppendRows",),
    ),
    Mutant(
        "h2o declares that it never evicts",
        "policies.py",
        '    name = "h2o"\n',
        '    name = "h2o"\n    evicts = False\n',
        ("tests/test_model.py::TestChunkedForward",),
    ),
    Mutant(
        "sinusoidal rows computed from position 0",
        "positional.py",
        "sinusoidal_table(stop - start, table.shape[1], start)",
        "sinusoidal_table(stop - start, table.shape[1])",
        ("tests/test_positional.py::TestEmbeddingRows",),
    ),
    Mutant(
        "learned rows sliced from row 0",
        "positional.py",
        "return table[start:stop]",
        "return table[: stop - start]",
        ("tests/test_positional.py::TestEmbeddingRows",),
    ),
    Mutant(
        "perplexity target is the current token",
        "model.py",
        "logits[np.arange(len(logits)), tokens[1:]]",
        "logits[np.arange(len(logits)), tokens[:-1]]",
        ("tests/test_model.py::TestPerplexity",),
    ),
    Mutant(
        "trace meta takes any pe_kind",
        "trace.py",
        "if self.pe_kind not in PE_KINDS:",
        "if False:",
        ("tests/test_trace.py::TestRecord::test_meta_takes_every_registered_pe_kind_and_rejects_another",),
    ),
    Mutant(
        "schema skips list item types",
        "schema.py",
        "elif item is not None and not all(_is(x, item) for x in value):",
        "elif False:",
        (
            "tests/test_cli.py::TestFailLoud::test_manifest_list_item_of_wrong_type",
            "tests/test_cli.py::TestFailLoud::test_positional_encoding_list_item_of_wrong_type",
        ),
    ),
    Mutant(
        "schema takes a bool as an integer",
        "schema.py",
        "    if isinstance(value, bool):\n        return False",
        "    if isinstance(value, bool) and kind is not int:\n        return False",
        ("tests/test_cli.py::TestFailLoud::test_model_config_int_field_of_wrong_type[True]",),
    ),
    Mutant(
        "schema treats a required field as optional",
        "schema.py",
        "required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING",
        "required = False",
        ("tests/test_model.py::TestConfig::test_missing_fields_reported",),
    ),
]


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_pytest(src: Path, tests: list[str]) -> str:
    """`passed`, `failed` (exit code 1), or what else ended pytest on `tests` against `src`."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    try:
        code = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=TIMEOUT_S, preexec_fn=_cap_memory).returncode
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if code < 0:
        return f"ended by signal {-code}"
    return {0: "passed", 1: "failed"}.get(code, f"pytest exit code {code}")


def mutated_copy(scratch: Path, mutant: Mutant | None) -> Path:
    """A copy of `src` under `scratch`, with `mutant` applied; returns the copy's `src`."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "corm" / mutant.path
        text = target.read_text()
        count = text.count(mutant.old)
        if count != 1:
            raise ValueError(f"mutant {mutant.name!r}: old text occurs {count} times in {mutant.path}, expected once")
        target.write_text(text.replace(mutant.old, mutant.new))
    return src


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in chosen for t in m.tests})
        clean = run_pytest(mutated_copy(Path(tmp, "clean"), None), tests)
        if clean != "passed":
            print(f"error: the unmutated source gives {clean} on {' '.join(tests)}", file=sys.stderr)
            return 2
        failed = 0
        for i, mutant in enumerate(chosen):
            try:
                outcome = run_pytest(mutated_copy(Path(tmp, str(i)), mutant), list(mutant.tests))
            except ValueError as exc:
                outcome = str(exc)
            verdict = {"failed": "killed", "passed": "SURVIVED"}.get(outcome, "ERROR")
            detail = f": {outcome}" if verdict == "ERROR" else ""
            print(f"{verdict:8s}  {mutant.name}  ({', '.join(mutant.tests)}){detail}")
            failed += verdict != "killed"
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
