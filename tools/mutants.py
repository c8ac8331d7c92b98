"""Mutation runner: each mutant must fail the tests named to kill it.

    python tools/mutants.py [NAME ...]

A mutant names a file under `src/corm`, an exact old text that must occur in
it once, the text that replaces it, and the test files expected to kill it.
For each mutant the runner copies `src` to a temporary directory, applies the
edit there and runs the named tests against the copy with
`-o pythonpath=<copy>/src` (pytest's `pythonpath` setting would otherwise put
this checkout's `src` first). The checkout itself is never edited. First the
union of the named test files must pass against an unmutated copy.

Each mutant prints `killed` or `SURVIVED`. An old text that does not occur
exactly once is an error. The exit code is 0 only when every mutant run was
killed. This runner is not part of tier-1; it takes about a minute on 2 CPUs.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per pytest run; the slowest named file takes seconds


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/corm
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repository root


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
        "            if gemv and b - a == 1:\n                np.dot(kmat",
        "            if gemv and b - a <= 2:\n                np.dot(kmat",
        ("tests/test_attention.py",),
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
        "stacked projection as one gemm",
        "model.py",
        "return np.matmul(x[:, None, :], w)[:, 0]",
        "return x @ w",
        ("tests/test_golden.py", "tests/test_model.py"),
    ),
]


def pytest_passes(src: Path, tests: list[str]) -> bool:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


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
        if not pytest_passes(mutated_copy(Path(tmp, "clean"), None), tests):
            print(f"error: the unmutated source fails {' '.join(tests)}", file=sys.stderr)
            return 2
        failed = 0
        for i, mutant in enumerate(chosen):
            try:
                src = mutated_copy(Path(tmp, str(i)), mutant)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                failed += 1
                continue
            killed = not pytest_passes(src, list(mutant.tests))
            print(f"{'killed' if killed else 'SURVIVED':8s}  {mutant.name}  ({', '.join(mutant.tests)})")
            failed += not killed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
