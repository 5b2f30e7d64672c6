"""Mutation gate: each listed mutant of src/ must make its named tests fail.

    python3 tests/mutation_gate.py

Run from the root of a checkout; stdlib only, and not a pytest module. For
each mutant the script copies ``src/`` to a temporary directory, replaces a
source text that must occur exactly once in the named file, and runs the
named tests against the copy. The gate fails (exit 1) if a mutant survives,
that is, its tests all pass, or if its source text no longer occurs exactly
once, so a refactor of a guarded comparison must update this list.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/, source text, replacement, test ids that must fail)
MUTANTS = [
    ("curvebound/audit.py",
     "for op in (np.greater_equal, np.less_equal):",
     "for op in (np.greater, np.less):",
     ["tests/test_audit_pass_properties.py::test_rotation_covers_every_tie_pattern"]),
    ("curvebound/audit.py",
     "limit = (R + mesh.vertex_adjacency().data.max(initial=0.0)) * (1.0 + 1e-9)",
     "limit = R * (1.0 + 1e-9)",
     ["tests/test_audit.py::TestDichotomy::test_matches_reference_loop"]),
    ("curvebound/audit.py",
     'order = np.argsort(j, kind="stable")',
     "order = np.argsort(j)",
     ["tests/test_dichotomy_properties.py::test_matches_reference_loop"]),
    ("curvebound/mesh.py",
     "slack = max(1e-12, 4 * n * np.finfo(float).eps)",
     "slack = 0.0",
     # upper carries the slack, so the pinned report is what moves
     ["tests/test_bit_identity.py::test_audit_report_matches_pinned_digest"]),
    ("curvebound/audit.py",
     "j_one, j_two, j_full = (np.searchsorted(r, x)",
     'j_one, j_two, j_full = (np.searchsorted(r, x, side="right")',
     ["tests/test_audit.py::TestDichotomy::test_radius_equal_to_a_corner_distance"]),
    # the direction tag flipped: a repeated directed edge is reported reversed.
    # u >= v for u > v is an equivalent mutant: the tag then differs only on a
    # self-loop (u, u), which every occurrence tags alike, so no table changes
    ("curvebound/mesh.py",
     "key += u > v",
     "key += u < v",
     ["tests/test_mesh.py::TestEdgeTable::test_matches_unique_over_pairs[directed_thrice]",
      "tests/test_mesh.py::TestValidateMessages::test_inconsistent_orientation"]),
    ("curvebound/mesh.py",
     'order = np.argsort(ends, kind="stable")',
     "order = np.arange(len(ends))",
     ["tests/test_memory.py::test_adjacency_is_scipys_csr[icosphere3]"]),
    ("curvebound/mesh.py",
     "for s in range(0, k, step):",
     "for s in range(0, k - step, step):",
     ["tests/test_mesh.py::TestIntrinsicDiameter::test_library_dijkstra_sources"]),
    ("curvebound/criteria.py",
     "if np.any(sign * z <= 0.0):",
     "if np.any(sign * z < 0.0):",
     ["tests/test_criteria.py::TestCone::test_point_on_the_apex_plane_fails_the_sign_test"]),
    ("curvebound/mesh.py",
     "degenerate = np.nonzero(areas <= DEGENERATE_AREA_TOL",
     "degenerate = np.nonzero(areas < DEGENERATE_AREA_TOL",
     ["tests/test_cli.py::TestGenCommand::test_invalid_mesh_is_an_error"]),
]


def run_mutant(path, old, new, tests):
    """'killed', 'survived' or 'unmatched (n)' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"unmatched ({text.count(old)} occurrences)"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_PROFILE="ci",
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *tests], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        # exit 1: tests ran and some failed; anything else (0, or an error) lets it survive
        return "killed" if done.returncode == 1 else "survived"


def main():
    failed = 0
    for path, old, new, tests in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(path, old, new, tests)
        failed += verdict != "killed"
        print(f"{verdict:>10}  {time.perf_counter() - start:5.1f} s  {path}: {old!r} -> {new!r}")
    print(f"mutation gate: {len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
