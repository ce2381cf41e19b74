"""Run each test file in its own pytest process.

    python3 scripts/tests_alone.py [PATTERN]

Runs `python -m pytest -q -p no:cacheprovider FILE` from the root of the
checkout, with `src/` on PYTHONPATH, for each `tests/test_*.py` (or each
file matching PATTERN under `tests/`), one after another.  Prints one line
per file, pass or fail with its seconds, then the total, and exits 1 if any
file fails.  A file that passes in the whole suite but fails here depends on
state an earlier file left behind.
"""

import glob
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    files = sorted(glob.glob(os.path.join(ROOT, "tests", args[0] if args else "test_*.py")))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    failed, total = [], 0.0
    for path in files:
        name = os.path.relpath(path, ROOT)
        t = time.perf_counter()
        rc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", name],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        dt = time.perf_counter() - t
        total += dt
        print(f"{'pass' if rc == 0 else 'FAIL'}  {dt:7.1f} s  {name}", flush=True)
        if rc != 0:
            failed.append(name)
    print(f"{len(files) - len(failed)} of {len(files)} files pass alone, {total:.1f} s in all")
    return 1 if failed or not files else 0


if __name__ == "__main__":
    sys.exit(main())
