#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the repository's libraries from src/) into
the build directory — $CARGO_TARGET_DIR when set, else .bench_build — then
runs the tdcbench binary with the same arguments. The ATPG cube cache, result
files, span files and the daemon socket all live under that directory. The
binary's standard output is passed through; its last line is the result
JSON. Exits non-zero, without a result line, when the sources are missing or
the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def source_id() -> str:
    """git commit when the checkout has one, plus a hash of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return f"git:{commit} src-sha256:{digest.hexdigest()[:16]}"


def build(out: Path) -> Path:
    cmake_dir = out / "cmake"
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "tdcbench",
                  "-j", jobs])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log)
    return cmake_dir / "tdcbench"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no repository sources next to %s" % BENCH_DIR)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = build(out)
    env = dict(os.environ, TDC_CACHE_DIR=str(out / "tdc_cache"))
    # Relative paths keep the daemon's socket path short (sockaddr_un).
    results = os.path.relpath(out / "out", ROOT)
    cmd = [str(binary), *sys.argv[1:], "--out", results, "--source", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
