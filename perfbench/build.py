"""Build step of the benchmark.

Compiles the repository's main Scala sources (src/main/scala) together with
the benchmark's own driver (perfbench/scala) with the Scala compiler that
ships in Spark's jars, then writes the mask files of both lite datasets.
Everything lands in .bench_build/<source hash>/ inside the checkout, so a
build is reused until a source file changes:

    .bench_build/<hash>/classes   compiled classes
    .bench_build/<hash>/data      mask files (written once; not timed)
    .bench_build/<hash>/work      Spark scratch space and temp files
    .bench_build/<hash>/results   raw and summarised results, spans

Run it alone with `python3 perfbench/build.py`; run.py calls it first.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
MAIN_SOURCES = ROOT / "src" / "main" / "scala"
BENCH_SOURCES = BENCH_DIR / "scala"

# The JVM module openings Spark's own launcher passes on Java 17.
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars of the Spark installation: $SPARK_HOME/jars, else the one
    next to spark-submit on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("spark-core_*.jar")):
        raise BuildError("no Spark installation found (set SPARK_HOME)")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    if exe is not None and exe.exists():
        return str(exe)
    found = shutil.which("java")
    if not found:
        raise BuildError("no java found (set JAVA_HOME)")
    return found


def sources() -> list:
    if not MAIN_SOURCES.is_dir():
        raise BuildError(f"program sources missing: {MAIN_SOURCES.relative_to(ROOT)}")
    files = sorted(MAIN_SOURCES.rglob("*.scala")) + sorted(BENCH_SOURCES.glob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def source_hash(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


def driver_heap() -> str:
    """The driver heap the repository's tier-1 test command derives: half
    the machine's memory in GiB, clamped to [2, 8]; SPARK_DRIVER_MEM wins."""
    if os.environ.get("SPARK_DRIVER_MEM"):
        return os.environ["SPARK_DRIVER_MEM"]
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
        g = kb // 2097152
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, g))}g"


class Build:
    """A finished build: where its classes, data, scratch and results live."""

    def __init__(self, base: Path, jars: Path):
        self.base = base
        self.jars = jars
        self.classes = base / "classes"
        self.data = base / "data"
        self.work = base / "work"
        self.results = base / "results"

    def private_files(self) -> list:
        """JVM flags that keep its temporary files inside the build directory
        (and its perf-data file out of the system temp directory)."""
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        return ["-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]

    def jvm(self, main_args) -> list:
        return [
            java(),
            f"-Xmx{driver_heap()}",
            *JVM_OPENS,
            *self.private_files(),
            f"-Dlog4j2.configurationFile={BENCH_DIR / 'log4j2.properties'}",
            "-cp", f"{self.classes}{os.pathsep}{self.jars / '*'}",
            "perfbench.PerfBench",
            *main_args,
        ]


def ensure_built(log=sys.stderr) -> Build:
    """Compile and prepare data unless this source hash was built already."""
    files = sources()
    jars = spark_jars()
    digest = source_hash(files)
    build = Build(BUILD_DIR / digest, jars)
    done = build.base / "BUILT"
    if done.exists():
        return build

    # A new source hash: drop older builds (their data is ~650 MB each).
    if BUILD_DIR.is_dir():
        for old in BUILD_DIR.iterdir():
            if old.is_dir() and re.fullmatch(r"[0-9a-f]{16}", old.name) and old.name != digest:
                shutil.rmtree(old, ignore_errors=True)
    if build.base.exists():
        shutil.rmtree(build.base)
    build.classes.mkdir(parents=True)

    print(f"[perfbench] compiling {len(files)} sources into {build.classes.relative_to(ROOT)}", file=log, flush=True)
    compile_cmd = [
        java(), "-Xss8m", "-Xmx2g", *build.private_files(), "-cp", str(jars / "*"), "scala.tools.nsc.Main",
        # An explicit -classpath keeps the working directory (whose perfbench/scala
        # would otherwise read as a package named scala) off the classpath.
        "-usejavacp", "-classpath", str(build.classes), "-nowarn", "-d", str(build.classes),
        *map(str, files),
    ]
    r = subprocess.run(compile_cmd, cwd=ROOT, stdout=log, stderr=log)
    if r.returncode != 0:
        raise BuildError(f"compilation failed (exit {r.returncode})")

    print("[perfbench] writing mask files", file=log, flush=True)
    prep = build.jvm(["--mode", "prepare", "--data", str(build.data), "--work", str(build.work)])
    r = subprocess.run(prep, cwd=ROOT, stdout=log, stderr=log)
    if r.returncode != 0:
        raise BuildError(f"mask generation failed (exit {r.returncode})")
    done.write_text(digest + "\n")
    return build


if __name__ == "__main__":
    try:
        b = ensure_built()
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(1)
    print(b.base)
