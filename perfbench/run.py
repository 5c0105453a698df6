#!/usr/bin/env python3
"""Build the benchmark against the repository's sources and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload uc-ksweep --seed 17 --seconds 10 --trace 0

The build compiles the main Scala sources and the benchmark's own sources
with the Scala compiler that ships in Spark's jars, into .bench_build/, and
is reused while no source changes. The run prints one `metric` line per
metric and, as its last line, the result as one JSON object. See README.md
for the workloads and metrics. `--record` stores the run's output
fingerprint in fingerprints.json as the baseline for its workload and seed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
MAIN_SOURCES = os.path.join(ROOT, "src", "main", "scala")
# DuckDB is a test oracle and not on Spark's classpath; nothing the
# benchmark calls uses it.
EXCLUDED = {"Oracle.scala"}
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("uc-ksweep", "user-group", "harness-grid")
RUN_TIMEOUT_S = 170
# Spark on Java 17 needs these modules opened (as in the sbt build).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def spark_jars():
    """Jars of $SPARK_HOME, or of the first Spark distribution on the PATH
    (a bin/spark-submit beside a jars/ that holds the Scala compiler)."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.realpath(d)) for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and os.path.isdir(jars) and any(j.startswith("scala-compiler") for j in os.listdir(jars)):
            return jars
    sys.exit("perfbench: no Spark distribution found; set SPARK_HOME")


def sources():
    out = []
    for base in (MAIN_SOURCES, os.path.join(HERE, "src")):
        for d, _, files in os.walk(base):
            out += [os.path.join(d, f) for f in files if f.endswith(".scala") and f not in EXCLUDED]
    return sorted(out)


def build(jars):
    """Compile into .bench_build/perfbench/classes unless already current."""
    srcs = sources()
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    stamp = h.hexdigest()
    classes = os.path.join(BUILD, "classes")
    stamp_file = os.path.join(BUILD, "stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + srcs
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classes


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    a = p.parse_args()
    if a.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    if not os.path.isdir(MAIN_SOURCES):
        sys.exit(f"perfbench: no program sources at {MAIN_SOURCES}; run from the repository root")

    jars = spark_jars()
    classes = build(jars)
    with open(FINGERPRINTS) as f:
        recorded = json.load(f)
    expected = recorded.get(a.workload, {}).get(str(a.seed))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # -UsePerfData: the JVM would otherwise write /tmp/hsperfdata_<user>.
    cmd = (["java", "-XX:-UsePerfData", "-Xms3g", "-Xmx3g", f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
           + ["-cp", classes + os.pathsep + os.path.join(jars, "*"), "perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--dir", BUILD]
           + (["--fingerprint", expected] if expected and not a.record else []))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        sys.exit(f"perfbench: benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if a.record:
        fp = [l.split()[-1] for l in lines if l.startswith(f"fingerprint {a.workload} ")]
        recorded.setdefault(a.workload, {})[str(a.seed)] = fp[0]
        with open(FINGERPRINTS, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
