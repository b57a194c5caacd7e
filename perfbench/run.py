#!/usr/bin/env python3
"""Build and run the CSI benchmark (perfbench/csibench).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the repository root. The Go toolchain's cache, the binary, span
dumps and durable monitor state all stay under .bench_build/ in the
current directory; nothing is fetched from the network. The benchmark's
own output is passed through unchanged: its last line is the result
object. --selfcheck runs every workload at its smallest size on two seeds,
traced and untraced, and checks that each passes its correctness gate and
prints exactly the metrics BENCHMARK.json lists (infer-sq, which
BENCHMARK.json does not gate, prints those plus its own).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "csibench")
RUN_TIMEOUT_S = 170
# A workload the benchmark can run but BENCHMARK.json does not gate.
UNGATED = "infer-sq"


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
    })
    return env


def build():
    """Builds the benchmark from source; exits 2 if that fails."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("run.py: no go.mod in %s: run from the repository root" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "./csibench"],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        sys.exit(2)


def run(args, capture=False):
    """Runs the built benchmark and waits for it, killing it on timeout."""
    cmd = [BINARY] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        sys.exit(3)
    return proc.returncode, out


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        "0": set(m["name"] for m in bench["end_to_end"]),
        "1": set(m["name"] for m in bench["per_layer"]),
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    gated = [w["name"] for w in bench["workloads"]]
    problems = []
    for name in gated + [UNGATED]:
        for seed in ("1", "2"):
            for trace in ("0", "1"):
                label = "%s seed %s trace %s" % (name, seed, trace)
                before = len(problems)
                code, out = run(["-workload", name, "-seed", seed, "-seconds", "1",
                                 "-trace", trace, "-small"], capture=True)
                lines = out.decode().strip().splitlines()
                if code != 0 or not lines:
                    problems.append("%s: exit %d" % (label, code))
                else:
                    res = json.loads(lines[-1])
                    if not res["correct"] or res["failed"] != 0:
                        problems.append("%s: correctness gate failed" % label)
                    got = set(res["metrics"])
                    if got != want[trace] and (name in gated or not got > want[trace]):
                        problems.append("%s: metrics %s, want %s" % (label, sorted(got), sorted(want[trace])))
                    for metric, m in res["metrics"].items():
                        if metric in units and units[metric] != m["unit"]:
                            problems.append("%s: %s unit %s, want %s" % (label, metric, m["unit"], units[metric]))
                print("selfcheck %-34s %s" % (label, "ok" if len(problems) == before else "FAIL"))
    for p in problems:
        print("selfcheck:", p, file=sys.stderr)
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selfcheck"]:
        sys.exit(selfcheck())
    # The Go flag package accepts --name as well as -name.
    code, _ = run(args)
    sys.exit(code)


if __name__ == "__main__":
    main()
