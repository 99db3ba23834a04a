"""Helpers shared by the workloads: building, spawning and timing `ja`,
statistics, and the FNV-1a-128 stream digest."""

import json
import os
import signal
import statistics
import subprocess
import sys

# Every offline command and the daemon get this many workers, matching the
# two cores the benchmark is tuned for.
WORKERS = 2


class BenchError(Exception):
    """A failure that leaves nothing to measure (build, input generation,
    reference run).  The benchmark exits non-zero without a result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def target_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo_build(root, args):
    """Builds with cargo into the benchmark's target directory."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        raise BenchError(f"cargo build {' '.join(args)} failed")


def build_ja(root):
    """Builds `ja` and the spawner that measures it; returns the `ja` path."""
    global SPAWNER
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        raise BenchError("no Cargo.toml here: run from the root of a checkout")
    cargo_build(root, ["-p", "ja-cli"])
    cargo_build(root, ["--manifest-path", os.path.join("perfbench", "spawn", "Cargo.toml")])
    SPAWNER = os.path.join(target_dir(root), "release", "perfbench-spawn")
    return os.path.join(target_dir(root), "release", "ja")


def build_trace(root):
    cargo_build(root, ["--manifest-path", os.path.join("perfbench", "trace", "Cargo.toml")])
    return os.path.join(target_dir(root), "release", "perfbench-trace")


# perfbench/spawn: runs one command and reports its wall time and its own
# peak RSS (a child of this Python process would report Python's).
SPAWNER = None


class Command:
    """One finished command: exit code, wall time and peak RSS."""

    def __init__(self, spawner_stdout):
        code, wall_ns, maxrss_kib = spawner_stdout.split()
        self.returncode = int(code)
        self.wall_s = int(wall_ns) / 1e9
        self.maxrss_kib = int(maxrss_kib)


def run_timed(argv, stderr_path):
    """Runs a command to completion, timing spawn to exit."""
    out = subprocess.run([SPAWNER, "-", stderr_path, *argv], stdout=subprocess.PIPE,
                         stdin=subprocess.DEVNULL, check=True, text=True).stdout
    return Command(out)


def start(argv, stderr_path):
    """Starts a long-running command under the spawner, in its own process
    group so `kill` reaches the command too."""
    return subprocess.Popen([SPAWNER, "-", stderr_path, *argv], stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, start_new_session=True, text=True)


def finish(proc):
    """Waits for a command started with `start`."""
    out, _ = proc.communicate()
    return Command(out)


def kill(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_checked(argv, stderr_path):
    """Runs an untimed helper command and returns its stdout."""
    with open(stderr_path, "ab") as err:
        result = subprocess.run(argv, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL)
    if result.returncode != 0:
        raise BenchError(f"`{' '.join(argv[1:3])}` exited {result.returncode}; see {stderr_path}")
    return result.stdout


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


FNV_OFFSET = 0x6C62272E07BB014262B821756295C58D
FNV_PRIME = 0x0000000001000000000000000000013B
MASK128 = (1 << 128) - 1


def fnv1a_128(data, state=FNV_OFFSET):
    for byte in data:
        state = ((state ^ byte) * FNV_PRIME) & MASK128
    return state


def metric(value, unit):
    return {"value": value, "unit": unit}


def write_json(path, value):
    with open(path, "w", encoding="utf-8") as out:
        json.dump(value, out)
