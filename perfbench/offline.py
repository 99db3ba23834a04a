"""The offline workloads: one `ja batch` or `ja fit` command per operation,
timed from spawn to exit."""

import json
import os
import random
import time

import common
import grids
import layers
from common import BenchError, WORKERS, metric

PRESETS = ["date2006", "ja1984", "soft-ferrite", "hard-steel"]
SETUP_REPEATS = 15
JITTER = [-500, -250, 0, 250, 500]
DEFAULT_FIT_SEED = 42  # `ja fit --seed` default


class Offline:
    """Shared run loop.  A subclass generates its inputs and names the
    command for the full input, for a one-unit input (`setup_s`) and the
    untimed scalar reference."""

    def __init__(self, ja, work, seed):
        self.ja = ja
        self.work = work
        self.rng = random.Random(seed)
        self.stderr = os.path.join(work, "stderr.log")
        self.out = os.path.join(work, "out.json")

    def path(self, name):
        return os.path.join(self.work, name)

    # -- subclass interface ------------------------------------------------
    def generate(self):
        raise NotImplementedError

    def command(self, out, *extra):
        raise NotImplementedError

    def unit_command(self, out):
        raise NotImplementedError

    def work_done(self, report):
        """(samples stepped, model evaluations) of one command."""
        raise NotImplementedError

    def counters(self, report, timings):
        raise NotImplementedError

    def trace_spec(self, reference_path):
        raise NotImplementedError

    def trace_probes(self, timings):
        """Per-layer values read from a `--timings` report."""
        raise NotImplementedError

    # -- shared ------------------------------------------------------------
    def reference(self):
        """The report of an untimed `--workers 1 --routing scalar` run."""
        path = self.path("reference.json")
        common.run_checked(self.command(path, "--workers", "1", "--routing", "scalar"), self.stderr)
        with open(path, "rb") as f:
            return path, f.read()

    def timings_run(self):
        """One `--timings` run: (wall seconds, parsed report)."""
        path = self.path("timings.json")
        command = common.run_timed(self.command(path, "--workers", str(WORKERS), "--timings"),
                                   self.stderr)
        if command.returncode != 0:
            raise BenchError(f"--timings run exited {command.returncode}")
        with open(path, encoding="utf-8") as f:
            return command.wall_s, json.load(f)

    def setup_times(self):
        times = []
        for _ in range(SETUP_REPEATS):
            command = common.run_timed(self.unit_command(self.path("unit.json")), self.stderr)
            if command.returncode != 0:
                raise BenchError(f"one-unit command exited {command.returncode}")
            times.append(command.wall_s)
        return times

    def run_once(self, expected):
        command = common.run_timed(self.command(self.out, "--workers", str(WORKERS)), self.stderr)
        ok = command.returncode == 0 and os.path.exists(self.out)
        if ok:
            with open(self.out, "rb") as f:
                ok = f.read() == expected
            os.remove(self.out)
        return command, ok

    def measure(self, seconds):
        self.generate()
        setup = self.setup_times()
        _, expected = self.reference()
        report = json.loads(expected)
        _, timings = self.timings_run()
        self.run_once(expected)  # warm-up, discarded
        walls, rss = [], []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or attempted < 3:
            command, ok = self.run_once(expected)
            attempted += 1
            failed += not ok
            walls.append(command.wall_s)
            rss.append(command.maxrss_kib)
        wall = common.median(walls)
        samples, evaluations = self.work_done(report)
        metrics = {
            "wall_s": metric(wall, "s"),
            "samples_per_s": metric(samples / wall, "1/s"),
            "evals_per_s": metric(evaluations / wall, "1/s"),
            "req_p50_ms": metric(wall * 1e3, "ms"),
            "peak_rss_mib": metric(common.median(rss) / 1024, "MiB"),
            "setup_s": metric(common.median(setup), "s"),
        }
        counters = self.counters(report, timings)
        counters["report_bytes"] = len(expected)
        return attempted, failed, metrics, counters

    def trace(self, tracer):
        self.generate()
        reference_path, _ = self.reference()
        outside = []
        for _ in range(3):
            wall, timings = self.timings_run()
            outside.append(wall - timings["timing"]["elapsed_ns"] / 1e9)
        spec = self.trace_spec(reference_path)
        sidecar = tracer(spec)
        probes = {"exec.outside_engine_ms": common.median(outside) * 1e3}
        probes.update(self.trace_probes(timings))
        ok = not sidecar["mismatches"]
        return ok, layers.from_sidecar(sidecar, probes), sidecar


def lockstep_counts(entries):
    """(groups, lanes) from the `lockstep_lanes` fields of a --timings
    report: a group of L lanes contributes L entries of lockstep_lanes L."""
    lanes = [e["lockstep_lanes"] for e in entries if "lockstep_lanes" in e]
    groups = round(sum(1 / width for width in lanes))
    return groups, len(lanes)


class BatchWorkload(Offline):
    def generate(self):
        self.grid = self.make_grid()
        for name, g in (("grid.conf", self.grid), ("unit.conf", self.make_unit_grid())):
            with open(self.path(name), "w", encoding="utf-8") as f:
                f.write(grids.conf_text(g))

    def command(self, out, *extra):
        return [self.ja, "batch", "--config", self.path("grid.conf"), "--out", out, *extra]

    def unit_command(self, out):
        return [self.ja, "batch", "--config", self.path("unit.conf"), "--workers", str(WORKERS),
                "--out", out]

    def work_done(self, report):
        return sum(e["samples"] for e in report["entries"]), len(report["entries"])

    def counters(self, report, timings):
        entries = report["entries"]
        groups, lanes = lockstep_counts(timings["entries"])
        transient = [e["transient"] for e in entries if "transient" in e]
        kernel = [e["kernel"] for e in timings["entries"] if "kernel" in e]
        return {
            "entries": len(entries),
            "failed_entries": report["failed"],
            "samples": sum(e["samples"] for e in entries),
            "slope_updates": sum(e["stats"]["updates"] for e in entries),
            "delta_cycles": sum(k["delta_cycles"] for k in kernel),
            "process_activations": sum(k["process_activations"] for k in kernel),
            "newton_iterations": sum(t["newton_iterations"] for t in transient),
            "accepted_steps": sum(t["accepted_steps"] for t in transient),
            "lockstep_groups": groups,
            "lockstep_lanes": lanes,
        }

    def trace_spec(self, reference_path):
        g = dict(self.grid, render="both", expected=reference_path)
        return {"kind": "grid", "workers": WORKERS, "grids": [g]}

    def trace_probes(self, timings):
        groups, lanes = lockstep_counts(timings["entries"])
        return {"exec.lockstep_groups": groups,
                "exec.mean_lanes": lanes / groups if groups else 0.0}


class ThermalGrid(BatchWorkload):
    """4 presets x 34 temperatures x 3 major-loop peaks on a laminated 50 Hz
    core: SoA lockstep groups, thermal parameter resolution, loop metrics
    and losses."""

    def make_grid(self):
        temperatures = set()
        while len(temperatures) < 34:
            temperatures.add(round(self.rng.uniform(-40.0, 125.0), 1))
        self.temperatures = sorted(temperatures)
        # Peaks move by a seeded amount but keep their sum, so every seed
        # steps the same number of samples.
        a, b = self.rng.choice(JITTER), self.rng.choice(JITTER)
        peaks = [7000 + a, 8500 + b, 10000 - a - b]
        self.rng.shuffle(peaks)
        return grids.grid(PRESETS, ["direct"], [10], [grids.major(p, 5, 2) for p in peaks],
                          self.temperatures, grids.LAMINATED_50HZ)

    def make_unit_grid(self):
        return grids.grid(PRESETS[:1], ["direct"], [10], [grids.major(8500, 50, 1)],
                          self.temperatures[:1], grids.LAMINATED_50HZ)


class MixedBackends(BatchWorkload):
    """systemc, ams and time-domain backends x 3 presets x 2 dh_max values
    x {major loop, biased minor loop, fixed-step sine circuit, adaptive PWM
    circuit}: nothing groups, so every scenario runs scalar."""

    def make_grid(self):
        # Seeds vary only what leaves the amount of work alone: the material
        # order and the minor loop's bias.  (ΔH_max moves the circuits'
        # Newton iteration counts by tens of percent, so it stays fixed.)
        self.materials = self.rng.sample(["date2006", "soft-ferrite", "hard-steel"], 3)
        dh_max = [10, 25]
        excitations = [
            grids.major(8000, 4, 2),
            grids.biased(self.rng.choice(range(1400, 1601, 50)), 750, 3, 2),
            grids.circuit("sine", 30, 50, 0.04, "fixed", dt=0.00005),
            grids.circuit("pwm", 30, 50, 0.02, "adaptive", duty=0.3),
        ]
        return grids.grid(self.materials, ["systemc", "ams", "time-domain"], dh_max, excitations)

    def make_unit_grid(self):
        return grids.grid(["date2006"], ["systemc"], [10], [grids.major(8000, 40, 1)])


class FitLibrary(Offline):
    """`ja fit --config` over 4 measured loops (the presets at a seeded peak
    with seeded B noise), 8 starts each: the lockstep multi-start descent."""

    STARTS = 8

    def generate(self):
        self.csvs = []
        # Seeded peaks with a fixed sum (each evaluation sweeps to its loop's
        # peak, so the sum fixes the samples an evaluation round steps), in
        # descending order, so the two workers finish together.
        jitter = [self.rng.choice([-100, -50, 0, 50, 100]) for _ in range(3)]
        peaks = [p + j for p, j in zip([8500, 7000, 5500, 4000], jitter + [-sum(jitter)])]
        for material, peak in zip(PRESETS, peaks):
            text = common.run_checked(
                [self.ja, "sweep", "--material", material, "--peak", str(peak), "--step", "25",
                 "--cycles", "2", "--format", "csv"], self.stderr).decode()
            rows = ["h,b"]
            for line in text.strip().split("\n")[1:]:
                h, b, _ = line.split(",")
                rows.append(f"{float(h)!r},{float(b) * (1 + self.rng.gauss(0, 0.002))!r}")
            path = self.path(f"{material}.csv")
            with open(path, "w", encoding="utf-8") as f:
                f.write("\n".join(rows) + "\n")
            self.csvs.append(path)
        for name, csvs in (("library.conf", self.csvs), ("unit.conf", self.csvs[:1])):
            with open(self.path(name), "w", encoding="utf-8") as f:
                f.write("".join(f"loop = {os.path.basename(p)}\n" for p in csvs))
        self.samples_per_eval = {}

    def command(self, out, *extra):
        # The starting-point seed stays at its default: it steers how many
        # candidates the descents skip, and so the work per command.
        return [self.ja, "fit", "--config", self.path("library.conf"), "--starts",
                str(self.STARTS), "--out", out, *extra]

    def unit_command(self, out):
        return [self.ja, "fit", "--config", self.path("unit.conf"), "--starts", "1",
                "--passes", "1", "--workers", str(WORKERS), "--out", out]

    def sweep_samples(self, h_peak):
        """Samples one objective evaluation steps: the candidate sweep is a
        two-cycle major loop to the loop's peak at the 50 A/m sweep step."""
        if h_peak not in self.samples_per_eval:
            doc = json.loads(common.run_checked(
                [self.ja, "sweep", "--peak", repr(h_peak), "--step", "50", "--cycles", "2",
                 "--format", "json"], self.stderr))
            self.samples_per_eval[h_peak] = doc["samples"]
        return self.samples_per_eval[h_peak]

    def work_done(self, report):
        evaluations = sum(fit["evaluations"] for fit in report["loops"])
        samples = sum(fit["evaluations"] * self.sweep_samples(fit["h_peak_a_per_m"])
                      for fit in report["loops"])
        return samples, evaluations

    def counters(self, report, timings):
        samples, evaluations = self.work_done(report)
        return {
            "loops": len(report["loops"]),
            "evaluations": evaluations,
            "samples": samples,
            "lockstep_lanes": timings["timing"].get("lockstep_lanes", 0),
        }

    def trace_spec(self, reference_path):
        return {"kind": "fit", "workers": WORKERS,
                "fit": {"csvs": self.csvs, "starts": self.STARTS, "seed": DEFAULT_FIT_SEED,
                        "expected": reference_path}}

    def trace_probes(self, timings):
        lanes = timings["timing"].get("lockstep_lanes", 0)
        loops = len(timings["loops"])
        return {"exec.lockstep_groups": loops if lanes else 0, "exec.mean_lanes": lanes}
