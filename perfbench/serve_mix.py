"""The serve workload: `ja serve` under a closed loop of 2 client threads,
one connection per request, replaying a seeded schedule of repeated,
unique and streamed `batch_request`s.

One pass = spawn the daemon (cold cache), wait for `/v1/health`, run the
whole schedule, read the cache counters, shut the daemon down.  Passes
repeat until the run's time is spent."""

import json
import os
import random
import socket
import threading
import time

import common
import grids
import layers
from common import BenchError, WORKERS, metric

REQUESTS = 240
# Below the ~75 distinct stored responses' total size, so the LRU evicts
# and some repeats miss.
CACHE_BYTES = 48 * 1024
MISS_CHECKS = 3
PRESETS = ["date2006", "ja1984", "soft-ferrite", "hard-steel"]


def shuffled(value, rng):
    """The same JSON value with every object's keys in a seeded order."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: shuffled(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [shuffled(v, rng) for v in value]
    return value


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Response:
    __slots__ = ("index", "status", "headers", "body", "connect", "ttfb", "read", "started",
                 "ended")


def http(addr, method, path, body=b""):
    """One request on its own connection, timed per phase."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: {addr[0]}\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n").encode()
    r = Response()
    r.started = time.perf_counter()
    sock = socket.create_connection(addr)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connected = time.perf_counter()
        sock.sendall(head + body)
        chunks = [sock.recv(65536)]
        first = time.perf_counter()
        while chunks[-1]:
            chunks.append(sock.recv(65536))
    finally:
        sock.close()
    r.ended = time.perf_counter()
    r.connect, r.ttfb, r.read = connected - r.started, first - connected, r.ended - first
    raw = b"".join(chunks)
    header_bytes, _, r.body = raw.partition(b"\r\n\r\n")
    lines = header_bytes.decode("latin-1").split("\r\n")
    r.status = int(lines[0].split()[1]) if lines[0] else 0
    r.headers = {k.strip().lower(): v.strip() for k, _, v in (l.partition(":") for l in lines[1:])}
    return r


class ServeMix:
    def __init__(self, ja, work, seed):
        self.ja = ja
        self.work = work
        self.rng = random.Random(seed)
        self.stderr = os.path.join(work, "stderr.log")

    # -- inputs ------------------------------------------------------------
    def unique_grid(self, backend):
        return grids.grid(sorted(self.rng.sample(PRESETS, 2), key=PRESETS.index), [backend],
                          [self.rng.choice([10, 25])], [grids.major(5000, 200, 1)],
                          [self.rng.choice(range(-40, 126, 5))], grids.LAMINATED_50HZ)

    def stream_grid(self, peak):
        """200 coarse entries: the presets at 50 seeded temperatures."""
        temperatures = sorted(self.rng.sample(range(-40, 126), 50))
        return grids.grid(PRESETS, ["direct"], [10], [grids.major(peak, 250, 1)],
                          temperatures, grids.LAMINATED_50HZ)

    @staticmethod
    def request(g, stream):
        options = {"cache_info": True}
        if stream:
            options["stream"] = True
        return {"schema_version": 1, "kind": "batch_request", "grid": grids.request_grid(g),
                "options": options}

    def generate(self):
        """The schedule, in seeded order: 60% repeats of earlier unique
        requests (re-serialised with shuffled keys), 30% unique small
        requests of one size (half direct, half ams), 10% streams spread
        evenly over a few stream grids.  Class counts are fixed, so every
        seed asks for about the same work."""
        streams = [self.stream_grid(6000) for _ in range(3)]
        counts = {"stream": REQUESTS // 10, "unique": REQUESTS * 3 // 10}
        counts["repeat"] = REQUESTS - counts["stream"] - counts["unique"]
        classes = [c for c, n in counts.items() for _ in range(n)]
        self.rng.shuffle(classes)
        classes.remove("unique")
        classes.insert(0, "unique")
        backends = ["direct", "ams"] * (counts["unique"] // 2)
        self.rng.shuffle(backends)
        # How many unique requests back a repeat reaches: half within the
        # ~30 responses the cache holds, half beyond, so hits and misses
        # keep their share on every seed.
        reach = [self.rng.randint(1, 10) for _ in range(counts["repeat"] // 2)]
        reach += [self.rng.randint(40, 70) for _ in range(counts["repeat"] - len(reach))]
        self.rng.shuffle(reach)
        self.schedule = []  # (class, grid, body bytes, canonical key)
        uniques = []
        for index, cls in enumerate(classes):
            if cls == "stream":
                g = streams[index % len(streams)]
                doc = self.request(g, True)
                body = json.dumps(doc).encode()
            elif cls == "unique":
                g = self.unique_grid(backends.pop())
                doc = self.request(g, False)
                uniques.append((g, doc))
                body = json.dumps(doc).encode()
            else:
                g, doc = uniques[-min(reach.pop(), len(uniques))]
                body = json.dumps(shuffled(doc, self.rng)).encode()
            self.schedule.append((cls, g, body, canonical(doc)))

    # -- one pass ----------------------------------------------------------
    def start_daemon(self):
        port_file = os.path.join(self.work, "port")
        if os.path.exists(port_file):
            os.remove(port_file)
        started = time.perf_counter()
        proc = common.start(
            [self.ja, "serve", "--addr", "127.0.0.1:0", "--port-file", port_file, "--workers",
             str(WORKERS), "--eval-workers", "1", "--cache-bytes", str(CACHE_BYTES)], self.stderr)
        deadline = started + 30
        addr = None
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                raise BenchError(f"ja serve exited at start: {common.finish(proc).returncode}")
            if addr is None:
                try:
                    with open(port_file, encoding="utf-8") as f:
                        text = f.read()
                    if text.endswith("\n"):
                        host, port = text.strip().rsplit(":", 1)
                        addr = (host, int(port))
                except FileNotFoundError:
                    pass
            if addr is not None:
                try:
                    if http(addr, "GET", "/v1/health").status == 200:
                        return proc, addr, time.perf_counter() - started
                except OSError:
                    pass
            time.sleep(0.0005)
        common.kill(proc)
        raise BenchError("ja serve did not become healthy within 30 s")

    def one_pass(self):
        proc, addr, setup = self.start_daemon()
        drained = False
        try:
            responses = [None] * len(self.schedule)
            cursor = iter(range(len(self.schedule)))
            lock = threading.Lock()

            def client():
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    try:
                        r = http(addr, "POST", "/v1/eval", self.schedule[index][2])
                    except OSError:
                        # Counted as a failed request (status 0).
                        r = Response()
                        r.status, r.headers, r.body = 0, {}, b""
                        r.started = r.ended = time.perf_counter()
                        r.connect = r.ttfb = r.read = 0.0
                    r.index = index
                    responses[index] = r

            threads = [threading.Thread(target=client) for _ in range(WORKERS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            health = json.loads(http(addr, "GET", "/v1/health").body)
            http(addr, "POST", "/v1/shutdown")
            drained = True
        finally:
            if not drained:
                common.kill(proc)
        daemon = common.finish(proc)
        if daemon.returncode != 0:
            raise BenchError(f"ja serve exited {daemon.returncode} after drain")
        wall = max(r.ended for r in responses) - min(r.started for r in responses)
        return {"setup": setup, "wall": wall, "responses": responses, "health": health,
                "maxrss": daemon.maxrss_kib}

    # -- verification ------------------------------------------------------
    def verify(self, responses, first_bodies, stream_digests):
        """Counts wrong responses: a non-200, a repeat whose bytes differ
        from the first response to its canonical request, or a stream whose
        records do not hash to its manifest's entries_digest."""
        failed = rejected = 0
        for r in responses:
            cls, _, _, key = self.schedule[r.index]
            if r.status != 200:
                failed += 1
                rejected += r.status == 503
                continue
            if cls == "stream":
                if r.body not in stream_digests:
                    stream_digests[r.body] = self.stream_ok(r.body)
                failed += not stream_digests[r.body]
            elif first_bodies.setdefault(key, r.body) != r.body:
                failed += 1
        return failed, rejected

    @staticmethod
    def stream_ok(body):
        lines = body.split(b"\n")
        if len(lines) < 2 or lines[-1] != b"":
            return False
        try:
            manifest = json.loads(lines[-2])
        except ValueError:
            return False
        digest = common.FNV_OFFSET
        for line in lines[:-2]:
            digest = common.fnv1a_128(line + b"\n", digest)
        return (isinstance(manifest, dict) and manifest.get("kind") == "batch_manifest"
                and manifest.get("scenarios") == len(lines) - 2
                and manifest.get("entries_digest") == f"{digest:032x}")

    def check_misses(self, last_pass, rng):
        """A seeded sample of the last pass's misses, re-run offline with
        `ja batch`."""
        misses = [r for r in last_pass["responses"] if r.headers.get("x-ja-cache") == "miss"]
        failed = 0
        for r in rng.sample(misses, min(MISS_CHECKS, len(misses))):
            conf = os.path.join(self.work, "miss.conf")
            with open(conf, "w", encoding="utf-8") as f:
                f.write(grids.conf_text(self.schedule[r.index][1]))
            out = os.path.join(self.work, "miss.json")
            command = common.run_timed([self.ja, "batch", "--config", conf, "--workers",
                                        str(WORKERS), "--out", out], self.stderr)
            if command.returncode != 0 or not os.path.exists(out):
                failed += 1
                continue
            with open(out, "rb") as f:
                failed += f.read() != r.body
            os.remove(out)
        return failed

    def delivered(self, responses):
        """(samples, entries) the responses carried."""
        samples = entries = 0
        for r in responses:
            if r.status != 200:
                continue
            if self.schedule[r.index][0] == "stream":
                records = [json.loads(l) for l in r.body.split(b"\n")[:-2]]
            else:
                records = json.loads(r.body)["entries"]
            samples += sum(e.get("samples", 0) for e in records)
            entries += len(records)
        return samples, entries

    # -- the workload ------------------------------------------------------
    def run_passes(self, seconds, min_passes):
        """Runs the warm-up pass and then passes until `seconds` are spent.
        Each pass is verified as it ends and only the last keeps its
        response bodies (for the miss checks and the trace)."""
        self.generate()
        self.one_pass()  # warm-up, discarded
        passes = []
        first_bodies, stream_digests = {}, {}
        failed = rejected = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(passes) < min_passes:
            p = self.one_pass()
            f, r = self.verify(p["responses"], first_bodies, stream_digests)
            failed += f
            rejected += r
            if not passes:
                self.delivered_per_pass = self.delivered(p["responses"])
            if passes:
                for response in passes[-1]["responses"]:
                    response.body = None
            passes.append(p)
        failed += self.check_misses(passes[-1], random.Random(self.rng.random()))
        return passes, failed, rejected

    def measure(self, seconds):
        passes, failed, _ = self.run_passes(seconds, 3)
        latencies = [r.ended - r.started for p in passes for r in p["responses"]]
        wall = common.median([p["wall"] for p in passes])
        samples, entries = self.delivered_per_pass
        metrics = {
            "wall_s": metric(wall, "s"),
            "samples_per_s": metric(samples / wall, "1/s"),
            "evals_per_s": metric(entries / wall, "1/s"),
            "req_p50_ms": metric(common.median(latencies) * 1e3, "ms"),
            "peak_rss_mib": metric(common.median([p["maxrss"] for p in passes]) / 1024, "MiB"),
            "setup_s": metric(common.median([p["setup"] for p in passes]), "s"),
        }
        counters = {
            "passes": len(passes),
            "requests_per_pass": len(self.schedule),
            "delivered_samples": samples,
            "delivered_entries": entries,
            "response_bytes": sum(len(r.body) for r in passes[-1]["responses"]),
            "cache_hits_median": common.median([p["health"]["cache"]["hits"] for p in passes]),
        }
        return len(latencies), failed, metrics, counters

    def trace(self, tracer):
        passes, failed, rejected = self.run_passes(0, 3)
        responses = [r for p in passes for r in p["responses"]]
        by_class = {"hit": [], "miss": [], "stream": []}
        for r in responses:
            cls = "stream" if self.schedule[r.index][0] == "stream" else r.headers.get("x-ja-cache")
            if cls in by_class:
                by_class[cls].append(r)
        probes = {}
        for cls, rs in by_class.items():
            if rs:
                latency = common.median([r.ended - r.started for r in rs])
                probes[f"serve.{cls}_p50_ms"] = latency * 1e3
                for phase in ("connect", "ttfb", "read"):
                    probes[f"transport.{phase}_ms.{cls}"] = common.median(
                        [getattr(r, phase) for r in rs]) * 1e3
        latencies = [r.ended - r.started for r in responses]
        cache = passes[-1]["health"]["cache"]
        probes.update({
            "serve.rejected_503": rejected,
            "serve.req_per_s": len(self.schedule) / common.median([p["wall"] for p in passes]),
            "serve.req_p99_ms": common.percentile(latencies, 0.99) * 1e3,
            "cache.hits": cache["hits"],
            "cache.misses": cache["misses"],
            "cache.evictions": cache["evictions"],
            "cache.bytes": cache["bytes"],
            "cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        })
        sidecar = tracer(self.trace_spec(passes[-1]["responses"]))
        ok = failed == 0 and not sidecar["mismatches"]
        return ok, layers.from_sidecar(sidecar, probes), sidecar

    def trace_spec(self, responses):
        """Every evaluated grid of the last pass (first occurrence of each
        unique request and of each stream grid) plus the request schedule
        for the parse/hash/cache replay."""
        seen = set()
        specs = []
        for r in responses:
            cls, g, _, key = self.schedule[r.index]
            if key in seen or cls == "repeat":
                continue
            seen.add(key)
            expected = os.path.join(self.work, f"served-{len(specs)}.body")
            with open(expected, "wb") as f:
                f.write(r.body)
            if cls == "stream":
                specs.append(dict(g, render="streamed", expected_stream=expected))
            else:
                specs.append(dict(g, render="stored", expected=expected))
        requests = [{"body": body.decode(), "class": cls,
                     "response_bytes": len(responses[i].body)}
                    for i, (cls, _, body, _) in enumerate(self.schedule)]
        return {"kind": "serve", "workers": 1, "grids": specs,
                "serve": {"cache_bytes": CACHE_BYTES, "requests": requests}}
