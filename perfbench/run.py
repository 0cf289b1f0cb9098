#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload offline-audit|routed-sessions|direct-churn
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the repository and the benchmark
binary (perfbench/CMakeLists.txt) into .bench_build, boots the servers a
served workload needs from the scenario header alone, lets epi_perfbench
generate the traffic, drive it and check every output, and prints one JSON
line: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. perfbench/README.md explains every number.
"""
import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RUN_DIR = os.path.join(".bench_run", str(os.getpid()))  # relative: short socket paths
WORKLOADS = ("offline-audit", "routed-sessions", "direct-churn")
SETUP_BOOTS = 3  # setup_s is the median of this many boots per run
BUILD_TIMEOUT_S = 840
BOOT_TIMEOUT_S = 60

# Service threads per audit_server, by workload (routed: 2 workers x 1).
SERVICE_THREADS = {"routed-sessions": 1, "direct-churn": 2}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message, code=1):
    log(message)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; returns binary paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no repository sources next to perfbench/ (need CMakeLists.txt and src/)", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target",
         "epi_perfbench", "audit_server", "shard_router"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    return {
        "bench": os.path.join(BUILD, "epi_perfbench"),
        "server": os.path.join(BUILD, "epi", "examples", "audit_server"),
        "router": os.path.join(BUILD, "epi", "examples", "shard_router"),
    }


class Fleet:
    """Server processes of one run; stopped and reaped on exit."""

    def __init__(self, binaries, header_path):
        self.binaries = binaries
        self.header_path = header_path
        self.procs = []
        self.count = 0

    def _spawn(self, argv, name):
        out = open(os.path.join(RUN_DIR, name + ".log"), "w")
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
        out.close()
        self.procs.append(proc)
        return proc

    def server(self, threads):
        self.count += 1
        addr = f"unix:{RUN_DIR}/s{self.count}.sock"
        proc = self._spawn([self.binaries["server"], "--listen", addr, "--scenario",
                            self.header_path, "--workers", str(threads)], f"s{self.count}")
        return proc, addr

    def router(self, workers):
        self.count += 1
        addr = f"unix:{RUN_DIR}/r{self.count}.sock"
        argv = [self.binaries["router"], "--listen", addr]
        for worker in workers:
            argv += ["--worker", worker]
        return self._spawn(argv, f"r{self.count}"), addr

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []


def dial(addr):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(addr[len("unix:"):])  # relative to ROOT, the working directory
    return sock


def wait_ready(addr, proc):
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"{addr} exited with {proc.returncode} while booting")
        try:
            dial(addr).close()
            return
        except OSError:
            time.sleep(0.0001)
    raise RuntimeError(f"{addr} not accepting after {BOOT_TIMEOUT_S} s")


def call(addr, request):
    """One request/response on a fresh connection."""
    with dial(addr) as sock:
        sock.settimeout(30)
        sock.sendall((json.dumps(request) + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError(f"{addr} closed the connection")
            data += chunk
    return json.loads(data.decode().split("\n")[0])


def probe(addr, audit_query):
    response = call(addr, {"op": "audit", "id": 1, "user": "perfbench.setup",
                           "query": audit_query})
    if not response.get("ok"):
        raise RuntimeError(f"setup probe to {addr} failed: {response}")


def boot(fleet, workload, audit_query, extras):
    """Boots the workload's servers; returns (seconds until every worker has
    answered its first audit, topology). `extras` adds the traced run's
    comparison servers (booted after the timed part)."""
    threads = SERVICE_THREADS[workload]
    start = time.monotonic()
    topo = {"workers": [], "procs": []}
    count = 2 if workload == "routed-sessions" else 1
    spawned = [fleet.server(threads) for _ in range(count)]
    for proc, addr in spawned:
        wait_ready(addr, proc)
    for proc, addr in spawned:
        probe(addr, audit_query)
        topo["workers"].append(addr)
        topo["procs"].append(proc)
    if workload == "routed-sessions":
        proc, addr = fleet.router(topo["workers"])
        wait_ready(addr, proc)
        probe(addr, audit_query)
        topo["procs"].append(proc)
        topo["front"] = addr
    else:
        topo["front"] = topo["workers"][0]
    setup_s = time.monotonic() - start
    if extras:
        proc, addr = fleet.server(threads)
        wait_ready(addr, proc)
        if workload == "routed-sessions":
            topo["routed"], topo["direct"] = topo["front"], addr
        else:
            rproc, raddr = fleet.router([addr])
            wait_ready(raddr, rproc)
            topo["routed"], topo["direct"] = raddr, topo["front"]
    return setup_s, topo


def proc_status_kib(pid, field):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def worker_metrics(addr):
    response = call(addr, {"op": "metrics", "id": 1})
    if not response.get("ok"):
        raise RuntimeError(f"metrics from {addr} failed: {response}")
    return json.loads(response["metrics_json"])["metrics"]


def histogram_quantile(hist, q):
    """Quantile of a log2-bucketed histogram (bucket i holds samples of bit
    width i, i.e. [2^(i-1), 2^i)), interpolated linearly inside the bucket."""
    total = sum(n for _, n in hist["buckets"])
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for index, n in sorted(hist["buckets"]):
        if seen + n >= target:
            lo = 0 if index == 0 else 2 ** (index - 1)
            hi = 1 if index == 0 else 2 ** index
            return lo + (hi - lo) * (target - seen) / n
        seen += n
    return float(hist["max"])


def merge_metrics(snapshots):
    counters, hists = {}, {}
    for snap in snapshots:
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, hist in snap["histograms"].items():
            merged = hists.setdefault(name, {"buckets": {}, "max": 0})
            for index, n in hist["buckets"]:
                merged["buckets"][index] = merged["buckets"].get(index, 0) + n
            merged["max"] = max(merged["max"], hist["max"])
    for hist in hists.values():
        hist["buckets"] = list(hist["buckets"].items())
    return counters, hists


def service_layer_metrics(before, after, rss_before, rss_after):
    """service.* per-layer numbers from the workers' own counters."""
    counters, hists = merge_metrics(after)
    base, _ = merge_metrics(before)

    def diff(name):
        return counters.get(name, 0) - base.get(name, 0)

    out = {}
    for name, hist_name in (("queue_wait_us", "service.request.queue_wait_ns"),
                            ("process_us", "service.request.process_ns")):
        hist = hists.get(hist_name, {"buckets": [], "max": 0})
        out[f"service.{name}.p50"] = histogram_quantile(hist, 0.5) / 1000
        out[f"service.{name}.p95"] = histogram_quantile(hist, 0.95) / 1000
    hits, misses = diff("service.cache.hits"), diff("service.cache.misses")
    out["service.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    tiers = {t: diff(f"service.incremental.{t}") for t in ("pinned", "unchanged", "evaluated")}
    total = sum(tiers.values())
    for tier, n in tiers.items():
        out[f"service.incremental.{tier}_ratio"] = n / total if total else 0.0
    sessions = diff("service.sessions.created")
    out["service.session_kib"] = (rss_after - rss_before) / sessions if sessions else 0.0
    return out


def run_native(argv, timeout):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT, timeout=timeout)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{os.path.basename(argv[0])} {argv[1]} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_offline(binaries, args):
    return run_native([binaries["bench"], "offline", "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--digest", os.path.join(BENCH_DIR, "offline_digest.txt")],
                      timeout=120)


def run_served(binaries, args):
    header_path = os.path.join(RUN_DIR, "scenario.header")
    header = subprocess.run([binaries["bench"], "header", "--workload", args.workload,
                             "--seed", str(args.seed)], check=True,
                            stdout=subprocess.PIPE, cwd=ROOT, timeout=60).stdout.decode()
    with open(header_path, "w") as out:
        out.write(header)
    audit_query = [l for l in header.splitlines() if l.startswith("audit ")][-1][6:]

    fleet = Fleet(binaries, header_path)
    try:
        setups = []
        boots = 1 if args.trace else SETUP_BOOTS
        for n in range(boots):
            setup_s, topo = boot(fleet, args.workload, audit_query, extras=args.trace)
            setups.append(setup_s)
            if n + 1 < boots:
                fleet.stop()
        pids = [p.pid for p in topo["procs"]]
        argv = [binaries["bench"], "serve", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--front", topo["front"],
                "--pids", ",".join(str(pid) for pid in pids)]
        if args.trace:
            argv += ["--routed", topo["routed"], "--direct", topo["direct"]]
            before = [worker_metrics(w) for w in topo["workers"]]
            rss_before = sum(proc_status_kib(p.pid, "VmRSS") for p in topo["procs"][:len(topo["workers"])])
        result = run_native(argv, timeout=150)
        for proc in topo["procs"]:
            if proc.poll() is not None:
                raise RuntimeError(f"a server exited with {proc.returncode} during the run")
        if args.trace:
            after = [worker_metrics(w) for w in topo["workers"]]
            rss_after = sum(proc_status_kib(p.pid, "VmRSS") for p in topo["procs"][:len(topo["workers"])])
            result["metrics"].update(service_layer_metrics(before, after, rss_before, rss_after))
        else:
            result["metrics"]["setup_s"] = statistics.median(setups)
        return result
    finally:
        fleet.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.seconds < 1:
        fail("--seconds must be >= 1", 2)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
    except OSError as error:
        fail(f"cannot read BENCHMARK.json: {error}", 2)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binaries = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        fail(f"build failed: {error}")

    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    try:
        if args.workload == "offline-audit":
            result = run_offline(binaries, args)
        else:
            result = run_served(binaries, args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as error:
        fail(f"{args.workload}: {error}")
    finally:
        shutil.rmtree(os.path.join(ROOT, RUN_DIR), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass

    if args.trace and args.workload == "offline-audit":
        # No worker serves the offline workload: its service layer is idle.
        result["metrics"].update(service_layer_metrics([], [], 0, 0))
    measured = result["metrics"]
    missing = [m["name"] for m in declared if measured.get(m["name"]) is None]
    if missing:
        fail(f"not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }), flush=True)


if __name__ == "__main__":
    main()
