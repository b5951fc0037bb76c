#!/usr/bin/env python3
"""loopcomm-e2e: end-to-end benchmark of the shipped `loopcomm` binary.

Run from the root of a loopcomm checkout:

    python3 loopcomm-e2e/run.py --workload kernels-inram --seed 1 --seconds 30 --trace 0

It builds `loopcomm` with `cargo build --release` (default features) and
the in-process helper in this directory, sets up seeded inputs, computes
reference reports, then drives the binary for `--seconds`. With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` the
per-layer metrics of a separate traced in-process run. `--workload all`
runs every workload in turn and prints one table. README.md documents
every workload and metric.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Human-readable lines come before it; cargo output goes to
stderr. The exit code is 0 only if every output matched its reference.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("kernels-inram", "synth-mmap", "serve-stream")
KERNELS = ("radix", "fft", "lu_cb", "ocean_cp")
# synth-mmap input: 2M events over 131072 8-byte words (1 MiB, 2.5x the
# fused engine's 416 KiB memo scratch); about 40 % of events raise a RAW.
SYNTH_EVENTS = 2_000_000
SYNTH_WORKING_SET = 131_072
# Set-ups per run: setup_s is their median, and their inputs must hash
# the same, which checks that a seed fixes the input bytes.
SETUP_REPS = 3
# Longest wait for one server line, one round or one helper step.
STEP_TIMEOUT_S = 60.0

# End-to-end metric -> unit. Each reports the median of the run's samples
# (rounds; set-ups for setup_s). Neighbour load on a small shared host
# changes the speed of every round, and the run's fastest round depends on
# whether the run caught a rare quiet moment; the median round varies less
# from run to run (README.md, "Noise").
END_TO_END = {
    "events_per_s": "events/s",
    "cpu_s_per_mev": "s/Mevent",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer time metric (in s) -> the span whose median self time it is.
LAYER_SPANS = {
    "trace.load_s": "trace.load",
    "trace.stats_s": "trace.stats",
    "trace.v3_open_s": "trace.v3_open",
    "trace.v3_decode_s": "trace.v3_decode",
    "sigmem.alloc_s": "sigmem.alloc",
    "profiler.replay_s": "profiler.replay",
    "profiler.report_s": "profiler.report",
    "cachesim.on_block_s": "cachesim.on_block",
    "cachesim.report_s": "cachesim.report",
    "serve.session_s": "serve.session",
    "serve.drain_s": "serve.drain",
}
LAYER_COUNTS = {
    "trace.events": "count",
    "trace.file_bytes": "bytes",
    "sigmem.eq2_bytes": "bytes",
    "profiler.replayed_events": "count",
    "profiler.batches": "count",
    "profiler.events_folded": "count",
    "profiler.dependencies": "count",
    "profiler.memory_bytes": "bytes",
    "cachesim.accesses": "count",
    "cachesim.invalidations": "count",
    "cachesim.c2c_fills": "count",
    "cachesim.writebacks": "count",
    "cachesim.false_sharing_events": "count",
    "serve.frames_received": "count",
    "serve.frames_analyzed": "count",
    "serve.frames_lost": "count",
    "serve.frames_spilled": "count",
    "serve.bytes_received": "bytes",
    "serve.tenant_memory_bytes": "bytes",
}


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build():
    """Build the shipped binary and the helper; return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src/bin/loopcomm.rs").is_file():
        raise BenchError("run from the root of a loopcomm checkout (no Cargo.toml / src/bin/loopcomm.rs)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    os.environ["CARGO_TARGET_DIR"] = str(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "loopcomm", target / "release" / "loopcomm-e2e"


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance(binary):
    """Which code and build every number below comes from."""
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    tree = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "shims"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        tree.update(str(p.relative_to(ROOT)).encode() + b"\0" + sha256_file(p).encode())
    meta = subprocess.run(
        ["cargo", "metadata", "--no-deps", "--format-version", "1", "--offline"],
        cwd=ROOT, capture_output=True, text=True,
    )
    features = None
    if meta.returncode == 0:
        pkg = next(p for p in json.loads(meta.stdout)["packages"] if p["name"] == "loopcomm")
        enabled, todo = set(), ["default"]
        while todo:
            f = todo.pop()
            if f in enabled or f not in pkg["features"]:
                continue
            enabled.add(f)
            todo += pkg["features"][f]
        features = sorted(enabled)
    return {
        "commit": commit,
        "source_sha256": tree.hexdigest(),
        "features": features,
        "binary_sha256": sha256_file(binary),
        "cpus": os.cpu_count(),
    }


# -------------------------------------------------------------- processes


class Measured:
    """Wall time, CPU time and peak RSS of one finished child process."""

    def __init__(self, code, wall, cpu, rss_mb):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb


def spawn(cmd, stdout_fd=None, stderr_path=None):
    actions = []
    if stdout_fd is None:
        actions.append((os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0))
    else:
        actions.append((os.POSIX_SPAWN_DUP2, stdout_fd, 1))
    if stderr_path is not None:
        actions.append((os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
    return os.posix_spawn(cmd[0], [str(c) for c in cmd], os.environ, file_actions=actions)


def reap(pid):
    """Wait for `pid`; return (exit code or -signal, CPU seconds, peak RSS MB)."""
    _, status, ru = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    return code, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_measured(cmd, stderr_path):
    t0 = time.perf_counter()
    pid = spawn([str(c) for c in cmd], stderr_path=stderr_path)
    code, cpu, rss = reap(pid)
    return Measured(code, time.perf_counter() - t0, cpu, rss)


def run_checked(cmd, capture=False):
    r = subprocess.run([str(c) for c in cmd], cwd=ROOT, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                       text=True, timeout=120)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(str(c) for c in cmd)} exited with {r.returncode}")
    return r.stdout


class Lines:
    """Line reader over a raw pipe fd, with a timeout per line. Buffered
    file objects would hide lines already read from `select`."""

    def __init__(self, fd):
        self.fd, self.buf = fd, b""

    def readline(self):
        while b"\n" not in self.buf:
            ready, _, _ = select.select([self.fd], [], [], STEP_TIMEOUT_S)
            if not ready:
                raise BenchError("timed out waiting for a child process")
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                line, self.buf = self.buf, b""
                return line.decode().strip()
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode().strip()


def same_bytes(a, b):
    try:
        return Path(a).read_bytes() == Path(b).read_bytes()
    except OSError:
        return False


# ------------------------------------------------------------ the benchmark


class Bench:
    def __init__(self, workload, seed, seconds, loopcomm, helper, work):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.loopcomm, self.helper, self.work = loopcomm, helper, work
        self.refs = work / "refs"
        self.out = work / "out"
        self.out.mkdir(parents=True)
        self.attempted = 0
        # (input, wall s, CPU s or None) of every invocation or tenant.
        self.invocations = []
        self.failures = []
        self.server_starts = []
        self.client = None

    def fail(self, what):
        self.failures.append(what)
        log(f"FAILED: {what}")

    # ---- set-up

    def setup(self):
        """Generate the inputs SETUP_REPS times; keep the last copy."""
        times, digests, prev = [], [], None
        for rep in range(SETUP_REPS):
            d = self.work / f"inputs{rep}"
            d.mkdir()
            t0 = time.perf_counter()
            if self.workload == "synth-mmap":
                run_checked([self.loopcomm, "synth", d / "synth.v3", "--v3", "--threads", 8, "--seed", self.seed,
                             "--events", SYNTH_EVENTS, "--working-set", SYNTH_WORKING_SET])
            else:
                run_checked([self.helper, "gen-kernels", "--seed", self.seed, "--out", d])
            times.append(time.perf_counter() - t0)
            digests.append({p.name: sha256_file(p) for p in sorted(d.iterdir())})
            if prev is not None:
                shutil.rmtree(prev)
            prev = d
        self.inputs = prev
        self.setup_times = times
        self.input_sha256 = digests[0]
        self.attempted += 1
        if any(d != digests[0] for d in digests):
            self.fail(f"set-up is not deterministic: input hashes differ across {SETUP_REPS} set-ups: {digests}")
        t0 = time.perf_counter()
        events = run_checked([self.helper, "reference", "--workload", self.workload, "--seed", self.seed,
                              "--out", self.refs, "--events", SYNTH_EVENTS, "--working-set", SYNTH_WORKING_SET],
                             capture=True)
        self.reference_s = time.perf_counter() - t0
        self.events = json.loads(events.strip().splitlines()[-1])
        if self.workload == "serve-stream":
            self.client = subprocess.Popen(
                [str(self.helper), "serve-client", "--inputs", str(self.inputs), "--refs", str(self.refs)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            self.client_lines = Lines(self.client.stdout.fileno())
            if self.client_lines.readline() != "ready":
                raise BenchError("serve client did not start")

    # ---- one untraced round

    def round(self, tag):
        """Run the workload once through the binary. Returns (events,
        wall seconds, CPU seconds, peak RSS MB) for the round."""
        if self.workload == "kernels-inram":
            walls, cpus, rss = [], [], []
            for k in KERNELS:
                report, coh = self.out / f"{k}.report", self.out / f"{k}.coherence"
                for p in (report, coh):
                    p.unlink(missing_ok=True)
                m = run_measured([self.loopcomm, "analyze", self.inputs / f"{k}.lctrace", "--coherence",
                                  "--report-out", report, "--coherence-out", coh], self.work / "stderr.txt")
                self.attempted += 1
                if m.code != 0:
                    self.fail(f"analyze {k} exited with {m.code}: {self.stderr_tail()}")
                elif not same_bytes(report, self.refs / f"{k}.report"):
                    self.fail(f"analyze {k}: --report-out differs from the reference")
                elif not same_bytes(coh, self.refs / f"{k}.coherence"):
                    self.fail(f"analyze {k}: --coherence-out differs from the reference")
                self.invocations.append((k, m.wall, m.cpu))
                walls.append(m.wall)
                cpus.append(m.cpu)
                rss.append(m.rss_mb)
            return sum(self.events.values()), sum(walls), sum(cpus), max(rss)
        if self.workload == "synth-mmap":
            report = self.out / "synth.report"
            report.unlink(missing_ok=True)
            m = run_measured([self.loopcomm, "analyze", self.inputs / "synth.v3", "--mmap", "--report-out", report],
                             self.work / "stderr.txt")
            self.attempted += 1
            if m.code != 0:
                self.fail(f"analyze --mmap exited with {m.code}: {self.stderr_tail()}")
            elif not same_bytes(report, self.refs / "synth.report"):
                self.fail("analyze --mmap: --report-out differs from the reference")
            self.invocations.append(("synth", m.wall, m.cpu))
            return self.events["synth"], m.wall, m.cpu, m.rss_mb
        return self.serve_round(tag)

    def stderr_tail(self):
        return (self.work / "stderr.txt").read_text(errors="replace")[-500:]

    def serve_round(self, tag):
        """One `loopcomm serve` process; every kernel streamed as its own
        tenant, one connection at a time; then the server is stopped."""
        r, w = os.pipe()
        t0 = time.perf_counter()
        pid = spawn([str(self.loopcomm), "serve", "--threads", "8", "--listen", "127.0.0.1:0",
                     "--http", "127.0.0.1:0"], stdout_fd=w, stderr_path=self.work / "server-stderr.txt")
        os.close(w)
        try:
            lines = Lines(r)
            ingest = http = None
            while ingest is None or http is None:
                line = lines.readline()
                if not line:
                    raise BenchError("loopcomm serve exited before listening")
                if line.startswith("ingest :"):
                    ingest = line.split()[-1]
                elif line.startswith("http   :"):
                    http = line.split()[2].removeprefix("http://").rstrip("/")
            self.server_starts.append(time.perf_counter() - t0)
            self.client.stdin.write(f"round {ingest} {http} {tag}\n")
            self.client.stdin.flush()
            tenants = json.loads(self.client_lines.readline())["tenants"]
            with open(f"/proc/{pid}/status") as f:
                hwm_kb = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
            if os.waitpid(pid, os.WNOHANG) != (0, 0):
                pid = None
                raise BenchError("loopcomm serve died during the round")
        finally:
            os.close(r)
            if pid is not None:
                os.kill(pid, signal.SIGTERM)
                _, cpu, _ = reap(pid)
        for t in tenants:
            self.invocations.append((t["kernel"], t["secs"], None))
            self.attempted += 1
            if not t["ok"]:
                self.fail(f"serve tenant {t['kernel']}-{tag}: report differs, or frames lost or spilled")
        events = sum(t["events"] for t in tenants)
        return events, sum(t["secs"] for t in tenants), cpu, hwm_kb / 1024.0

    def rounds(self, seconds):
        """Repeat rounds until `seconds` have passed (at least two)."""
        out = []
        t0 = time.perf_counter()
        while len(out) < 2 or time.perf_counter() - t0 < seconds:
            out.append(self.round(len(out)))
        return out

    def close(self):
        if self.client is not None:
            self.client.stdin.close()
            try:
                self.client.wait(timeout=STEP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.client.kill()
                self.client.wait()
            self.client.stdout.close()
            self.client = None

    # ---- the two kinds of run

    def end_to_end(self):
        rs = self.rounds(self.seconds)
        samples = {
            "events_per_s": [ev / wall for ev, wall, _, _ in rs],
            "cpu_s_per_mev": [cpu / (ev / 1e6) for ev, _, cpu, _ in rs],
            "peak_rss_mb": [rss for _, _, _, rss in rs],
            "setup_s": [t + (statistics.median(self.server_starts) if self.server_starts else 0.0)
                        for t in self.setup_times],
        }
        return samples, {}

    def traced(self):
        """Untraced rounds for half the time, the traced in-process run for
        the other half; per-layer metrics from both."""
        rs = self.rounds(self.seconds / 2)
        spans = self.work / "spans.jsonl"
        out = run_checked([self.helper, "traced", "--workload", self.workload, "--inputs", self.inputs,
                           "--refs", self.refs, "--seconds", self.seconds / 2, "--spans", spans], capture=True)
        traced = json.loads(out.strip().splitlines()[-1])
        self.attempted += traced["attempted"]
        for _ in range(traced["failed"]):
            self.fail("traced in-process run: an output differs from the reference (see stderr)")
        keep = ROOT / ".bench_work" / f"spans-{self.workload}-seed{self.seed}.jsonl"
        shutil.copyfile(spans, keep)

        selfs, busy, counts = traced["self_s"], traced["busy_s"], traced["counts"]
        # A layer that runs on another thread (the server's drain) reports
        # that thread's on-CPU time instead of a span.
        m = {name: (selfs.get(span, busy.get(span, 0.0)), "s") for name, span in LAYER_SPANS.items()}
        for name, unit in LAYER_COUNTS.items():
            m[name] = (counts.get(name, 0), unit)
        events = counts.get("trace.events", 0)
        m["profiler.fold_ratio"] = (counts.get("profiler.events_folded", 0) / events if events else 0.0, "ratio")
        wall = statistics.median(wall for _, wall, _, _ in rs)
        m["cli.wall_s"] = (wall, "s")
        m["cli.traced_total_s"] = (traced["traced_total_s"], "s")
        m["cli.unattributed_s"] = (wall - sum(selfs.values()), "s")
        m["cli.peak_rss_mb"] = (statistics.median(rss for _, _, _, rss in rs), "MB")
        # The layer self times reported as metrics plus the unattributed
        # time must add up to the untraced wall time; a span that no
        # metric reports would break the sum.
        total = sum(m[name][0] for name, span in LAYER_SPANS.items() if span in selfs)
        total += m["cli.unattributed_s"][0]
        self.attempted += 1
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            unreported = sorted(set(selfs) - set(LAYER_SPANS.values()))
            self.fail(f"layer self times + unattributed = {total} s, wall = {wall} s; unreported spans {unreported}")
        return {}, m


# ---------------------------------------------------------------- reporting


def summarize(samples):
    out = {}
    for name, vals in samples.items():
        q = statistics.quantiles(vals, n=4) if len(vals) >= 2 else [vals[0]] * 3
        out[name] = {"median": statistics.median(vals), "q1": q[0], "q3": q[2], "n": len(vals)}
    return out


def run_one(workload, seed, seconds, trace, loopcomm, helper, prov):
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, seconds, loopcomm, helper, work)
    try:
        bench.setup()
        samples, layers = bench.traced() if trace else bench.end_to_end()
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    stats = summarize(samples)
    metrics = {name: {"value": s["median"], "unit": END_TO_END[name]} for name, s in stats.items()}
    metrics.update({name: {"value": v, "unit": u} for name, (v, u) in layers.items()})
    failed = len(bench.failures)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": prov, "input_sha256": bench.input_sha256,
        "setup_runs_s": bench.setup_times, "reference_s": bench.reference_s,
        "events": bench.events, "samples": samples, "summary": stats, "invocations": bench.invocations,
        "failed_ratio": failed / bench.attempted, "failures": bench.failures,
        "result": {"correct": failed == 0, "attempted": bench.attempted, "failed": failed, "metrics": metrics},
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(rec):
    prov = rec["provenance"]
    print(f"== loopcomm-e2e {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} trace={rec['trace']}")
    print(f"   commit {prov['commit'] or 'n/a (not a git checkout)'}  source {prov['source_sha256'][:16]}  "
          f"features {','.join(prov['features'] or ['?'])}  binary {prov['binary_sha256'][:16]}  cpus {prov['cpus']}")
    for name, digest in rec["input_sha256"].items():
        print(f"   input {name} sha256 {digest}")
    for name, s in rec["summary"].items():
        print(f"   {name:<16} {s['median']:>14.6g} {END_TO_END[name]:<9} (median)  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    res = rec["result"]
    print(f"   {'failed_ratio':<16} {rec['failed_ratio']:>14.6g} {'ratio':<9} "
          f"({res['failed']} of {res['attempted']} attempted)")
    if rec["trace"]:
        for name, m in res["metrics"].items():
            print(f"   {name:<30} {m['value']:>16.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Unwind on SIGTERM too, so the `finally` blocks stop every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        loopcomm, helper = build()
        prov = provenance(loopcomm)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_one(w, args.seed, args.seconds, args.trace, loopcomm, helper, prov) for w in workloads]
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"loopcomm-e2e: {e}")
        sys.exit(2)
    for rec in records:
        print_record(rec)
    results = [rec["result"] for rec in records]
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {f"{rec['workload']}.{k}": v for rec in records
                                      for k, v in rec["result"]["metrics"].items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
