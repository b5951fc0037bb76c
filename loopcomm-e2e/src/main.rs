//! In-process half of the `loopcomm-e2e` benchmark; `run.py` drives it.
//!
//! Subcommands (every option is `--key value`):
//!
//! * `gen-kernels --seed S --out DIR` records radix, fft, lu_cb and
//!   ocean_cp and writes each as a v1 trace `DIR/<kernel>.lctrace`.
//! * `reference --workload W --seed S --out DIR [--events N
//!   --working-set N]` computes the expected canonical reports through the
//!   sequential differential baseline, from inputs regenerated in memory
//!   (never from the files under test).
//! * `serve-client --inputs DIR --refs DIR` loads the kernel traces, then
//!   reads `round <ingest-addr> <http-addr> <tag>` lines on stdin and
//!   streams every trace as its own tenant, one connection at a time.
//! * `traced --workload W --inputs DIR --refs DIR --seconds X --spans F`
//!   repeats the workload in-process, calling each layer's public
//!   functions in the order the CLI does, with a span around each call.

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use loopcomm::lc_cachesim::{canonical_coherence_report, CoherenceBackend, CoherenceConfig};
use loopcomm::lc_profiler::{
    analyze_trace_asymmetric, canonical_report, AccumConfig, DetectorKind, IncrementalAnalyzer,
    ParReplayConfig, ProfilerConfig,
};
use loopcomm::lc_sigmem::SignatureConfig;
use loopcomm::lc_trace::{
    load_trace, save_trace, stream_trace, synth_event, AccessEvent, MmapTrace, RecordingSink,
    StampedEvent, Trace, TraceCtx, DEFAULT_FRAME_EVENTS,
};
use loopcomm::lc_workloads::{by_name, InputSize, RunConfig};
use loopcomm::serve::{ServeConfig, Server};

/// The recorded kernels, in the order every round visits them.
const KERNELS: [&str; 4] = ["radix", "fft", "lu_cb", "ocean_cp"];
/// Worker threads each kernel is recorded with (the CLI default).
const THREADS: usize = 8;
const SIZE: InputSize = InputSize::SimSmall;
/// Events taken from each thread's stream per turn of the merge.
const MERGE_QUANTUM: usize = 256;
/// Signature slots: the CLI's `--slots` default.
const SLOTS: usize = 1 << 20;
/// How long a quiescence or report wait may take before the run fails.
const QUIET_DEADLINE: Duration = Duration::from_secs(60);

type Opts = BTreeMap<String, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        fail("usage: loopcomm-e2e <gen-kernels|reference|serve-client|traced> [--key value]...")
    };
    let mut opts = Opts::new();
    for pair in args[1..].chunks(2) {
        let [k, v] = pair else {
            fail(&format!("option `{}` has no value", pair[0]))
        };
        let Some(k) = k.strip_prefix("--") else {
            fail(&format!("expected --key, got `{k}`"))
        };
        opts.insert(k.to_string(), v.clone());
    }
    match cmd.as_str() {
        "gen-kernels" => gen_kernels(num(&opts, "seed"), &path(&opts, "out")),
        "reference" => reference(&opts),
        "serve-client" => serve_client(&path(&opts, "inputs"), &path(&opts, "refs")),
        "traced" => traced(&opts),
        other => fail(&format!("unknown subcommand `{other}`")),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("loopcomm-e2e: {msg}");
    std::process::exit(2)
}

fn opt<'a>(opts: &'a Opts, key: &str) -> &'a str {
    opts.get(key)
        .unwrap_or_else(|| fail(&format!("missing --{key}")))
}

fn num(opts: &Opts, key: &str) -> u64 {
    opt(opts, key)
        .parse()
        .unwrap_or_else(|_| fail(&format!("--{key} must be a whole number")))
}

fn path(opts: &Opts, key: &str) -> PathBuf {
    PathBuf::from(opt(opts, key))
}

fn write_file(path: &Path, body: &[u8]) {
    std::fs::write(path, body)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
}

fn read_file(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())))
}

fn kernel_trace_path(dir: &Path, kernel: &str) -> PathBuf {
    dir.join(format!("{kernel}.lctrace"))
}

// ---------------------------------------------------------------- inputs

/// Record `kernel` and merge its per-thread streams in a fixed order.
///
/// The recorder stamps events in whatever order the OS ran the threads,
/// but each thread's own stream depends only on the seed. Taking
/// `MERGE_QUANTUM` events from each thread in turn, thread 0 first, gives
/// an interleaved trace that is byte-identical for a given seed. Access
/// sites are numbered in order of first appearance, because the recorder
/// derives them from code addresses, which move from process to process.
fn record_kernel(kernel: &str, seed: u64) -> Trace {
    let workload = by_name(kernel).unwrap_or_else(|| fail(&format!("unknown kernel {kernel}")));
    let rec = Arc::new(RecordingSink::new());
    let ctx = TraceCtx::new(rec.clone(), THREADS);
    workload.run(&ctx, &RunConfig::new(THREADS, SIZE, seed));
    let recorded = rec.finish();
    let mut streams: Vec<Vec<_>> = Vec::new();
    for e in recorded.access_events() {
        let tid = e.tid as usize;
        if streams.len() <= tid {
            streams.resize_with(tid + 1, Vec::new);
        }
        streams[tid].push(*e);
    }
    let mut merged = Vec::with_capacity(recorded.len());
    let mut sites = std::collections::HashMap::new();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for start in (0..longest).step_by(MERGE_QUANTUM) {
        for s in &streams {
            for e in s.iter().skip(start).take(MERGE_QUANTUM) {
                let next = sites.len() as u64 + 1;
                let site = *sites.entry(e.site).or_insert(next);
                merged.push(StampedEvent {
                    seq: merged.len() as u64,
                    event: AccessEvent { site, ..*e },
                });
            }
        }
    }
    Trace::new(merged)
}

fn gen_kernels(seed: u64, out: &Path) {
    std::fs::create_dir_all(out).unwrap_or_else(|e| fail(&format!("cannot create out dir: {e}")));
    for kernel in KERNELS {
        let trace = record_kernel(kernel, seed);
        save_trace(&trace, &kernel_trace_path(out, kernel))
            .unwrap_or_else(|e| fail(&format!("cannot write {kernel} trace: {e}")));
    }
}

/// The synthetic stream `loopcomm synth --v3` writes for these settings.
fn synth_trace(seed: u64, events: u64, working_set: u64) -> Trace {
    Trace::new(
        (0..events)
            .map(|i| synth_event(i, seed, THREADS as u32, working_set, 0.0))
            .collect(),
    )
}

// ------------------------------------------------------------ references

fn prof_config(threads: usize) -> ProfilerConfig {
    ProfilerConfig {
        threads,
        track_nested: true,
        phase_window: None,
    }
}

/// Threads the CLI sizes its analysis for: distinct thread ids, which for
/// these inputs are exactly 0..n.
fn threads_of(trace: &Trace) -> usize {
    trace
        .access_events()
        .iter()
        .map(|e| e.tid as usize + 1)
        .max()
        .unwrap_or(1)
}

/// Canonical profile report through the sequential, uncoalesced, unfused
/// differential baseline.
fn reference_report(trace: &Trace) -> String {
    let threads = threads_of(trace);
    let a = analyze_trace_asymmetric(
        trace,
        SignatureConfig::paper_default(SLOTS, threads),
        prof_config(threads),
        AccumConfig::default(),
        &ParReplayConfig::sequential(),
    );
    assert!(
        a.overflow.is_none() && !a.degraded,
        "reference analysis overflowed or degraded"
    );
    canonical_report(&a.report, trace.len() as u64)
}

/// Canonical coherence report from a fresh backend fed the whole trace.
fn reference_coherence(trace: &Trace) -> String {
    let mut b = CoherenceBackend::new(CoherenceConfig::default(), threads_of(trace));
    b.on_block(trace.access_events());
    canonical_coherence_report(&b.report())
}

fn reference(opts: &Opts) {
    let seed = num(opts, "seed");
    let out = path(opts, "out");
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(&format!("cannot create out dir: {e}")));
    // Printed for run.py: events per input, the base of every rate.
    let mut events = Vec::new();
    match opt(opts, "workload") {
        "kernels-inram" | "serve-stream" => {
            // Two kernels at a time: the references are the slowest part
            // of set-up and the host has at least two cores.
            let counted = std::thread::scope(|s| {
                let workers: Vec<_> = KERNELS
                    .chunks(2)
                    .map(|pair| {
                        let out = &out;
                        s.spawn(move || {
                            let mut events = Vec::new();
                            for kernel in pair {
                                let trace = record_kernel(kernel, seed);
                                events.push((kernel.to_string(), trace.len()));
                                write_file(
                                    &out.join(format!("{kernel}.report")),
                                    reference_report(&trace).as_bytes(),
                                );
                                write_file(
                                    &out.join(format!("{kernel}.coherence")),
                                    reference_coherence(&trace).as_bytes(),
                                );
                            }
                            events
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("reference worker panicked"))
                    .collect::<Vec<_>>()
            });
            events.extend(counted);
        }
        "synth-mmap" => {
            let trace = synth_trace(seed, num(opts, "events"), num(opts, "working-set"));
            write_file(
                &out.join("synth.report"),
                reference_report(&trace).as_bytes(),
            );
            events.push(("synth".to_string(), trace.len()));
        }
        other => fail(&format!("unknown workload {other}")),
    }
    let fields: Vec<String> = events.iter().map(|(k, n)| format!("\"{k}\":{n}")).collect();
    println!("{{{}}}", fields.join(","));
}

// ---------------------------------------------------------- serve client

/// One HTTP/1.0 GET; returns the status code and body.
fn http_get(addr: &str, target: &str) -> std::io::Result<(u16, String)> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(QUIET_DEADLINE))?;
    write!(sock, "GET {target} HTTP/1.0\r\nHost: {addr}\r\n\r\n")?;
    let mut raw = String::new();
    sock.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Value of an unsigned integer field in a flat JSON object.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Stream one trace as `tenant` and fetch its quiescent report. Returns
/// the seconds from the first frame sent to the report received, and
/// whether the tenant analyzed every frame into the expected report.
fn stream_tenant(
    trace: &Trace,
    ingest: &str,
    http: &str,
    tenant: &str,
    expect: &[u8],
) -> (f64, bool) {
    let t0 = Instant::now();
    if let Err(e) = stream_trace(trace, ingest, tenant, DEFAULT_FRAME_EVENTS, None) {
        eprintln!("tenant {tenant}: stream failed: {e}");
        return (t0.elapsed().as_secs_f64(), false);
    }
    // `?wait=1` waits only for frames the server has received. The server
    // publishes a tenant before it counts the tenant's connection, so a
    // report asked for in that gap covers an empty prefix. Wait until
    // every event sent has been received, then ask.
    let sent = trace.len() as u64;
    loop {
        let received = match http_get(http, &format!("/tenants/{tenant}/stats")) {
            Ok((200, body)) => json_u64(&body, "events_received"),
            _ => None,
        };
        if received == Some(sent) || t0.elapsed() > QUIET_DEADLINE {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = http_get(http, &format!("/tenants/{tenant}/report?wait=1"));
    let secs = t0.elapsed().as_secs_f64();
    let report_ok = match report {
        Ok((200, body)) if body.as_bytes() == expect => true,
        Ok((status, _)) => {
            eprintln!("tenant {tenant}: report differs from the reference (HTTP {status})");
            false
        }
        Err(e) => {
            eprintln!("tenant {tenant}: report request failed: {e}");
            false
        }
    };
    let stats_ok = match http_get(http, &format!("/tenants/{tenant}/stats")) {
        Ok((200, body)) => {
            let field = |k| json_u64(&body, k);
            let clean = field("frames_lost") == Some(0)
                && field("frames_spilled") == Some(0)
                && field("frames_analyzed").is_some()
                && field("frames_analyzed") == field("frames_received");
            if !clean {
                eprintln!("tenant {tenant}: frames lost, spilled or unanalyzed: {body}");
            }
            clean
        }
        other => {
            eprintln!("tenant {tenant}: stats request failed: {other:?}");
            false
        }
    };
    (secs, report_ok && stats_ok)
}

/// Each kernel's trace, loaded from `inputs`, with its reference report.
fn load_kernels(inputs: &Path, refs: &Path) -> Vec<(&'static str, Trace, Vec<u8>)> {
    KERNELS
        .iter()
        .map(|&k| {
            let trace = load_trace(&kernel_trace_path(inputs, k))
                .unwrap_or_else(|e| fail(&format!("cannot load {k} trace: {e}")));
            (k, trace, read_file(&refs.join(format!("{k}.report"))))
        })
        .collect()
}

fn serve_client(inputs: &Path, refs: &Path) {
    let traces = load_kernels(inputs, refs);
    println!("ready");
    std::io::stdout().flush().expect("stdout is writable");
    for line in std::io::stdin().lock().lines() {
        let line = line.unwrap_or_else(|e| fail(&format!("cannot read command: {e}")));
        let words: Vec<&str> = line.split_whitespace().collect();
        let [_, ingest, http, tag] = words[..] else {
            fail(&format!(
                "expected `round <ingest> <http> <tag>`, got `{line}`"
            ))
        };
        let mut tenants = Vec::new();
        for (kernel, trace, expect) in &traces {
            let (secs, ok) = stream_tenant(trace, ingest, http, &format!("{kernel}-{tag}"), expect);
            tenants.push(format!(
                "{{\"kernel\":\"{kernel}\",\"events\":{},\"secs\":{secs},\"ok\":{ok}}}",
                trace.len()
            ));
        }
        println!("{{\"tenants\":[{}]}}", tenants.join(","));
        std::io::stdout().flush().expect("stdout is writable");
    }
}

// ------------------------------------------------------------- tracing

/// One timed call. `parent` indexes the enclosing span; spans of one
/// CLI invocation (or one tenant) share `invocation`.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    invocation: u64,
}

/// Spans kept in memory until the run ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    invocation: u64,
}

impl Recorder {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            invocation: 0,
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            invocation: self.invocation,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Start a new invocation and open its root span.
    fn invoke(&mut self, root: &'static str) -> usize {
        self.invocation += 1;
        self.open(root, None)
    }

    /// Per-name self time (duration minus direct children) of the spans
    /// recorded since index `from`, plus the summed root durations.
    fn self_times(&self, from: usize) -> (BTreeMap<&'static str, f64>, f64) {
        let dur = |s: &Span| (s.end - s.start).as_secs_f64();
        let mut child = vec![0.0; self.spans.len() - from];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child[p - from] += dur(s);
            }
        }
        let mut selfs = BTreeMap::new();
        let mut roots = 0.0;
        for (i, s) in self.spans[from..].iter().enumerate() {
            if s.parent.is_none() {
                roots += dur(s);
            } else {
                *selfs.entry(s.name).or_insert(0.0) += dur(s) - child[i];
            }
        }
        (selfs, roots)
    }

    fn write_jsonl(&self, path: &Path) {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"invocation\":{}}}\n",
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.invocation
            ));
        }
        write_file(path, out.as_bytes());
    }
}

/// What one traced round did, besides its spans.
#[derive(Default)]
struct Round {
    counts: BTreeMap<&'static str, f64>,
    /// On-CPU time of work that ran on other threads, concurrently with
    /// the spans (the server's drain threads), so it is no part of them.
    busy: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Round {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.counts.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    fn check(&mut self, what: &str, got: &[u8], expect: &[u8]) {
        self.attempted += 1;
        if got != expect {
            self.failed += 1;
            eprintln!("traced run: {what} differs from the reference");
        }
    }
}

/// `loopcomm analyze <f> --coherence --report-out R --coherence-out C`,
/// layer by layer, for each kernel.
fn traced_kernels(rec: &mut Recorder, round: &mut Round, inputs: &Path, refs: &Path, out: &Path) {
    for kernel in KERNELS {
        let file = kernel_trace_path(inputs, kernel);
        let root = rec.invoke("cli");
        let trace = rec
            .span("trace.load", root, || load_trace(&file))
            .unwrap_or_else(|e| fail(&format!("cannot load {kernel} trace: {e}")));
        let stats = rec.span("trace.stats", root, || trace.stats());
        let threads = stats.threads.max(1);
        let sig = SignatureConfig::paper_default(SLOTS, threads);
        let analysis = rec.span("profiler.replay", root, || {
            analyze_trace_asymmetric(
                &trace,
                sig,
                prof_config(threads),
                AccumConfig::default(),
                &ParReplayConfig::default(),
            )
        });
        let report = rec.span("profiler.report", root, || {
            canonical_report(&analysis.report, trace.len() as u64)
        });
        write_file(&out.join(format!("{kernel}.report")), report.as_bytes());
        let mut backend = CoherenceBackend::new(CoherenceConfig::default(), threads);
        rec.span("cachesim.on_block", root, || {
            backend.on_block(trace.access_events())
        });
        let (coh, coherence) = rec.span("cachesim.report", root, || {
            let rep = backend.report();
            let body = canonical_coherence_report(&rep);
            (rep, body)
        });
        write_file(
            &out.join(format!("{kernel}.coherence")),
            coherence.as_bytes(),
        );
        let events = trace.len() as f64;
        drop(trace);
        rec.close(root);

        round.check(
            &format!("{kernel} report"),
            report.as_bytes(),
            &read_file(&refs.join(format!("{kernel}.report"))),
        );
        round.check(
            &format!("{kernel} coherence report"),
            coherence.as_bytes(),
            &read_file(&refs.join(format!("{kernel}.coherence"))),
        );
        let bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
        let r = &analysis.replay;
        round.add("trace.events", events);
        round.add("trace.file_bytes", bytes as f64);
        round.add("profiler.replayed_events", r.replayed_events as f64);
        round.add("profiler.batches", r.batches as f64);
        round.add("profiler.events_folded", r.coalesce.events_folded as f64);
        round.add("profiler.dependencies", analysis.report.dependencies as f64);
        round.max("profiler.memory_bytes", analysis.report.memory_bytes as f64);
        round.max("sigmem.eq2_bytes", sig.predicted_bytes());
        round.add("cachesim.accesses", coh.accesses as f64);
        round.add("cachesim.invalidations", coh.invalidations as f64);
        round.add("cachesim.c2c_fills", coh.c2c_fills as f64);
        round.add("cachesim.writebacks", coh.writebacks as f64);
        round.add(
            "cachesim.false_sharing_events",
            coh.false_sharing_events() as f64,
        );
    }
}

/// `loopcomm analyze <spool> --mmap --report-out R`, layer by layer.
fn traced_synth(rec: &mut Recorder, round: &mut Round, inputs: &Path, refs: &Path, out: &Path) {
    let spool = inputs.join("synth.v3");
    let root = rec.invoke("cli");
    let mm = rec
        .span("trace.v3_open", root, || MmapTrace::open(&spool))
        .unwrap_or_else(|e| fail(&format!("cannot open spool: {e}")));
    // The CLI reads the thread count from the index hint `synth` writes.
    let threads = (mm.index().threads as usize).max(1);
    let sig = SignatureConfig::paper_default(SLOTS, threads);
    let mut analyzer = rec.span("sigmem.alloc", root, || {
        IncrementalAnalyzer::new(
            DetectorKind::Asymmetric,
            sig,
            prof_config(threads),
            AccumConfig::default(),
            1,
        )
    });
    let decode = rec.open("trace.v3_decode", Some(root));
    mm.stream_from(0, |frame| {
        rec.span("profiler.replay", decode, || analyzer.on_frame(frame))
    })
    .unwrap_or_else(|e| fail(&format!("mmap replay failed: {e}")));
    rec.close(decode);
    let (report, body) = rec.span("profiler.report", root, || {
        let r = analyzer.report();
        let body = canonical_report(&r, analyzer.events());
        (r, body)
    });
    write_file(&out.join("synth.report"), body.as_bytes());
    let events = mm.events() as f64;
    let (frames, analyzed) = (analyzer.frames(), analyzer.events());
    drop(analyzer);
    drop(mm);
    rec.close(root);

    round.check(
        "synth report",
        body.as_bytes(),
        &read_file(&refs.join("synth.report")),
    );
    let bytes: u64 = [spool.clone(), loopcomm::lc_trace::index_path(&spool)]
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    round.add("trace.events", events);
    round.add("trace.file_bytes", bytes as f64);
    round.add("profiler.replayed_events", analyzed as f64);
    round.add("profiler.batches", frames as f64);
    round.add("profiler.dependencies", report.dependencies as f64);
    round.max("profiler.memory_bytes", report.memory_bytes as f64);
    round.max("sigmem.eq2_bytes", sig.predicted_bytes());
}

/// The configuration `loopcomm serve --threads 8` runs with, on an
/// ephemeral loopback port.
fn serve_config() -> ServeConfig {
    ServeConfig {
        listen: vec!["127.0.0.1:0".to_string()],
        http: None,
        detector: DetectorKind::Asymmetric,
        sig: SignatureConfig::paper_default(SLOTS, THREADS),
        prof: prof_config(THREADS),
        accum: AccumConfig::default(),
        jobs: 1,
        queue_frames: 64,
        max_conns: 64,
        max_tenants: 64,
        faults: None,
        durable_dir: None,
        tenant_idle: None,
        tenant_max_bytes: 0,
        coherence: None,
    }
}

/// On-CPU seconds of this process's thread named `name`, as the kernel
/// keeps the name (at most 15 bytes).
fn thread_cpu_s(name: &str) -> Option<f64> {
    let comm = &name.as_bytes()[..name.len().min(15)];
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        let found = std::fs::read(dir.join("comm")).ok()?;
        if found.strip_suffix(b"\n").unwrap_or(&found) == comm {
            let stat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
            return Some(ns / 1e9);
        }
    }
    None
}

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// One server, every kernel streamed as its own tenant in turn.
fn traced_serve(
    rec: &mut Recorder,
    round: &mut Round,
    traces: &[(&str, Trace, Vec<u8>)],
    tag: u64,
) {
    let cfg = serve_config();
    let eq2_bytes = cfg.sig.predicted_bytes();
    let mut server = Server::start(cfg)
        .unwrap_or_else(|e| fail(&format!("cannot start in-process server: {e}")));
    let addr = server.ingest_addrs()[0].clone();
    for (kernel, trace, expect) in traces {
        let tenant = format!("{kernel}-{tag}");
        let root = rec.invoke("tenant");
        let streamed = rec.span("serve.session", root, || {
            stream_trace(trace, &addr, &tenant, DEFAULT_FRAME_EVENTS, None)
        });
        // As in the client: quiescence counts only received frames, so
        // first wait until every event sent has been received.
        let sent = trace.len() as u64;
        let (t, quiet) = rec.span("serve.drain", root, || {
            let waited = Instant::now();
            loop {
                let t = server.shared().tenant(&tenant);
                let received = t.as_ref().map(|t| load(&t.stats.events_received));
                if received == Some(sent) {
                    let quiet = t.as_ref().is_some_and(|t| t.wait_quiet(QUIET_DEADLINE));
                    break (t, quiet);
                }
                if waited.elapsed() > QUIET_DEADLINE {
                    break (t, false);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let body = rec.span("profiler.report", root, || {
            t.as_ref().map(|t| t.canonical())
        });
        rec.close(root);

        round.attempted += 1;
        let (Ok(_), true, Some(t), Some(body)) = (&streamed, quiet, t, body) else {
            round.failed += 1;
            eprintln!("traced run: tenant {tenant} did not stream and quiesce: {streamed:?}");
            continue;
        };
        let s = &t.stats;
        let count = |c| load(c) as f64;
        let (lost, spilled) = (count(&s.frames_lost), count(&s.frames_spilled));
        if body.as_bytes() != expect.as_slice() || lost > 0.0 || spilled > 0.0 {
            round.failed += 1;
            eprintln!("traced run: tenant {tenant} differs from the reference or lost frames");
        }
        // The drain thread replays the tenant's frames: its CPU time is
        // the profiler's replay time inside the server.
        match thread_cpu_s(&format!("lc-drain-{tenant}")) {
            Some(cpu) => *round.busy.entry("profiler.replay").or_insert(0.0) += cpu,
            None => {
                round.failed += 1;
                eprintln!("traced run: no drain thread found for tenant {tenant}");
            }
        }
        round.add("trace.events", trace.len() as f64);
        round.add("serve.frames_received", count(&s.frames_received));
        round.add("serve.frames_analyzed", t.frames_analyzed() as f64);
        round.add("serve.frames_lost", lost);
        round.add("serve.frames_spilled", spilled);
        round.add("serve.bytes_received", count(&s.bytes_received));
        // Tenants stay resident, so the server holds their sum.
        round.add("serve.tenant_memory_bytes", t.memory_bytes() as f64);
        round.add("profiler.replayed_events", t.events_analyzed() as f64);
        round.add("profiler.batches", t.frames_analyzed() as f64);
        let report = t.report();
        round.add("profiler.dependencies", report.dependencies as f64);
        round.max("profiler.memory_bytes", report.memory_bytes as f64);
        round.max("sigmem.eq2_bytes", eq2_bytes);
    }
    server.shutdown();
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn json_map(m: &BTreeMap<&str, f64>) -> String {
    let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// Repeat the workload in-process for `--seconds`, then print one JSON
/// line: medians over rounds of each span name's self time and of the
/// root total, the last round's counts, and the checks made.
fn traced(opts: &Opts) {
    let workload = opt(opts, "workload").to_string();
    let inputs = path(opts, "inputs");
    let refs = path(opts, "refs");
    let out = inputs.join("traced-out");
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(&format!("cannot create out dir: {e}")));
    let budget = Duration::from_secs_f64(
        opt(opts, "seconds")
            .parse()
            .unwrap_or_else(|_| fail("--seconds must be a number")),
    );
    let serve_inputs = if workload == "serve-stream" {
        load_kernels(&inputs, &refs)
    } else {
        Vec::new()
    };

    let mut rec = Recorder::new();
    let (mut self_rounds, mut busy_rounds, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Round::default();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while totals.is_empty() || start.elapsed() < budget {
        let from = rec.spans.len();
        let mut round = Round::default();
        match workload.as_str() {
            "kernels-inram" => traced_kernels(&mut rec, &mut round, &inputs, &refs, &out),
            "synth-mmap" => traced_synth(&mut rec, &mut round, &inputs, &refs, &out),
            "serve-stream" => {
                traced_serve(&mut rec, &mut round, &serve_inputs, totals.len() as u64)
            }
            other => fail(&format!("unknown workload {other}")),
        }
        let (selfs, total) = rec.self_times(from);
        self_rounds.push(selfs);
        totals.push(total);
        busy_rounds.push(std::mem::take(&mut round.busy));
        attempted += round.attempted;
        failed += round.failed;
        last = round;
    }
    rec.write_jsonl(&path(opts, "spans"));

    println!(
        "{{\"rounds\":{},\"self_s\":{},\"busy_s\":{},\"traced_total_s\":{},\"counts\":{},\"attempted\":{attempted},\"failed\":{failed}}}",
        totals.len(),
        json_map(&medians(&self_rounds)),
        json_map(&medians(&busy_rounds)),
        median(totals),
        json_map(&last.counts)
    );
}

/// Per-name median over rounds; a name missing from a round counts 0.
fn medians(rounds: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let names: std::collections::BTreeSet<&'static str> =
        rounds.iter().flat_map(|m| m.keys().copied()).collect();
    names
        .into_iter()
        .map(|n| {
            let v = rounds
                .iter()
                .map(|m| m.get(n).copied().unwrap_or(0.0))
                .collect();
            (n, median(v))
        })
        .collect()
}
