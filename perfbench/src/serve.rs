//! The `serve_mix` workload: `metaleak-serve` driven over loopback HTTP
//! by two closed-loop clients, as CI callers that wait for their report.
//!
//! A round starts the server on a fresh cache directory, has the two
//! clients submit distinct MetaLeak-T specs over `sct`, `ht` and `sit`
//! (each a cache miss that runs trials, writes artifacts and runs
//! leakscan in the server), and once every miss has finished has them
//! resubmit each spec under another tenant (each a cache hit that only
//! reads). Then the server is stopped and its cache removed. Every round
//! of a run repeats the same specs against an empty cache.

use crate::trace::{Recorder, SpanId};
use crate::util::{self, median, ms_since, Scratch};
use crate::Report;
use metaleak_bench::json::Json;
use metaleak_sim::rng::SimRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Server workers: the two cores of the reference box.
const WORKERS: &str = "2";

/// Specs each client submits per round.
const SPECS_PER_CLIENT: usize = 3;

/// Interval between a waiting client's status polls.
const POLL: Duration = Duration::from_millis(10);

/// Longest a round may wait for one job before giving up.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds `metaleak-serve` from the repository's own manifest into
/// `target` with the release profile, and returns its path.
pub fn build_server(target: &Path) -> Result<PathBuf, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "--offline", "--release", "--quiet", "-p", "metaleak-serve"])
        .arg("--manifest-path")
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building metaleak-serve failed ({status})"));
    }
    let bin = target.join("release").join("metaleak-serve");
    if !bin.exists() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

/// A running server, killed and reaped when dropped — also when a
/// check fails mid-round.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Starts the server on an ephemeral port and waits for the first
    /// `/healthz` 200. Returns the server and the seconds that took.
    fn start(bin: &Path, cache: &Path) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", WORKERS, "--cache-dir"])
            .arg(cache)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        let mut server = Server { child, addr: String::new(), _stdout: stdout };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => return Err(format!("metaleak-serve did not announce its address: {line:?}")),
        }
        loop {
            if let Ok((200, _)) = http(&server.addr, "GET", "/healthz", "", "") {
                return Ok((server, t0.elapsed().as_secs_f64()));
            }
            if t0.elapsed() > JOB_TIMEOUT {
                return Err("metaleak-serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn metrics(&self) -> Result<Json, String> {
        match http(&self.addr, "GET", "/metrics", "", "")? {
            (200, body) => Json::parse(&body).map_err(|e| format!("bad /metrics: {e}")),
            (status, _) => Err(format!("/metrics answered {status}")),
        }
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response).
fn http(
    addr: &str,
    method: &str,
    path: &str,
    tenant: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Tenant: {tenant}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("send {path}: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("receive {path}: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response to {path}"))?;
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    Ok((status, body))
}

/// Seeds per spec, and the per-point sizes: those of the paper-scale
/// Figure 11 sweep, 1000 bits per configuration in 8 chunk trials after
/// a 64-bit preamble, so a spec is the Figure 11 run submitted as a job.
const SEEDS_PER_SPEC: usize = 1;
const TRIALS_PER_POINT: usize = 8;
const PAYLOAD_PER_TRIAL: usize = 125;
const PREAMBLE_BITS: usize = 64;

/// The round's specs: distinct MetaLeak-T sweeps over all three
/// configurations, with seeds drawn from the run seed.
fn specs(seed: u64) -> Vec<String> {
    let mut rng = SimRng::seed_from(seed).split(crate::PROBE_STREAM + 1);
    let mut seeds: Vec<u64> = Vec::new();
    while seeds.len() < 2 * SPECS_PER_CLIENT * SEEDS_PER_SPEC {
        let s = rng.next_u64() >> 32;
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
        .chunks(SEEDS_PER_SPEC)
        .enumerate()
        .map(|(k, s)| {
            let s: Vec<String> = s.iter().map(u64::to_string).collect();
            format!(
                "{{\"experiment\":\"mix-{k}\",\"victim\":\"covert_t\",\"configs\":[\"sct\",\"ht\",\"sit\"],\
                 \"seeds\":[{}],\"trials_per_point\":{TRIALS_PER_POINT},\
                 \"payload_per_trial\":{PAYLOAD_PER_TRIAL},\"preamble_bits\":{PREAMBLE_BITS},\
                 \"require\":\"leak\"}}",
                s.join(",")
            )
        })
        .collect()
}

/// What a client observed for one submission.
#[derive(Default)]
struct Job {
    latency_ms: f64,
    submit_ms: f64,
    queued_ms: f64,
    running_ms: f64,
    report_ms: f64,
    polls: usize,
    status: String,
    cache_hit: bool,
    report: String,
    /// Non-2xx responses met along the way.
    errors: usize,
}

/// Submits `spec` as `tenant`, waits for the job to finish and fetches
/// its report.
fn submit(
    addr: &str,
    tenant: &str,
    spec: &str,
    rec: &Recorder,
    parent: SpanId,
) -> Result<Job, String> {
    let mut job = Job::default();
    let t0 = Instant::now();
    let s = rec.span("serve.submit", parent);
    let (status, body) = http(addr, "POST", "/jobs", tenant, spec)?;
    drop(s);
    job.submit_ms = ms_since(t0);
    if status != 202 {
        job.errors += 1;
        job.status = format!("http {status}");
        return Ok(job);
    }
    let mut state = Json::parse(&body).map_err(|e| format!("bad job JSON: {e}"))?;
    let id = state.get("id").and_then(Json::as_u64).ok_or("job without an id")?;
    let submitted = Instant::now();
    let mut started: Option<Instant> = None;
    loop {
        let st = state.get("status").and_then(Json::as_str).unwrap_or("").to_owned();
        if st != "queued" && started.is_none() {
            started = Some(Instant::now());
        }
        if matches!(st.as_str(), "done" | "degraded" | "failed") {
            job.status = st;
            break;
        }
        if submitted.elapsed() > JOB_TIMEOUT {
            job.status = format!("timed out {st}");
            return Ok(job);
        }
        std::thread::sleep(POLL);
        let s = rec.span("serve.poll", parent);
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), tenant, "")?;
        drop(s);
        job.polls += 1;
        if status != 200 {
            job.errors += 1;
            continue;
        }
        state = Json::parse(&body).map_err(|e| format!("bad job JSON: {e}"))?;
    }
    let finished = Instant::now();
    let started = started.unwrap_or(submitted);
    job.queued_ms = started.duration_since(submitted).as_secs_f64() * 1e3;
    job.running_ms = finished.duration_since(started).as_secs_f64() * 1e3;
    job.cache_hit = state.get("cache_hit").and_then(Json::as_bool) == Some(true);
    let t = Instant::now();
    let s = rec.span("serve.report", parent);
    let (status, body) = http(addr, "GET", &format!("/jobs/{id}/report"), tenant, "")?;
    drop(s);
    job.report_ms = ms_since(t);
    if status != 200 {
        job.errors += 1;
    }
    job.report = body;
    job.latency_ms = ms_since(t0);
    Ok(job)
}

/// Has the two clients submit every spec, client `c` taking specs
/// `c, c + 2, ...` in order, and returns the jobs in spec order.
fn drive(
    addr: &str,
    tenants: [&str; 2],
    specs: &[String],
    rec: &Recorder,
    parent: SpanId,
) -> Result<Vec<Job>, String> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    (c..specs.len())
                        .step_by(2)
                        .map(|k| Ok((k, submit(addr, tenants[c], &specs[k], rec, parent)?)))
                        .collect::<Result<Vec<(usize, Job)>, String>>()
                })
            })
            .collect();
        let mut jobs = Vec::new();
        for client in clients {
            jobs.extend(client.join().map_err(|_| "client thread panicked".to_owned())??);
        }
        jobs.sort_by_key(|(k, _)| *k);
        Ok(jobs.into_iter().map(|(_, job)| job).collect())
    })
}

struct Round {
    setup_s: f64,
    wall_s: f64,
    miss_phase_s: f64,
    misses: Vec<Job>,
    hits: Vec<Job>,
    /// `/metrics` after the server came up, after the misses, at the end.
    metrics: [Json; 3],
    peak_rss_mb: f64,
    root: SpanId,
}

fn run_round(bin: &Path, specs: &[String], cache: &Path, rec: &Recorder) -> Result<Round, String> {
    let root = rec.span("pass", 0);
    let s = rec.span("serve.start", root.id());
    let (server, setup_s) = Server::start(bin, cache)?;
    drop(s);
    let m0 = server.metrics()?;
    let t0 = Instant::now();
    let misses = drive(&server.addr, ["ci-a", "ci-b"], specs, rec, root.id())?;
    let miss_phase_s = t0.elapsed().as_secs_f64();
    let m1 = server.metrics()?;
    let hits = drive(&server.addr, ["ci-a-replay", "ci-b-replay"], specs, rec, root.id())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let m2 = server.metrics()?;
    let pid = server.child.id().to_string();
    let peak_rss_mb = util::peak_rss_mib(&pid).ok_or("cannot read the server's VmHWM")?;
    drop(server);
    let root_id = root.id();
    drop(root);
    Ok(Round {
        setup_s,
        wall_s,
        miss_phase_s,
        misses,
        hits,
        metrics: [m0, m1, m2],
        peak_rss_mb,
        root: root_id,
    })
}

fn counter(m: &Json, key: &str) -> f64 {
    m.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// The report digests of a round's misses, in spec order.
fn digests(round: &Round) -> Vec<String> {
    round.misses.iter().map(|j| util::sha256_hex(j.report.as_bytes())).collect()
}

fn check_round(round: &Round, first: Option<&Round>, report: &mut Report) {
    let jobs = round.misses.len() + round.hits.len();
    report.attempted += jobs as u64;
    for (k, miss) in round.misses.iter().enumerate() {
        let pass = Json::parse(&miss.report)
            .ok()
            .and_then(|r| r.get("gates").and_then(|g| g.get("pass")).and_then(Json::as_bool));
        let ok = miss.status == "done" && miss.errors == 0 && pass == Some(true) && !miss.cache_hit;
        report.failed += u64::from(!ok);
        report.check(ok, || format!("miss mix-{k} ended {} (gate pass {pass:?})", miss.status));
    }
    for (k, (hit, miss)) in round.hits.iter().zip(&round.misses).enumerate() {
        let ok =
            hit.cache_hit && hit.status == "done" && hit.errors == 0 && hit.report == miss.report;
        report.failed += u64::from(!ok);
        report.check(ok, || format!("resubmission of mix-{k} was not a byte-identical cache hit"));
    }
    let [_, m1, m2] = &round.metrics;
    report.check(counter(m1, "trials_run") == counter(m2, "trials_run"), || {
        "trials_run grew during the cache-hit phase".to_owned()
    });
    report.check(
        counter(m2, "cache_hits") - counter(m1, "cache_hits") == round.hits.len() as f64,
        || "cache_hits did not grow by the number of resubmissions".to_owned(),
    );
    if let Some(first) = first {
        report.check(digests(round) == digests(first), || {
            "a repeated round produced different reports".to_owned()
        });
    }
}

fn fingerprint(round: &Round, report: &mut Report) {
    let [m0, m1, _] = &round.metrics;
    for key in ["trials_run", "points_run"] {
        report
            .fingerprint
            .push((format!("serve.{key}"), (counter(m1, key) - counter(m0, key)).to_string()));
    }
    for (k, d) in digests(round).into_iter().enumerate() {
        report.fingerprint.push((format!("sha256:mix-{k}/report.json"), d));
    }
}

/// Runs rounds until `budget` is spent (at least three). Untraced, it
/// reports the end-to-end medians; traced, it then runs one more round
/// with spans around every request and reports the per-layer figures.
pub fn run(
    bin: &Path,
    seed: u64,
    budget: Duration,
    traced: bool,
    scratch: &Scratch,
) -> (Report, Option<Recorder>) {
    let specs = specs(seed);
    let mut report = Report::default();
    let plain = Recorder::new(false);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < 3 || (start.elapsed() < budget && rounds.len() < crate::MAX_PASSES) {
        let cache = match scratch.fresh(&format!("cache{}", rounds.len())) {
            Ok(d) => d,
            Err(e) => return (report.fail(e), None),
        };
        match run_round(bin, &specs, &cache, &plain) {
            Ok(round) => {
                check_round(&round, rounds.first(), &mut report);
                rounds.push(round);
            }
            Err(e) => return (report.fail(e), None),
        }
        let _ = std::fs::remove_dir_all(&cache);
    }
    fingerprint(&rounds[0], &mut report);
    let col = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let misses: Vec<f64> =
        rounds.iter().flat_map(|r| r.misses.iter().map(|j| j.latency_ms)).collect();
    let hits: Vec<f64> = rounds.iter().flat_map(|r| r.hits.iter().map(|j| j.latency_ms)).collect();
    report.latency("job", &misses);
    report.extra("hit_p50_ms", median(&hits), "ms");
    report.extra("failed_share", report.failed as f64 / report.attempted.max(1) as f64, "ratio");
    report.note(format!(
        "{} rounds of {} misses and {} hits; items are misses completed per second of the miss phase",
        rounds.len(),
        specs.len(),
        specs.len()
    ));
    if !traced {
        report.metric("setup_s", median(&col(|r| r.setup_s)));
        report.metric("wall_s", median(&col(|r| r.wall_s)));
        report.metric("items_per_s", median(&col(|r| r.misses.len() as f64 / r.miss_phase_s)));
        report.metric("peak_rss_mb", median(&col(|r| r.peak_rss_mb)));
        return (report, None);
    }
    report.metric("serve.job_p50_ms", median(&misses));
    report.metric("serve.job_tail_ms", util::tail(&misses).map_or(0.0, |(_, v)| v));
    report.metric("serve.hit_p50_ms", median(&hits));

    let rec = Recorder::new(true);
    let cache = match scratch.fresh("cache-traced") {
        Ok(d) => d,
        Err(e) => return (report.fail(e), None),
    };
    let round = match run_round(bin, &specs, &cache, &rec) {
        Ok(r) => r,
        Err(e) => return (report.fail(e), Some(rec)),
    };
    check_round(&round, rounds.first(), &mut report);
    let jobs = &round.misses;
    let med = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    report.metric("serve.submit_ms", med(|j| j.submit_ms));
    report.metric("serve.queued_ms", med(|j| j.queued_ms));
    report.metric("serve.running_ms", med(|j| j.running_ms));
    report.metric("serve.report_ms", med(|j| j.report_ms));
    report.metric(
        "serve.polls_per_job",
        util::mean(&jobs.iter().map(|j| j.polls as f64).collect::<Vec<_>>()),
    );
    let [m0, _, m2] = &round.metrics;
    let delta = |key: &str| counter(m2, key) - counter(m0, key);
    for key in
        ["trials_run", "points_run", "cache_hits", "dedup_attached", "jobs_failed", "http_requests"]
    {
        report.metric(&format!("serve.{key}"), delta(key));
    }
    report.metric(
        "serve.rejected",
        delta("rejected_queue_full") + delta("rejected_tenant_quota") + delta("rejected_invalid"),
    );
    report.metric("serve.cache_hit_ratio", delta("cache_hits") / delta("jobs_submitted").max(1.0));
    let spans = rec.spans();
    crate::span_summary(
        &mut report,
        &spans,
        &[round.root],
        median(&col(|r| r.wall_s)),
        round.wall_s,
    );
    (report, Some(rec))
}
