//! Integration tests for the leakage-assessment service: in-process
//! submission through `Server`, and end-to-end over the HTTP front
//! end. These exercise the acceptance criteria of the serve subsystem:
//! cache-hit determinism, backpressure and tenant quotas, and trial
//! failures degrading one job without poisoning the server.

use metaleak_bench::json::Json;
use metaleak_serve::http::HttpServer;
use metaleak_serve::{Server, ServerConfig, SubmitError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metaleak_serve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_spec(experiment: &str, seed: u64) -> String {
    format!(
        r#"{{"experiment":"{experiment}","victim":"covert_t","configs":["sct"],
            "seeds":[{seed}],"trials_per_point":2,"payload_per_trial":8,
            "preamble_bits":4,"require":"leak"}}"#
    )
}

fn server(tag: &str, workers: usize) -> (Server, PathBuf) {
    let dir = scratch(tag);
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = workers;
    (Server::start(cfg).expect("server start"), dir)
}

fn job_field<'a>(job: &'a Json, key: &str) -> &'a Json {
    job.get(key).unwrap_or_else(|| panic!("job json missing {key:?}"))
}

#[test]
fn resubmitted_spec_is_served_from_cache_without_trials() {
    let (server, dir) = server("cachehit", 2);
    let spec = quick_spec("svc-cache", 41);

    let first = server.submit("alice", &spec).expect("first submit");
    assert!(server.wait(first, WAIT).expect("first finishes").finished());
    let job1 = server.job_json(first).unwrap();
    assert_eq!(job_field(&job1, "status").as_str(), Some("done"));
    assert_eq!(job_field(&job1, "cache_hit").as_bool(), Some(false));
    let trials_before = server.metrics().trials_run.load(Ordering::SeqCst);
    assert!(trials_before > 0, "the leader must actually run trials");
    let jsonl1 = server.artifact(first, "jsonl").expect("jsonl");
    let report1 = server.report(first).expect("report");

    // Identical resubmission — different tenant, same content key.
    let second = server.submit("bob", &spec).expect("resubmit");
    let status = server.wait(second, WAIT).expect("hit finishes immediately");
    assert!(status.finished());
    let job2 = server.job_json(second).unwrap();
    assert_eq!(job_field(&job2, "cache_hit").as_bool(), Some(true));
    assert_eq!(job_field(&job2, "trials_run").as_u64(), Some(0));
    assert_eq!(
        job_field(&job1, "content_key").as_str(),
        job_field(&job2, "content_key").as_str(),
        "identical specs must share a content key"
    );
    assert_eq!(
        server.metrics().trials_run.load(Ordering::SeqCst),
        trials_before,
        "a cache hit must not execute any trial"
    );
    assert_eq!(server.metrics().cache_hits.load(Ordering::SeqCst), 1);

    // Byte-identical artifacts out of the cache.
    assert_eq!(jsonl1, server.artifact(second, "jsonl").expect("cached jsonl"));
    assert_eq!(report1, server.report(second).expect("cached report"));

    // Perturbing one seed changes the content key: a miss, new trials.
    let third = server.submit("alice", &quick_spec("svc-cache", 42)).expect("mutated submit");
    assert!(server.wait(third, WAIT).expect("mutated finishes").finished());
    let job3 = server.job_json(third).unwrap();
    assert_eq!(job_field(&job3, "cache_hit").as_bool(), Some(false));
    assert_ne!(
        job_field(&job1, "content_key").as_str(),
        job_field(&job3, "content_key").as_str(),
        "changing a seed must change the content key"
    );
    assert!(server.metrics().trials_run.load(Ordering::SeqCst) > trials_before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn independent_servers_produce_byte_identical_artifacts() {
    // Two fresh servers with different worker counts and empty caches:
    // the deterministic seeding must make their JSONL and report bytes
    // identical, which is the property the content-addressed cache
    // relies on.
    let (a, dir_a) = server("det_a", 1);
    let (b, dir_b) = server("det_b", 3);
    let spec = quick_spec("svc-det", 1234);
    let ja = a.submit("t", &spec).expect("submit a");
    let jb = b.submit("t", &spec).expect("submit b");
    assert!(a.wait(ja, WAIT).expect("a finishes").finished());
    assert!(b.wait(jb, WAIT).expect("b finishes").finished());
    assert_eq!(
        a.artifact(ja, "jsonl").unwrap(),
        b.artifact(jb, "jsonl").unwrap(),
        "rows must not depend on worker count or server instance"
    );
    assert_eq!(a.report(ja).unwrap(), b.report(jb).unwrap());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn queue_capacity_and_tenant_quota_reject_submissions() {
    // Zero workers: admitted jobs stay queued forever, so the gates
    // can be filled deterministically.
    let dir = scratch("backpressure");
    let cfg =
        ServerConfig { workers: 0, queue_capacity: 3, tenant_quota: 2, cache_dir: dir.clone() };
    let server = Server::start(cfg).expect("server start");

    // Tenant quota trips first: alice gets two jobs in flight, the
    // third is rejected even though the queue still has room.
    server.submit("alice", &quick_spec("svc-bp", 1)).expect("alice #1");
    server.submit("alice", &quick_spec("svc-bp", 2)).expect("alice #2");
    assert_eq!(
        server.submit("alice", &quick_spec("svc-bp", 3)),
        Err(SubmitError::TenantQuota),
        "third in-flight job must trip the tenant quota"
    );
    assert_eq!(server.metrics().rejected_tenant_quota.load(Ordering::SeqCst), 1);

    // Another tenant is unaffected — until the global queue fills.
    server.submit("bob", &quick_spec("svc-bp", 4)).expect("bob #1");
    assert_eq!(
        server.submit("carol", &quick_spec("svc-bp", 5)),
        Err(SubmitError::QueueFull),
        "fourth in-flight job must trip the queue bound"
    );
    assert_eq!(server.metrics().rejected_queue_full.load(Ordering::SeqCst), 1);

    // An invalid body is rejected without consuming capacity.
    assert!(matches!(server.submit("dave", "{not json"), Err(SubmitError::Invalid(_))));
    assert_eq!(server.metrics().rejected_invalid.load(Ordering::SeqCst), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_trial_failures_degrade_the_job_not_the_server() {
    let (server, dir) = server("poison", 2);
    // Trial 1 of 4 is injected to panic inside the supervisor.
    let spec = r#"{"experiment":"svc-poison","victim":"covert_t","configs":["sct","ht"],
        "seeds":[9],"trials_per_point":2,"payload_per_trial":8,"preamble_bits":4,
        "fail_trials":[1],"max_failed_trials":1,"require":"leak"}"#;
    let id = server.submit("mallory", spec).expect("submit");
    let status = server.wait(id, WAIT).expect("finishes");
    assert_eq!(status.name(), "degraded");
    let job = server.job_json(id).unwrap();
    assert_eq!(job_field(&job, "failed_trials").as_u64(), Some(1));
    // The failure budget admits the degraded artifact, so the gate
    // verdict is still evaluated over the surviving rows.
    assert!(job_field(&job, "gates_pass").as_bool().is_some());
    let report: Json = Json::parse(&server.report(id).unwrap()).expect("report parses");
    assert_eq!(
        report.get("job").and_then(|j| j.get("status")).and_then(Json::as_str),
        Some("degraded")
    );

    // The server keeps serving: a healthy job after the poisoned one
    // completes cleanly on the same workers.
    let next = server.submit("mallory", &quick_spec("svc-after-poison", 5)).expect("submit");
    assert_eq!(server.wait(next, WAIT).expect("finishes").name(), "done");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-shot `Connection: close` HTTP client for the end-to-end test.
fn http(addr: &std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {response:?}"));
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

fn post_job(addr: &std::net::SocketAddr, tenant: &str, spec: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nHost: x\r\nX-Tenant: {tenant}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{spec}",
            spec.len()
        ),
    )
}

fn get(addr: &std::net::SocketAddr, path: &str) -> (u16, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"))
}

#[test]
fn http_round_trip_submits_polls_and_hits_the_cache() {
    let (server, dir) = server("http", 2);
    let server = Arc::new(server);
    let mut front = HttpServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    let addr = front.addr();

    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "healthz: {body}");

    let spec = quick_spec("svc-http", 77);
    let (status, body) = post_job(&addr, "alice", &spec);
    assert_eq!(status, 202, "submit: {body}");
    let job = Json::parse(&body).expect("job json");
    let id = job.get("id").and_then(Json::as_u64).expect("job id");

    // Poll until terminal.
    let deadline = std::time::Instant::now() + WAIT;
    let terminal = loop {
        let (status, body) = get(&addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "poll: {body}");
        let job = Json::parse(&body).expect("poll json");
        let state = job.get("status").and_then(Json::as_str).unwrap_or("?").to_owned();
        if state != "queued" && state != "running" {
            break state;
        }
        assert!(std::time::Instant::now() < deadline, "job never finished");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(terminal, "done");

    let (status, report1) = get(&addr, &format!("/jobs/{id}/report"));
    assert_eq!(status, 200, "report: {report1}");
    let report = Json::parse(&report1).expect("report json");
    assert!(
        report.get("gates").and_then(|g| g.get("pass")).and_then(Json::as_bool).is_some(),
        "report must carry a gate verdict: {report1}"
    );

    // Resubmission over the wire: immediate cache hit, same bytes.
    let (status, body) = post_job(&addr, "bob", &spec);
    assert_eq!(status, 202, "resubmit: {body}");
    let hit = Json::parse(&body).expect("hit json");
    assert_eq!(hit.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(hit.get("status").and_then(Json::as_str), Some("done"));
    let hit_id = hit.get("id").and_then(Json::as_u64).expect("hit id");
    let (status, report2) = get(&addr, &format!("/jobs/{hit_id}/report"));
    assert_eq!(status, 200);
    assert_eq!(report1, report2, "cached report must be byte-identical");

    // Metrics reflect the session; bad routes and bodies get clean
    // HTTP errors.
    let (status, body) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).expect("metrics json");
    assert_eq!(metrics.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(get(&addr, "/jobs/999999").0, 404);
    assert_eq!(get(&addr, "/nope").0, 404);
    assert_eq!(post_job(&addr, "alice", "{broken").0, 400);

    front.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_long_request_head_is_answered_without_a_line_end() {
    // One byte past the front end's 16 KiB head bound and no newline.
    // Exactly that many bytes, so the server reads everything it was
    // sent and its close cannot turn into a reset.
    const MAX_HEAD: usize = 16 * 1024;
    let (server, dir) = server("longhead", 1);
    let mut front = HttpServer::bind("127.0.0.1:0", Arc::new(server)).expect("bind");
    let mut stream = TcpStream::connect(front.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(&[b'G'; MAX_HEAD + 1]).expect("send head");
    // The socket stays open: only the bound can end the server's read.
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("answered before the read timeout");
    assert!(response.starts_with("HTTP/1.1 413 "), "{response:?}");
    front.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_server_serves_the_previous_run_from_disk() {
    // Cache durability: a second server process over the same cache
    // root answers the identical spec without re-executing.
    let dir = scratch("restart");
    let spec = quick_spec("svc-restart", 404);
    let (jsonl, report) = {
        let srv = Server::start(ServerConfig::new(&dir)).expect("first server");
        let id = srv.submit("t", &spec).expect("submit");
        assert!(srv.wait(id, WAIT).expect("finishes").finished());
        (srv.artifact(id, "jsonl").unwrap(), srv.report(id).unwrap())
    };
    let srv = Server::start(ServerConfig::new(&dir)).expect("second server");
    let id = srv.submit("t", &spec).expect("resubmit");
    let job = srv.job_json(id).unwrap();
    assert_eq!(job_field(&job, "cache_hit").as_bool(), Some(true));
    assert_eq!(srv.metrics().trials_run.load(Ordering::SeqCst), 0);
    assert_eq!(srv.artifact(id, "jsonl").unwrap(), jsonl);
    assert_eq!(srv.report(id).unwrap(), report);
    let _ = std::fs::remove_dir_all(&dir);
}
