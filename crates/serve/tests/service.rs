//! End-to-end service tests: a real daemon on an ephemeral port, a real
//! client over TCP.

use distda_serve::{fetch_metrics, Client, ServeConfig, Server, SweepReply, Transcript};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("distda-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str, queue: usize) -> (Server, String, PathBuf) {
    let dir = temp_dir(tag);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue,
        cache_mem: 64,
        cache_dir: Some(dir.clone()),
        cache_bytes: 0,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr, dir)
}

fn sweep(addr: &str, dedupe: bool) -> Transcript {
    let mut client = Client::connect(addr).expect("connect");
    match client
        .sweep(&["pch", "nw"], &["OoO", "Dist-DA-F"], "tiny", dedupe, true)
        .expect("sweep")
    {
        SweepReply::Done(t) => t,
        SweepReply::Rejected { .. } => panic!("unexpected rejection"),
    }
}

fn payloads(t: &Transcript) -> Vec<(String, String, String)> {
    t.results
        .iter()
        .map(|r| {
            (
                r.kernel.clone(),
                r.config.clone(),
                r.payload.clone().expect("payload requested"),
            )
        })
        .collect()
}

#[test]
fn second_identical_sweep_is_all_cache_hits() {
    let (server, addr, dir) = start("hits", 64);

    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("pong");

    let first = sweep(&addr, true);
    assert_eq!(first.cells, 4);
    assert_eq!(first.cached, 0);
    assert_eq!(first.queued, 4);
    assert!(first.results.iter().all(|r| r.ok && !r.cached));
    assert!(first.summary_ticks > 0, "first sweep simulates");

    let second = sweep(&addr, true);
    assert_eq!(second.cells, 4);
    assert_eq!(second.cached, 4, "everything served from cache");
    assert_eq!(second.queued, 0);
    assert_eq!(second.summary_ticks, 0, "zero new simulated ticks");
    assert!(second.results.iter().all(|r| r.ok && r.cached));
    assert_eq!(payloads(&first), payloads(&second), "byte-identical");

    // Cached cells still report their stored tick counts on result lines.
    for (f, s) in first.results.iter().zip(&second.results) {
        assert_eq!(f.ticks, s.ticks);
        assert!(s.ticks > 0);
    }

    // The client verified every streamed line carried this job's id and
    // a strictly increasing seq; both sweeps streamed 4 cell events +
    // 4 results + summary + done = 10 lines.
    assert_eq!(first.last_seq, 10);
    assert_eq!(second.last_seq, 10);
    assert!(second.job > first.job, "job ids are monotonic");

    // The HTTP endpoint exposes the daemon counters; the job accounting
    // must balance: completed + deduped == submitted.
    let metrics = fetch_metrics(&addr).expect("scrape /metrics");
    assert!(metrics.contains("# EOF"));
    assert!(metrics.contains("distda_serve_cells_submitted_total 8"));
    assert!(metrics.contains("distda_serve_cells_completed_total 4"));
    assert!(metrics.contains("distda_serve_cells_deduped_total 4"));
    assert!(metrics.contains("distda_serve_cache_hit_ratio"));
    // Per-cell service time is a log2 histogram now, one observation per
    // simulated cell, and the retry hint derives from its median.
    assert!(metrics.contains("# TYPE distda_serve_cell_service_ns histogram"));
    assert!(metrics.contains("distda_serve_cell_service_ns_count 4"));
    assert!(metrics.contains("distda_serve_retry_after_ms"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn dedupe_off_and_on_return_byte_identical_results() {
    let (server, addr, dir) = start("dedupe", 64);

    // dedupe=false bypasses the cache in both directions: every sweep
    // simulates fresh. Determinism makes them byte-identical anyway —
    // and identical to what the cache later serves.
    let off1 = sweep(&addr, false);
    let off2 = sweep(&addr, false);
    assert_eq!(off1.queued, 4);
    assert_eq!(off2.queued, 4, "dedupe=false never consults the cache");
    assert_eq!(payloads(&off1), payloads(&off2));

    let on1 = sweep(&addr, true);
    assert_eq!(on1.cached, 0, "dedupe=false must not have populated");
    let on2 = sweep(&addr, true);
    assert_eq!(on2.cached, 4);
    assert_eq!(payloads(&off1), payloads(&on1));
    assert_eq!(payloads(&on1), payloads(&on2));

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn poisoned_cache_entries_are_transparently_resimulated() {
    let (server, addr, dir) = start("poison", 64);
    let first = sweep(&addr, true);
    server.shutdown();

    // Corrupt every persisted entry: truncate one byte off the end and
    // flip a digit, so the recorded content hash no longer matches.
    let mut poisoned = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read entry");
        let truncated = &text[..text.len() - 1];
        std::fs::write(&path, format!("{truncated}X")).expect("poison entry");
        poisoned += 1;
    }
    assert_eq!(poisoned, 4, "one persisted entry per cell");

    // A fresh daemon on the same directory (empty memory LRU) must detect
    // the corruption on read, treat it as a miss, and re-simulate.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 64,
        cache_mem: 64,
        cache_dir: Some(dir.clone()),
        cache_bytes: 0,
    })
    .expect("restart");
    let addr = server.local_addr().to_string();
    let again = sweep(&addr, true);
    assert_eq!(again.cached, 0, "poisoned entries must not be served");
    assert_eq!(again.queued, 4);
    assert!(again.results.iter().all(|r| r.ok && !r.cached));
    assert_eq!(payloads(&first), payloads(&again), "re-simulation matches");

    // The rewritten entries serve the next sweep.
    let third = sweep(&addr, true);
    assert_eq!(third.cached, 4);
    assert_eq!(payloads(&first), payloads(&third));

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn overfull_job_is_rejected_whole_with_retry_hint() {
    let (server, addr, dir) = start("reject", 1);
    // Four cells against a one-cell queue: the job must be rejected
    // atomically, not half-admitted.
    let mut client = Client::connect(&addr).expect("connect");
    match client
        .sweep(&["pch", "nw"], &["OoO", "Dist-DA-F"], "tiny", false, false)
        .expect("sweep")
    {
        SweepReply::Rejected { retry_after_ms } => assert!(retry_after_ms > 0),
        SweepReply::Done(_) => panic!("4 cells cannot fit a queue of 1"),
    }
    // A job that fits still goes through afterwards.
    match client
        .sweep(&["pch"], &["OoO"], "tiny", false, false)
        .expect("sweep")
    {
        SweepReply::Done(t) => {
            assert_eq!(t.cells, 1);
            assert!(t.results[0].ok);
        }
        SweepReply::Rejected { .. } => panic!("1 cell fits a queue of 1"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn in_job_duplicates_dedupe_against_each_other() {
    let (server, addr, dir) = start("injob", 64);
    let mut client = Client::connect(&addr).expect("connect");
    // The same cell requested twice in one job (short name and display
    // name aliases) simulates once; the duplicate resolves from the cache
    // the first instance populates.
    let t = match client
        .sweep(&["pch", "pointer-chase"], &["OoO"], "tiny", true, true)
        .expect("sweep")
    {
        SweepReply::Done(t) => t,
        SweepReply::Rejected { .. } => panic!("unexpected rejection"),
    };
    assert_eq!(t.cells, 2);
    assert_eq!(t.queued, 1, "aliases are one cell as far as the cache goes");
    assert!(t.results.iter().all(|r| r.ok));
    assert_eq!(t.results[0].kernel, "pointer-chase");
    assert_eq!(t.results[1].kernel, "pointer-chase");
    assert_eq!(t.results[0].payload, t.results[1].payload);
    assert_eq!(t.results[0].config_hash, t.results[1].config_hash);

    // Bad requests error without being admitted.
    let err = client
        .sweep(&["no-such-kernel"], &["OoO"], "tiny", true, false)
        .expect_err("unknown kernel");
    assert!(err.contains("no-such-kernel"));
    let err = client
        .sweep(&["pch"], &["Giga-DA"], "tiny", true, false)
        .expect_err("unknown config");
    assert!(err.contains("Giga-DA"));
    let err = client
        .sweep(&["pch"], &["Dist-DA-IO:0x0"], "tiny", true, false)
        .expect_err("invalid config");
    assert!(err.contains("invalid config `Dist-DA-IO:0x0`"), "{err}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn warm_jobs_are_not_held_by_tcp_timers() {
    let (server, addr, dir) = start("latency", 64);
    let mut client = Client::connect(&addr).expect("connect");
    let mut job = || {
        let t0 = Instant::now();
        match client
            .sweep(&["pch"], &["OoO", "Dist-DA-F"], "tiny", true, false)
            .expect("sweep")
        {
            SweepReply::Done(t) => (t, t0.elapsed().as_secs_f64() * 1e3),
            SweepReply::Rejected { .. } => panic!("unexpected rejection"),
        }
    };
    let (prime, _) = job();
    assert_eq!(prime.queued, 2, "the priming job simulates");

    // A fully cached job is a fraction of a millisecond of work. A line
    // written in pieces with Nagle on waits out the peer's delayed ACK
    // (40 ms minimum on Linux) once per direction, so a median under half
    // of that means neither end is held by the timer.
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let (t, ms) = job();
            assert_eq!(t.done_cache_hits, 2);
            ms
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = (ms[9] + ms[10]) / 2.0;
    println!(
        "warm 2-cell job: median {median:.3} ms, max {:.3} ms",
        ms[19]
    );
    assert!(median < 20.0, "warm job median {median:.3} ms: {ms:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn idle_daemon_shuts_down_promptly() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::start(ServeConfig {
            addr: bind.to_string(),
            workers: 1,
            queue: 4,
            cache_mem: 4,
            cache_dir: None,
            cache_bytes: 0,
        })
        .expect("bind ephemeral port");
        let t0 = Instant::now();
        server.shutdown();
        let took = t0.elapsed();
        println!(
            "shutdown bound to {bind}: {:.3} ms",
            took.as_secs_f64() * 1e3
        );
        assert!(
            took < Duration::from_secs(1),
            "{bind}: shutdown took {took:?}"
        );
    }
}

#[test]
fn client_disconnect_mid_stream_keeps_simulated_work() {
    let (server, addr, dir) = start("disconnect", 64);

    // A raw client submits a cold 2-cell job and hangs up as soon as it is
    // admitted, long before either cell finishes simulating.
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(
        b"{\"req\":\"sweep\",\"kernels\":[\"pch\"],\"configs\":[\"OoO\",\"Dist-DA-F\"],\
          \"scale\":\"tiny\",\"dedupe\":true,\"payload\":false}\n",
    )
    .expect("send");
    let mut accepted = String::new();
    BufReader::new(&raw)
        .read_line(&mut accepted)
        .expect("read accepted");
    assert!(accepted.contains("\"event\":\"accepted\""), "{accepted}");
    drop(raw);

    // The daemon finishes the job anyway and caches both cells.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let metrics = fetch_metrics(&addr).expect("scrape /metrics");
        if metrics.contains("distda_serve_cells_completed_total 2") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the abandoned job's cells never completed:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = Client::connect(&addr).expect("connect");
    match client
        .sweep(&["pch"], &["OoO", "Dist-DA-F"], "tiny", true, false)
        .expect("sweep")
    {
        SweepReply::Done(t) => {
            println!("resubmitted job: {} cache hits", t.done_cache_hits);
            assert_eq!(t.done_cache_hits, 2, "nothing simulates twice");
            assert_eq!(t.summary_ticks, 0);
        }
        SweepReply::Rejected { .. } => panic!("unexpected rejection"),
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
