//! Warm replica-set pool: equivalence, determinism, exhaustion fallback,
//! mid-connection outvoting of a pooled corrupt replica, and crash-loop
//! containment.
//!
//! The pool's contract is that warmth is *invisible* in every observable
//! outcome: for the same `LaunchConfig`, a run served by a pre-spawned
//! parked set and a run served by an inline cold spawn produce the same
//! committed bytes, the same full [`StreamOutcome`] (including the
//! buffer-mode `peak_buffered` accounting, via
//! `Session::adopt_buffer_input`), and the same per-replica seed
//! assignment. Over TCP, peak buffering depends on scheduling, so there it
//! is held to the `(2 × replicas + 1) × chunk` bound rather than to
//! equality. This file pins that contract at three layers — the
//! `run_pooled` pipe transport against the golden equivalence corpus, the
//! TCP proxy with `--pool 0` vs `--pool N`, and the `diehard` launcher
//! binary end to end — plus the failure paths: an exhausted pool falls
//! back to cold spawning transparently, a corrupt-seed replica handed out
//! warm is still outvoted mid-connection, and a target binary that dies at
//! startup is reaped with back-off instead of respawned in a hot loop.

#![cfg(unix)]

use diehard_replicate::net::Listener;
use diehard_replicate::proxy::{Proxy, ProxySummary};
use diehard_replicate::{run_pooled, run_streamed, InputSource, LaunchConfig, Pool, StreamOutcome};
use diehard_workloads::client::{drive, Pace};
use diehard_workloads::server::{self, ServerRequest};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn sh(script: &str) -> Vec<String> {
    vec!["/bin/sh".into(), "-c".into(), script.into()]
}

/// Cold reference run (buffer-mode `run_streamed`).
fn run_cold(cfg: &LaunchConfig, input: &[u8]) -> (Vec<u8>, StreamOutcome) {
    let mut out = Vec::new();
    let outcome = run_streamed(cfg, InputSource::Buffer(input.to_vec()), &mut out)
        .expect("cold launch must succeed");
    (out, outcome)
}

/// Warm run: a depth-1 pool primed before the input exists, then drained
/// through `run_pooled` with the same buffered input.
fn run_warm(cfg: &LaunchConfig, input: &[u8]) -> (Vec<u8>, StreamOutcome) {
    let mut pool = Pool::new(cfg.clone(), 1).expect("valid config");
    pool.prime();
    assert_eq!(pool.idle_len(), 1, "prime must park the set");
    let mut out = Vec::new();
    let outcome = run_pooled(&mut pool, InputSource::Buffer(input.to_vec()), &mut out)
        .expect("pooled launch must succeed");
    assert_eq!(pool.stats().handed_out, 1, "the run must be a pool hit");
    assert_eq!(pool.stats().cold_spawns, 0);
    (out, outcome)
}

/// The `--pool 0` ≡ cold contract, full-struct: every scenario from the
/// golden equivalence corpus produces the identical `StreamOutcome`
/// whether the set is handed out warm or spawned inline. Scenarios with
/// explicit seeds also pin the *voting*-relevant paths (minority kill,
/// three-way divergence) to identical resolutions.
///
/// The scripts are stdin-gated (`cat >/dev/null; ...`) so a parked set
/// blocks alive on its empty stdin pipe until the run adopts its input —
/// making the warm handoff deterministic. (An *ungated* fast-exiting
/// script dies while parked; the pool reaps it and falls back cold with
/// identical outcomes — that path is pinned by the unit tests and by
/// `exhausted_pool_falls_back_to_cold_with_identical_transcripts`.) The
/// gate consumes the (empty) input and emits nothing, so the golden
/// `StreamOutcome` values from `tests/pipe_equivalence.rs` carry over
/// unchanged — asserted literally for the outvoted-minority case.
#[test]
fn pooled_outcome_matches_cold_over_golden_corpus() {
    let mut corpus: Vec<(&str, LaunchConfig, &[u8])> = Vec::new();
    corpus.push((
        "small echo",
        LaunchConfig::new(3, sh("cat"), Vec::new()),
        b"hello replicated world\n",
    ));
    let mut outvoted = LaunchConfig::new(
        3,
        sh(r#"cat >/dev/null; if [ "$DIEHARD_SEED" = "7" ]; then echo bad; else echo good; fi"#),
        Vec::new(),
    );
    outvoted.seeds = vec![1, 7, 2];
    corpus.push(("outvoted minority", outvoted, b""));
    corpus.push((
        "unanimous nonzero exit",
        LaunchConfig::new(3, sh("cat >/dev/null; printf '0\\n'; exit 7"), Vec::new()),
        b"",
    ));
    let mut divergent = LaunchConfig::new(3, sh("cat >/dev/null; echo $DIEHARD_SEED"), Vec::new());
    divergent.seeds = vec![1, 2, 3];
    corpus.push(("three-way divergence", divergent, b""));
    corpus.push((
        "stderr counts toward peak",
        LaunchConfig::new(
            3,
            sh("cat >/dev/null; echo diag >&2; echo payload"),
            Vec::new(),
        ),
        b"",
    ));

    for (name, cfg, input) in corpus {
        let (cold_out, cold_outcome) = run_cold(&cfg, input);
        let (warm_out, warm_outcome) = run_warm(&cfg, input);
        assert_eq!(warm_out, cold_out, "{name}: committed bytes must match");
        assert_eq!(
            warm_outcome, cold_outcome,
            "{name}: full StreamOutcome (incl. peak_buffered) must match"
        );
        if name == "outvoted minority" {
            assert_eq!(
                warm_outcome,
                StreamOutcome {
                    diverged: false,
                    killed: vec![1],
                    exit_code: Some(0),
                    committed: 5,
                    peak_buffered: 14,
                    stderr: vec![],
                    stderr_dropped: 0,
                },
                "{name}: the golden corpus values must carry over to the warm path"
            );
        }
    }
}

/// A depth-0 pool never parks anything: `run_pooled` through it IS the
/// cold path, byte- and struct-identical, and the stats say so.
#[test]
fn depth_zero_pool_is_the_cold_path() {
    let input = b"hello replicated world\n";
    let cfg = LaunchConfig::new(3, sh("cat"), Vec::new());
    let (cold_out, cold_outcome) = run_cold(&cfg, input);

    let mut pool = Pool::new(cfg, 0).expect("valid config");
    pool.prime(); // no-op at depth 0
    assert_eq!(pool.idle_len(), 0);
    let mut out = Vec::new();
    let outcome = run_pooled(&mut pool, InputSource::Buffer(input.to_vec()), &mut out)
        .expect("launch must succeed");
    assert_eq!(out, cold_out);
    assert_eq!(outcome, cold_outcome);
    assert_eq!(pool.stats().handed_out, 0);
    assert_eq!(pool.stats().cold_spawns, 1);
}

/// Exhaustion at the transport layer, fully deterministic: `run_pooled`
/// does not refill mid-run, so a depth-1 pool serves the first run warm
/// and the second cold — and both transcripts and outcomes are identical
/// to each other and to the cold reference.
#[test]
fn exhausted_pool_falls_back_to_cold_with_identical_transcripts() {
    let mut cfg = LaunchConfig::new(
        3,
        sh(r#"cat >/dev/null; if [ "$DIEHARD_SEED" = "7" ]; then echo bad; else echo good; fi"#),
        Vec::new(),
    );
    cfg.seeds = vec![1, 7, 2];
    let (ref_out, ref_outcome) = run_cold(&cfg, b"");

    let mut pool = Pool::new(cfg, 1).expect("valid config");
    pool.prime();
    for round in 0..2 {
        let mut out = Vec::new();
        let outcome = run_pooled(&mut pool, InputSource::Buffer(Vec::new()), &mut out)
            .expect("launch must succeed");
        assert_eq!(out, ref_out, "round {round}");
        assert_eq!(outcome, ref_outcome, "round {round}");
    }
    let stats = pool.stats();
    assert_eq!(stats.handed_out, 1, "first run is the pool hit");
    assert_eq!(stats.cold_spawns, 1, "second run is the cold fallback");
}

/// The server protocol with an injectable fault (same shape as
/// `tests/proxy.rs`): when `$DIEHARD_SEED` = 7, `ECHO poison*` answers
/// `KO ...` instead of `OK ...` — a same-length corruption only the vote
/// can see.
fn poisonable_server() -> Vec<String> {
    let script = format!(
        r#"if [ "$DIEHARD_SEED" = "7" ]; then
  while IFS= read -r line; do
    case "$line" in
      "ECHO poison"*) printf 'KO %s\n' "${{line#ECHO }}";;
      "ECHO "*) printf 'OK %s\n' "${{line#ECHO }}";;
      "QUIT") exit 0;;
      *) printf 'ERR\n';;
    esac
  done
else
{server}
fi"#,
        server = server::SERVER_SCRIPT
    );
    vec!["/bin/sh".into(), "-c".into(), script]
}

type ProxyHandle = std::thread::JoinHandle<io::Result<ProxySummary>>;

fn spawn_proxy(mut proxy: Proxy) -> (u16, Arc<AtomicBool>, ProxyHandle) {
    let port = proxy.local_port().expect("bound port");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || proxy.run(&flag));
    (port, stop, handle)
}

fn stop_and_join(stop: &AtomicBool, handle: ProxyHandle) -> ProxySummary {
    stop.store(true, Ordering::Release);
    handle.join().expect("proxy thread").expect("reactor ran")
}

/// Spin until the pool gauge reports at least `want` parked sets.
fn wait_for_warmth(gauge: &AtomicUsize, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while gauge.load(Ordering::Acquire) < want {
        assert!(Instant::now() < deadline, "pool never warmed to {want}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Determinism pinned across the proxy: for the same explicit seeds, a
/// `--pool 0` proxy and a `--pool 2` proxy produce bit-identical voted
/// transcripts, identical per-connection outcomes, and identical
/// per-replica seed assignment — warmth changes *when* fork/exec happens,
/// never what the connection observes.
#[test]
fn proxy_transcripts_and_seeds_identical_pool_0_vs_pool_2() {
    const CONNS: usize = 4;
    let traces: Vec<Vec<ServerRequest>> = (0..CONNS)
        .map(|i| server::trace(0xD1E ^ (i as u64), 12))
        .collect();

    let run_with_depth = |depth: usize| -> (Vec<Vec<u8>>, ProxySummary) {
        let mut config = LaunchConfig::new(3, poisonable_server(), Vec::new());
        config.seeds = vec![1, 7, 2];
        let listener = Listener::bind_loopback(0).expect("bind");
        let mut proxy = Proxy::new(listener, config).expect("chunk valid");
        let gauge = proxy.pool_gauge();
        if depth > 0 {
            proxy = proxy.with_pool(depth);
        }
        let (port, stop, handle) = spawn_proxy(proxy);
        if depth > 0 {
            wait_for_warmth(&gauge, 1);
        }
        let responses: Vec<Vec<u8>> = traces
            .iter()
            .map(|requests| drive(port, requests, Pace::full()).expect("client I/O"))
            .collect();
        (responses, stop_and_join(&stop, handle))
    };

    let (cold_responses, cold_summary) = run_with_depth(0);
    let (warm_responses, warm_summary) = run_with_depth(2);

    for (i, requests) in traces.iter().enumerate() {
        assert_eq!(
            cold_responses[i],
            server::expected_output(requests),
            "connection {i}: cold transcript must be the voted protocol"
        );
        assert_eq!(
            warm_responses[i], cold_responses[i],
            "connection {i}: warm transcript must be bit-identical to cold"
        );
    }
    assert_eq!(cold_summary.accepted, CONNS as u64);
    assert_eq!(warm_summary.accepted, CONNS as u64);
    assert_eq!(warm_summary.diverged, cold_summary.diverged);
    // Sequential clients => completion order is accept order in both runs.
    // Every deterministic outcome field must match exactly. Peak buffering
    // on a socket depends on how replica output interleaves with the
    // reactor's reads, so each run is held to the documented per-connection
    // bound instead of to equality.
    let bound = (2 * 3 + 1) * LaunchConfig::new(3, poisonable_server(), Vec::new()).chunk;
    for (i, (cold, warm)) in cold_summary
        .reports
        .iter()
        .zip(&warm_summary.reports)
        .enumerate()
    {
        assert_eq!(
            warm.seeds, cold.seeds,
            "replica seed assignment must not depend on pool depth"
        );
        assert_eq!(warm.seeds, vec![1, 7, 2]);
        assert_eq!(
            warm.outcome.is_some(),
            cold.outcome.is_some(),
            "connection {i}: both runs must finish voting, or neither"
        );
        let (Some(c), Some(w)) = (&cold.outcome, &warm.outcome) else {
            continue;
        };
        assert_eq!(
            (w.diverged, &w.killed, w.exit_code, w.committed),
            (c.diverged, &c.killed, c.exit_code, c.committed),
            "connection {i}: per-connection outcomes must match"
        );
        assert_eq!(
            (&w.stderr, w.stderr_dropped),
            (&c.stderr, c.stderr_dropped),
            "connection {i}: voted stderr must match"
        );
        for (run, o) in [("cold", c), ("warm", w)] {
            assert!(
                o.peak_buffered <= bound,
                "connection {i} ({run}): peak_buffered {} above the bound {bound}",
                o.peak_buffered
            );
        }
    }
    // And the pool actually served warm sets (we waited for warmth before
    // the first connect, so at least that connection was a pool hit).
    assert_eq!(cold_summary.pool.handed_out, 0);
    assert_eq!(cold_summary.pool.cold_spawns, CONNS as u64);
    assert!(warm_summary.pool.handed_out >= 1, "{:?}", warm_summary.pool);
    assert_eq!(
        warm_summary.pool.handed_out + warm_summary.pool.cold_spawns,
        CONNS as u64
    );
}

/// A corrupt-seed replica handed out *warm* is still outvoted
/// mid-connection: the parked set's seed-7 member answers the poisoned
/// echo wrong, loses the chunk-0 barrier 2–1, and is SIGKILLed while the
/// survivors keep streaming the rest of the trace byte-exact.
#[test]
fn pooled_corrupt_replica_is_outvoted_mid_connection() {
    let mut config = LaunchConfig::new(3, poisonable_server(), Vec::new());
    config.seeds = vec![1, 7, 2];
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("chunk valid");
    let gauge = proxy.pool_gauge();
    let proxy = proxy.with_pool(1);
    let (port, stop, handle) = spawn_proxy(proxy);
    wait_for_warmth(&gauge, 1);

    let requests = vec![
        ServerRequest::Echo("poison-trigger-0001".into()),
        ServerRequest::Produce(2000),
        ServerRequest::Quit,
    ];
    let response = drive(port, &requests, Pace::full()).expect("client I/O");
    let summary = stop_and_join(&stop, handle);

    assert_eq!(response, server::expected_output(&requests));
    assert_eq!(summary.accepted, 1);
    assert_eq!(
        summary.pool.handed_out, 1,
        "the set must come from the pool"
    );
    assert_eq!(summary.pool.cold_spawns, 0);
    let report = &summary.reports[0];
    assert_eq!(report.seeds, vec![1, 7, 2]);
    let outcome = report.outcome.as_ref().expect("session resolved");
    assert_eq!(
        outcome.killed,
        vec![1],
        "the warm seed-7 replica must be killed at the poisoned barrier"
    );
    assert!(!outcome.diverged);
}

/// Concurrent burst against a shallow pool: every connection beyond the
/// parked inventory cold-spawns transparently, and every transcript —
/// warm-served or cold-served — is byte-exact.
#[test]
fn proxy_pool_exhaustion_burst_stays_byte_exact() {
    let mut config = LaunchConfig::new(3, poisonable_server(), Vec::new());
    config.seeds = vec![1, 7, 2];
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("chunk valid");
    let gauge = proxy.pool_gauge();
    let proxy = proxy.with_pool(1);
    let (port, stop, handle) = spawn_proxy(proxy);
    wait_for_warmth(&gauge, 1);

    const CLIENTS: usize = 4;
    let gate = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let requests = server::trace(0xB0B ^ (i as u64), 10);
                gate.wait(); // the whole burst lands together
                let response = drive(port, &requests, Pace::full()).expect("client I/O");
                (i, requests, response)
            })
        })
        .collect();
    for client in clients {
        let (i, requests, response) = client.join().expect("client thread");
        assert_eq!(
            response,
            server::expected_output(&requests),
            "connection {i}: exhaustion fallback must not change a byte"
        );
    }
    let summary = stop_and_join(&stop, handle);
    assert_eq!(summary.accepted, CLIENTS as u64);
    assert_eq!(summary.diverged, 0);
    assert!(
        summary.pool.handed_out >= 1,
        "the pre-warmed set must serve at least one connection: {:?}",
        summary.pool
    );
    assert_eq!(
        summary.pool.handed_out + summary.pool.cold_spawns,
        CLIENTS as u64,
        "every connection is served warm or cold, nothing dropped: {:?}",
        summary.pool
    );
}

/// A target binary that exits at startup must not turn the refill loop
/// into a fork bomb: parked deaths are reaped (never handed out) and the
/// respawn rate is clamped by exponential back-off, so a second of idle
/// reactor time spawns a bounded handful of sets, not thousands.
#[test]
fn crashing_target_is_reaped_with_backoff_not_respawned_hot() {
    let config = LaunchConfig::new(3, sh("exit 0"), Vec::new());
    let listener = Listener::bind_loopback(0).expect("bind");
    let proxy = Proxy::new(listener, config).expect("chunk valid");
    let proxy = proxy.with_pool(2);
    let (_port, stop, handle) = spawn_proxy(proxy);

    std::thread::sleep(Duration::from_millis(1000));
    let summary = stop_and_join(&stop, handle);

    assert!(
        summary.pool.reaped_idle >= 1,
        "instantly-exiting sets must be detected and reaped: {:?}",
        summary.pool
    );
    assert_eq!(summary.pool.handed_out, 0);
    assert!(
        summary.pool.spawned <= 40,
        "back-off must bound the respawn rate (spawned {} sets in ~1 s)",
        summary.pool.spawned
    );
}

/// End-to-end through the launcher binary: `--pool 2` with an explicit
/// `--seed` produces byte-identical stdout/stderr and the same exit
/// status as the default cold path.
#[test]
fn launcher_pool_flag_is_byte_identical_to_cold() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let run = |extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_diehard"));
        cmd.args(["--seed", "42"])
            .args(extra)
            .args(["--", "/bin/sh", "-c", "tr a-z A-Z"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("launcher spawns");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(b"voted output, warm or cold\n")
            .expect("feed stdin");
        child.wait_with_output().expect("launcher runs")
    };

    let cold = run(&[]);
    let warm = run(&["--pool", "2"]);
    assert_eq!(cold.stdout, b"VOTED OUTPUT, WARM OR COLD\n");
    assert_eq!(warm.stdout, cold.stdout);
    assert_eq!(warm.stderr, cold.stderr);
    assert_eq!(warm.status.code(), cold.status.code());
    assert_eq!(warm.status.code(), Some(0));
}
