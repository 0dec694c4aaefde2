//! Self-tests of the benchmark: every workload at smoke size reports
//! every metric `BENCHMARK.json` declares, with its unit, and fails
//! nothing; wrong answers and stalls show where they must.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

use crate::churn::{self, ChurnCfg};
use crate::gen::{value_of, Gen, Planned};
use crate::ladder::Op;
use crate::report::{Metrics, Outcome};
use crate::restart::{self, RestartCfg};
use crate::trace::Tracer;
use crate::wire::{self, WireCfg};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark's directory");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string ends")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn assert_reports(out: &Outcome, section: &str) {
    let want = declared(section);
    let got: &Metrics = &out.metrics;
    for (name, unit) in &want {
        let (_, value, u) = got
            .0
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{section} metric {name} missing"));
        assert_eq!(u, unit, "unit of {name}");
        assert!(value.is_finite(), "{name} = {value}");
    }
    // `fail_ratio` is added by `main` for traced runs.
    let extra = got.0.iter().filter(|(n, _, _)| !want.iter().any(|(w, _)| w == n)).count();
    assert_eq!(extra, 0, "metrics not declared in {section}: {:?}", got.0);
    assert_eq!(out.tally.failed, 0, "failures: {:?}", out.tally.reasons);
    assert!(out.tally.attempted > 0);
}

fn add_fail_ratio(mut out: Outcome) -> Outcome {
    out.metrics.put("fail_ratio", out.tally.fail_ratio(), "ratio");
    out
}

fn smoke_wire() -> WireCfg {
    WireCfg {
        keys: 1_000,
        light: Duration::from_millis(600),
        busy: Duration::from_millis(400),
        step: Duration::from_millis(100),
        ladder: vec![5_000.0, 10_000.0],
        setups: 2,
        ladder_ops: 2_000,
        ..WireCfg::standard(1)
    }
}

fn smoke_churn() -> ChurnCfg {
    ChurnCfg {
        keys: 20_000,
        capacity: 5_000,
        light: Duration::from_millis(600),
        busy: Duration::from_millis(300),
        setups: 2,
        ladder_ops: 2_000,
        ..ChurnCfg::standard(1)
    }
}

fn smoke_restart() -> RestartCfg {
    RestartCfg {
        fill: 20_000,
        churn: 4_000,
        fresh: 4_000,
        light: Duration::from_millis(600),
        budget: Duration::ZERO,
        min_cycles: 2,
        pool_bytes: 16 << 20,
        ladder_ops: 2_000,
    }
}

#[test]
fn wire_mix_reports_every_metric() {
    assert_reports(&wire::run(&smoke_wire(), 3, false), "end_to_end");
    assert_reports(&add_fail_ratio(wire::run(&smoke_wire(), 3, true)), "per_layer");
}

#[test]
fn inproc_churn_reports_every_metric() {
    assert_reports(&churn::run(&smoke_churn(), 3, false), "end_to_end");
    assert_reports(&add_fail_ratio(churn::run(&smoke_churn(), 3, true)), "per_layer");
}

#[test]
fn restart_reports_every_metric() {
    assert_reports(&restart::run(&smoke_restart(), 3, false), "end_to_end");
    assert_reports(&add_fail_ratio(restart::run(&smoke_restart(), 3, true)), "per_layer");
}

/// A one-connection memcached stand-in: `answer(n, key)` gives the
/// value to return for the `n`th get, and `stall(n)` how long to wait
/// before answering request `n`.
fn stub_server(
    answer: impl Fn(u64, u64) -> u64 + Send + 'static,
    stall: impl Fn(u64) -> Duration + Send + 'static,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let h = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut out = stream.try_clone().expect("clone");
        let mut lines = BufReader::new(stream);
        let mut line = String::new();
        let mut n = 0;
        while lines.read_line(&mut line).is_ok_and(|r| r > 0) {
            let words: Vec<&str> = line.split_whitespace().collect();
            std::thread::sleep(stall(n));
            let reply = match words.as_slice() {
                ["get", k] => {
                    let v = answer(n, k.parse().expect("key")).to_string();
                    format!("VALUE {k} 0 {}\r\n{v}\r\nEND\r\n", v.len())
                }
                ["set", ..] => {
                    let mut data = String::new();
                    lines.read_line(&mut data).expect("data block");
                    "STORED\r\n".to_string()
                }
                _ => "ERROR\r\n".to_string(),
            };
            n += 1;
            if out.write_all(reply.as_bytes()).is_err() {
                break;
            }
            line.clear();
        }
    });
    (addr, h)
}

fn gets(rate: f64, span: Duration, keys: u64) -> Vec<Planned> {
    let mut rng = workload::Xorshift::new(9);
    crate::pace::poisson(&mut rng, rate, span)
        .into_iter()
        .map(|due| Planned { due, conn: 0, req: Op::Get(rng.key(keys)) })
        .collect()
}

fn filled(keys: u64) -> Vec<u64> {
    (0..=keys).map(|k| value_of(k, 1)).collect()
}

#[test]
fn another_keys_value_counts_as_a_failure() {
    // Every 10th get answers with the next key's value.
    let (addr, h) = stub_server(
        |n, k| if n % 10 == 9 { value_of(k + 1, 1) } else { value_of(k, 1) },
        |_| Duration::ZERO,
    );
    let mut gen = Gen::connect(addr, 1, filled(100)).expect("connect");
    let plan = gets(2_000.0, Duration::from_millis(200), 99);
    let res = gen.run(
        &plan,
        Duration::from_millis(500),
        Duration::from_millis(100),
        &mut Tracer::new(std::time::Instant::now(), false, 0),
    );
    drop(gen);
    h.join().expect("stub");
    assert!(res.tally.fail_ratio() > 0.05, "fail ratio {}", res.tally.fail_ratio());
    assert_eq!(res.tally.reasons.get("wrong_key").copied(), Some(res.tally.failed));
}

#[test]
fn a_stall_shows_in_the_p99_of_requests_scheduled_behind_it() {
    let (addr, h) = stub_server(
        |_, k| value_of(k, 1),
        |n| if n == 300 { Duration::from_millis(20) } else { Duration::ZERO },
    );
    let mut gen = Gen::connect(addr, 1, filled(100)).expect("connect");
    let plan = gets(2_000.0, Duration::from_millis(500), 99);
    let res = gen.run(
        &plan,
        Duration::from_millis(500),
        Duration::from_secs(1),
        &mut Tracer::new(std::time::Instant::now(), false, 0),
    );
    drop(gen);
    h.join().expect("stub");
    assert_eq!(res.tally.failed, 0);
    // About 40 requests fall due during the 20 ms stall; a closed loop
    // would have charged it to one request only.
    let p99 = res.get.percentile_interp(99.0) / 1e6;
    let p50 = res.get.percentile_interp(50.0) / 1e6;
    assert!(p99 > 5.0, "p99 {p99} ms");
    assert!(p50 < 2.0, "p50 {p50} ms");
}

#[test]
fn the_restart_oracle_catches_a_lost_acknowledged_key() {
    let (trace, recovered) = restart::crash_and_recover(&smoke_restart(), 5);
    let mut snapshot: std::collections::BTreeMap<u64, u64> = recovered.into_iter().collect();
    assert_eq!(restart::oracle_violations(5, &trace, &snapshot), 0);
    let acked = *snapshot.keys().next().expect("a recovered key");
    snapshot.remove(&acked);
    assert!(restart::oracle_violations(5, &trace, &snapshot) > 0);
}
