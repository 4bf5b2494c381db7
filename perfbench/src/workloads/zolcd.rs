//! `zolcd_mixed`: an in-process `zolcd` on loopback, driven by a closed
//! loop of two client connections that each send sequentially.
//!
//! The job mix, all derived from the seed: a ZOLClite retarget, a uZOLC
//! retarget and a ZOLClite lint of every binary (generated programs and
//! corpus programs built for the baseline core), plus one small `nest`
//! sweep. Set-up binds the daemon and computes every expected response
//! offline with `server::offline_*_response`. The cold phase submits
//! every key once; the warm phase repeats them until the time is up.
//! One op is one request; every response is byte-compared with its
//! offline counterpart, and the `stats` op must show one miss per key
//! after the cold phase and a hit for every warm request.

use super::{repeated_setup, shuffled, Params};
use crate::report::{latency_metrics, median, DaemonLayer, Layers, Metric, Outcome};
use crate::run::Counters;
use crate::trace::Tracer;
use std::sync::Arc;
use std::thread;
use std::time::Instant;
use zolc_bench::json::{self, Json};
use zolc_bench::{SweepConfig, SweepPoint};
use zolc_core::ZolcConfig;
use zolc_daemon::protocol::{lint_request, ok_response, retarget_request, sweep_request};
use zolc_daemon::server::{
    lint_result, offline_lint_response, offline_retarget_response, offline_sweep_response,
    retarget_result, sweep_result,
};
use zolc_daemon::{Client, Daemon, DaemonConfig};
use zolc_gen::{GenConfig, ProgramSpec};
use zolc_ir::Target;
use zolc_isa::Program;
use zolc_sim::ExecutorKind;

/// Client connections.
const CLIENTS: usize = 2;

/// The result caches, in `stats` order.
const CACHES: [&str; 3] = ["retarget", "lint", "sweep"];

#[derive(Debug, Clone)]
enum Op {
    Retarget(Arc<Program>, ZolcConfig),
    Lint(Arc<Program>, ZolcConfig),
    Sweep(SweepConfig),
}

impl Op {
    fn cache(&self) -> usize {
        match self {
            Op::Retarget(..) => 0,
            Op::Lint(..) => 1,
            Op::Sweep(_) => 2,
        }
    }

    fn send(&self, client: &mut Client) -> std::io::Result<Vec<u8>> {
        match self {
            Op::Retarget(p, c) => client.retarget(p, c),
            Op::Lint(p, c) => client.lint(p, Some(c)),
            Op::Sweep(cfg) => client.sweep(cfg),
        }
    }

    fn offline(&self) -> Vec<u8> {
        match self {
            Op::Retarget(p, c) => offline_retarget_response(p, c),
            Op::Lint(p, c) => offline_lint_response(p, Some(c)),
            Op::Sweep(cfg) => offline_sweep_response(cfg),
        }
    }

    /// The offline response again, as spans: the request rendering and
    /// response wrapping (`daemon.encode`), the `server::*_result`
    /// compute (`daemon.compute`) and, for retarget and lint jobs, the
    /// `zolc_cfg` calls inside it.
    fn decomposed(&self, tr: &mut Tracer, c: &mut Counters) -> Vec<u8> {
        let request = tr.span("daemon.encode", |_| match self {
            Op::Retarget(p, c) => retarget_request(p, c).render(),
            Op::Lint(p, c) => lint_request(p, Some(c)).render(),
            Op::Sweep(cfg) => sweep_request(cfg).render(),
        });
        std::hint::black_box(request);
        let result = tr.span("daemon.compute", |_| match self {
            Op::Retarget(p, c) => retarget_result(p, c),
            Op::Lint(p, c) => lint_result(p, Some(c)),
            Op::Sweep(cfg) => sweep_result(cfg),
        });
        if let Op::Retarget(p, config) | Op::Lint(p, config) = self {
            let wire = Program::from_parts(p.text().to_vec(), p.data().to_vec());
            if let Ok(r) = tr.span("cfg.retarget", |_| zolc_cfg::retarget(&wire, config)) {
                c.retarget_outcome(r.counted.len(), r.unhandled.len());
                if let Op::Lint(..) = self {
                    tr.span("cfg.lint", |_| {
                        zolc_cfg::lint_program(&r.program, Some(&r.image))
                    });
                }
            }
        }
        tr.span("daemon.encode", |_| match result {
            Ok(doc) => ok_response(&doc),
            Err(e) => zolc_daemon::protocol::err_response(&e),
        })
    }
}

struct Job {
    op: Op,
    /// Whether the binary is a corpus program.
    corpus: bool,
    expected: Vec<u8>,
}

/// A daemon serving on a background thread.
struct Server {
    addr: std::net::SocketAddr,
    handle: thread::JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start() -> std::io::Result<Server> {
        let daemon = Daemon::bind(&DaemonConfig::new())?;
        let addr = daemon.local_addr();
        Ok(Server {
            addr,
            handle: thread::spawn(move || daemon.run()),
        })
    }

    /// Sends `shutdown` and waits for the daemon to drain; `true` when
    /// it stopped cleanly.
    fn stop(self) -> bool {
        let sent = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        matches!(self.handle.join(), Ok(Ok(()))) && sent.is_ok()
    }
}

/// The binaries of the job mix, each marked whether it is a corpus
/// program.
fn programs(p: &Params) -> Result<Vec<(Arc<Program>, bool)>, String> {
    let mut out = Vec::new();
    let gen = GenConfig::default();
    for i in 0..p.size(16, 2) as u64 {
        let seed = p.seed.wrapping_mul(10_000_000).wrapping_add(5_000_000 + i);
        let a = ProgramSpec::generate(seed, &gen)
            .assemble()
            .map_err(|e| format!("generated program {seed}: {e}"))?;
        out.push((Arc::new(a.program), false));
    }
    for e in zolc_lang::corpus().iter().take(p.size(usize::MAX, 2)) {
        let unit = zolc_lang::compile(e.name, e.source).map_err(|d| format!("{}: {d}", e.name))?;
        let base = unit
            .build(&Target::Baseline)
            .map_err(|err| format!("{}: {err}", e.name))?;
        out.push((Arc::clone(base.program.source()), true));
    }
    Ok(out)
}

fn jobs(p: &Params) -> Result<Vec<Job>, String> {
    let mut ops = Vec::new();
    for (prog, corpus) in programs(p)? {
        ops.push((Op::Retarget(Arc::clone(&prog), ZolcConfig::lite()), corpus));
        ops.push((Op::Retarget(Arc::clone(&prog), ZolcConfig::micro()), corpus));
        ops.push((Op::Lint(prog, ZolcConfig::lite()), corpus));
    }
    let sweep = Op::Sweep(
        SweepConfig::new()
            .with_programs(p.size(4, 1))
            .with_base_seed(p.seed.wrapping_mul(10_000_000).wrapping_add(7_000_000))
            .with_points(vec![
                SweepPoint::new("ZOLClite", ZolcConfig::lite()),
                SweepPoint::new("uZOLC", ZolcConfig::micro()),
            ])
            .with_executor(ExecutorKind::Nest),
    );
    ops.push((sweep, false));
    Ok(ops
        .into_iter()
        .map(|(op, corpus)| Job {
            expected: op.offline(),
            op,
            corpus,
        })
        .collect())
}

/// What one client connection measured in one phase.
#[derive(Default)]
struct ClientLog {
    /// Round trips, milliseconds, with whether the pass was traced.
    rts: Vec<(f64, bool)>,
    attempted: u64,
    failed: u64,
    /// Requests per cache.
    per_cache: [u64; 3],
    traced_wall_ns: u64,
    tracer: Option<Tracer>,
}

/// Client `j` sends its share of the keys: once (`warm == false`) or in
/// passes until `deadline`.
fn client(
    addr: std::net::SocketAddr,
    jobs: &[Job],
    j: usize,
    p: &Params,
    warm: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tr = Tracer::new(p.trace);
    let mine: Vec<usize> = shuffled(jobs.len(), p.seed)
        .into_iter()
        .skip(j)
        .step_by(CLIENTS)
        .collect();
    let mut conn = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("zolcd_mixed: client {j}: connect: {e}");
            log.attempted = mine.len() as u64;
            log.failed = log.attempted;
            return log;
        }
    };
    let mut pass = 0u64;
    loop {
        let order = shuffled(mine.len(), p.seed ^ (pass << 8 | j as u64));
        for &k in &order {
            // Warm requests alternate traced and plain, for the overhead.
            let traced = p.trace && (warm.is_none() || log.attempted % 2 == 0);
            let job = &jobs[mine[k]];
            let id = mine[k] as u64;
            let t = Instant::now();
            let ok = if traced {
                tr.op_span("bench.request", id, |tr| {
                    let r = tr.span("daemon.roundtrip", |_| job.op.send(&mut conn));
                    tr.span("bench.check", |_| r.is_ok_and(|b| b == job.expected))
                })
            } else {
                job.op.send(&mut conn).is_ok_and(|b| b == job.expected)
            };
            let elapsed = t.elapsed();
            log.rts.push((elapsed.as_secs_f64() * 1e3, traced));
            if traced {
                log.traced_wall_ns += elapsed.as_nanos() as u64;
            }
            log.attempted += 1;
            log.per_cache[job.op.cache()] += 1;
            if !ok {
                eprintln!("zolcd_mixed: request {id} failed or differs from offline");
                log.failed += 1;
            }
        }
        pass += 1;
        match warm {
            Some(deadline) if Instant::now() < deadline => {}
            _ => break,
        }
    }
    log.tracer = Some(tr);
    log
}

/// Runs every client on its own thread.
fn phase(
    addr: std::net::SocketAddr,
    jobs: &[Job],
    p: &Params,
    warm: Option<Instant>,
) -> Vec<ClientLog> {
    thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|j| s.spawn(move || client(addr, jobs, j, p, warm)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// `[hits, misses]` per cache from the `stats` op.
fn cache_stats(addr: std::net::SocketAddr) -> Option<[[u64; 2]; 3]> {
    let stats = Client::connect(addr).and_then(|mut c| c.stats()).ok()?;
    let mut out = [[0; 2]; 3];
    for (slot, name) in out.iter_mut().zip(CACHES) {
        let cache = stats.get(name)?;
        *slot = [cache.get("hits")?.as_u64()?, cache.get("misses")?.as_u64()?];
    }
    Some(out)
}

/// Hardware-mapped share of the loops in the ZOLClite retarget results
/// of the corpus binaries (the generated ones vary with the seed too
/// much for a gated figure; their results are byte-checked all the same).
fn lite_hw_pct(jobs: &[Job]) -> f64 {
    let (mut hw, mut loops) = (0u64, 0u64);
    for job in jobs {
        let Op::Retarget(_, cfg) = &job.op else {
            continue;
        };
        if *cfg != ZolcConfig::lite() || !job.corpus {
            continue;
        }
        let doc = std::str::from_utf8(&job.expected)
            .ok()
            .and_then(|s| json::parse(s).ok());
        let result = doc.as_ref().and_then(|d| d.get("result"));
        if let Some(r) = result {
            let h = r.get("hw_loops").and_then(Json::as_u64).unwrap_or(0);
            let u = r
                .get("unhandled")
                .and_then(Json::as_arr)
                .map_or(0, |a| a.len() as u64);
            hw += h;
            loops += h + u;
        }
    }
    100.0 * hw as f64 / loops.max(1) as f64
}

fn failure(setup_s: f64, e: String) -> Outcome {
    eprintln!("zolcd_mixed: {e}");
    Outcome {
        attempted: 1,
        failed: 1,
        setup_s,
        ops_per_s: 0.0,
        latencies_ms: Vec::new(),
        hw_loop_pct: 0.0,
        threads: CLIENTS,
        named: Vec::new(),
        layers: None,
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut servers = Vec::new();
    let (setup, setup_s) = repeated_setup(p, || {
        let jobs = jobs(p)?;
        servers.push(Server::start().map_err(|e| format!("bind: {e}"))?);
        Ok::<_, String>(jobs)
    });
    let server = servers.pop();
    for s in servers {
        s.stop();
    }
    let (jobs, server) = match (setup, server) {
        (Ok(jobs), Some(server)) => (jobs, server),
        (Err(e), server) => {
            server.map(Server::stop);
            return failure(setup_s, e);
        }
        (Ok(_), None) => return failure(setup_s, "no daemon".into()),
    };
    let addr = server.addr;
    let keys_per_cache = {
        let mut n = [0u64; 3];
        for j in &jobs {
            n[j.op.cache()] += 1;
        }
        n
    };

    let deadline = p.deadline();
    let start = Instant::now();
    let cold = phase(addr, &jobs, p, None);
    let mut wall_s = start.elapsed().as_secs_f64();
    let after_cold = cache_stats(addr);
    let start = Instant::now();
    let warm = phase(addr, &jobs, p, Some(deadline));
    wall_s += start.elapsed().as_secs_f64();
    let after_warm = cache_stats(addr);
    let stopped = server.stop();

    let logs = || cold.iter().chain(&warm);
    let mut attempted: u64 = logs().map(|l| l.attempted).sum();
    let mut failed: u64 = logs().map(|l| l.failed).sum();
    // Cache bookkeeping: one miss per key after the cold phase, and a
    // hit for every warm request.
    let mut warm_per_cache = [0u64; 3];
    for l in &warm {
        for (w, n) in warm_per_cache.iter_mut().zip(l.per_cache) {
            *w += n;
        }
    }
    attempted += 2;
    match (after_cold, after_warm) {
        (Some(c), Some(w)) => {
            for k in 0..3 {
                let cold_ok = c[k] == [0, keys_per_cache[k]];
                let warm_ok = w[k] == [warm_per_cache[k], keys_per_cache[k]];
                if !cold_ok || !warm_ok {
                    eprintln!(
                        "zolcd_mixed: {} cache: {:?} after cold, {:?} after warm, expected misses {} and {} warm hits",
                        CACHES[k], c[k], w[k], keys_per_cache[k], warm_per_cache[k]
                    );
                    failed += 1;
                }
            }
        }
        _ => {
            eprintln!("zolcd_mixed: stats op failed");
            failed += 1;
        }
    }
    if !stopped {
        eprintln!("zolcd_mixed: daemon did not shut down cleanly");
        failed += 1;
    }

    let rts = |logs: &[ClientLog]| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.rts.iter().map(|r| r.0))
            .collect()
    };
    let (cold_ms, warm_ms) = (rts(&cold), rts(&warm));
    let mut named = latency_metrics("zolcd.cold", &cold_ms);
    named.extend(latency_metrics("zolcd.warm", &warm_ms));
    named.push(Metric::new("zolcd.keys", jobs.len() as f64, "count"));
    let all: Vec<f64> = cold_ms.iter().chain(&warm_ms).copied().collect();

    let layers = p.trace.then(|| {
        let mut setup_tr = Tracer::new(true);
        let mut c = Counters::default();
        for job in &jobs {
            attempted += 1;
            if job.op.decomposed(&mut setup_tr, &mut c) != job.expected {
                failed += 1;
            }
        }
        let by = setup_tr.by_name();
        let encode_us = by
            .get("daemon.encode")
            .map_or(0.0, |a| a.self_ns as f64 / jobs.len() as f64 / 1e3);
        let compute_us = by.get("daemon.compute").map_or(0.0, |a| a.mean_self_us());
        let mut measure = Tracer::new(true);
        let mut wall_ns = 0;
        let (mut traced_rt, mut plain_rt) = (Vec::new(), Vec::new());
        for log in cold.into_iter().chain(warm) {
            wall_ns += log.traced_wall_ns;
            for (ms, traced) in &log.rts {
                if *traced {
                    &mut traced_rt
                } else {
                    &mut plain_rt
                }
                .push(*ms);
            }
            if let Some(t) = log.tracer {
                measure.absorb(t);
            }
        }
        let final_stats = after_warm.unwrap_or_default();
        Layers {
            setup: setup_tr,
            measure,
            wall_ns,
            counters: c,
            trace_overhead_pct: if plain_rt.is_empty() {
                0.0
            } else {
                100.0 * (median(&traced_rt) / median(&plain_rt) - 1.0)
            },
            clock_ns: 0.0,
            daemon: DaemonLayer {
                encode_us,
                compute_us,
                wire_ms: median(&warm_ms) - encode_us / 1e3,
                cache_hits: final_stats.iter().map(|s| s[0]).sum(),
                cache_misses: final_stats.iter().map(|s| s[1]).sum(),
            },
        }
    });
    Outcome {
        attempted,
        failed,
        setup_s,
        ops_per_s: all.len() as f64 / wall_s,
        latencies_ms: all,
        hw_loop_pct: lite_hw_pct(&jobs),
        threads: CLIENTS,
        named,
        layers,
    }
}
