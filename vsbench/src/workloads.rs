//! The three workloads: their inputs, set-up, measured loop and metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use viewseeker_catalog::Catalog;

use crate::backends::{HttpBackend, InProcBackend, PhaseLog, PhaseSums};
use crate::data::{Dataset, Dq, Kind};
use crate::http::Conn;
use crate::layers;
use crate::report::{Metric, Report};
use crate::rng::Rng;
use crate::server::{Metrics, ServeOpts, Server};
use crate::session::{prepare, run_session, Owned, Plan, Prepared, Tally};
use crate::stats;
use crate::views::{enumerate, Oracle, ViewDef};

/// Unmeasured sessions each client runs first, so lazy start-up work and
/// cold allocator pages do not land in the figures.
const WARMUP_SESSIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    HotTurns,
    ColdScan,
    Refine,
}

/// Everything that defines a workload's inputs.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: Name,
    pub kind: Kind,
    /// Datasets in the pool, split evenly among the clients.
    pub pool: usize,
    pub rows: usize,
    /// Client threads. A single HTTP client drives two connections: one for
    /// sessions, one for appends.
    pub clients: usize,
    pub labels: usize,
    /// Client 0 appends after every `append_every`-th session.
    pub append_every: usize,
    pub append_rows: usize,
    pub exclude: &'static [&'static str],
    /// Sessions per second of `--seconds`, all clients together: the run's
    /// fixed amount of work, sized to last at most about `--seconds` on the
    /// reference machine.
    pub sessions_per_second: f64,
    /// `--catalog-mem-budget`, MiB.
    pub mem_budget_mib: Option<u64>,
    pub precision_floor: f64,
    /// In-process sessions: sampling rate and views refined per turn.
    pub alpha: f64,
    pub refine_budget: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Server and client share CPU 0. With one client and no concurrency
    /// this costs nothing, and it stops run-to-run changes in where the
    /// threads land (which decided whether each hop woke an idle vCPU, and
    /// moved sub-millisecond turns by 0.4 ms from one run to the next).
    pub one_cpu: bool,
}

impl Spec {
    #[must_use]
    pub fn of(name: Name) -> Self {
        match name {
            Name::HotTurns => Self {
                name,
                kind: Kind::Retail { products: 10 },
                pool: 4,
                rows: 4000,
                clients: 1,
                labels: 20,
                append_every: 4,
                append_rows: 40,
                exclude: &[],
                sessions_per_second: 30.0,
                mem_budget_mib: None,
                precision_floor: 0.6,
                alpha: 1.0,
                refine_budget: 0,
                setups: 15,
                one_cpu: true,
            },
            Name::ColdScan => Self {
                name,
                kind: Kind::Events,
                pool: 4,
                rows: 1_000_000,
                clients: 1,
                labels: 20,
                append_every: 3,
                append_rows: 5000,
                exclude: &["uid"],
                sessions_per_second: 4.8,
                mem_budget_mib: Some(48),
                precision_floor: 0.5,
                alpha: 1.0,
                refine_budget: 0,
                setups: 3,
                one_cpu: true,
            },
            Name::Refine => Self {
                name,
                kind: Kind::Retail { products: 12 },
                pool: 2,
                rows: 200_000,
                clients: 1,
                labels: 20,
                append_every: 4,
                append_rows: 500,
                exclude: &[],
                sessions_per_second: 2.5,
                mem_budget_mib: None,
                precision_floor: 0.6,
                alpha: 0.1,
                refine_budget: 6,
                setups: 15,
                one_cpu: false,
            },
        }
    }

    fn dataset_name(&self, i: usize) -> String {
        let prefix = match self.name {
            Name::HotTurns => "hot",
            Name::ColdScan => "events",
            Name::Refine => "retail",
        };
        format!("{prefix}{i}")
    }

    /// The pool, generated from the seed.
    #[must_use]
    pub fn datasets(&self, seed: u64) -> Vec<Dataset> {
        let root = Rng::new(seed);
        (0..self.pool)
            .map(|i| {
                let mut ds = Dataset::new(
                    &self.dataset_name(i),
                    self.kind,
                    root.fork(100 + i as u64).next_u64(),
                );
                ds.grow(self.rows, false);
                ds
            })
            .collect()
    }

    fn dq(&self, rng: &mut Rng, ds: &Dataset) -> Dq {
        match self.kind {
            Kind::Retail { products } => {
                let (column, n) = match rng.below(3) {
                    0 => ("region", 6),
                    1 => ("channel", 4),
                    _ => ("product", u64::from(products)),
                };
                Dq::Eq {
                    column: column.to_owned(),
                    code: rng.below(n) as u32,
                }
            }
            Kind::Events => {
                let span = 50_000;
                let lo = rng.below((ds.rows() - span) as u64) as i64;
                Dq::Range {
                    column: "n_t".to_owned(),
                    lo,
                    hi: lo + span as i64,
                }
            }
        }
    }

    /// Client `c`'s sessions: `n` measured ones after the warm-up, each on
    /// one of the client's own datasets in turn.
    #[must_use]
    pub fn plans(&self, seed: u64, c: usize, n: usize, pool: &[Dataset]) -> Vec<Plan> {
        let mut rng = Rng::new(seed).fork(200 + c as u64);
        let owned = self.pool / self.clients;
        (0..WARMUP_SESSIONS + n)
            .map(|i| {
                let local = i % owned;
                let measured = i >= WARMUP_SESSIONS;
                let append = measured
                    && c == 0
                    && (i + 1 - WARMUP_SESSIONS).is_multiple_of(self.append_every);
                Plan {
                    dataset: local,
                    dq: self.dq(&mut rng, &pool[c * owned + local]),
                    labels: self.labels,
                    append_rows: if append { self.append_rows } else { 0 },
                }
            })
            .collect()
    }

    #[must_use]
    pub fn session_count(&self, seconds: u64) -> usize {
        ((self.sessions_per_second * seconds as f64) / self.clients as f64).ceil() as usize
    }
}

/// What a run needs from outside: the program binary and a scratch
/// directory inside the checkout.
#[derive(Debug, Clone)]
pub struct Env {
    pub program: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Splits a run's tallies into the end-to-end metrics every workload
/// reports.
fn end_to_end(t: &Tally, setup: &[f64], throughput: f64, rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", stats::median(setup), "s"),
        Metric::new("create_ms.p50", stats::median(&t.create_ms), "ms"),
        Metric::new("create_ms.tail", stats::tail(&t.create_ms).1, "ms"),
        Metric::new("turn_ms.p50", stats::median(&t.turn_ms), "ms"),
        Metric::new("turn_ms.tail", stats::tail(&t.turn_ms).1, "ms"),
        Metric::new("sessions_per_s", throughput, "1/s"),
        Metric::new(
            "precision_at_10",
            t.precision.iter().sum::<f64>() / t.precision.len().max(1) as f64,
            "ratio",
        ),
        Metric::new("rss_mb", rss_mb, "MiB"),
        Metric::new("append_ms.p50", stats::median(&t.append_ms), "ms"),
    ]
}

/// Notes about the run for standard error: sample counts and the tail
/// percentile behind each `.tail`.
fn describe(t: &Tally, spec: &Spec) -> Vec<String> {
    let chance = t.chance.iter().sum::<f64>() / t.chance.len().max(1) as f64;
    let deciles = |xs: &[f64]| -> String {
        [10.0, 25.0, 50.0, 75.0, 90.0]
            .iter()
            .map(|p| format!("p{p}={:.3}", stats::percentile(xs, *p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    vec![
        format!(
            "recommend_ms p50={:.4} (not an end-to-end metric: too short to time steadily here)",
            stats::median(&t.recommend_ms)
        ),
        format!("create_ms {}", deciles(&t.create_ms)),
        format!("turn_ms {}", deciles(&t.turn_ms)),
        format!(
            "turn_ms by position {:?}",
            (0..spec.labels)
                .map(|k| {
                    let xs: Vec<f64> = t
                        .turn_ms
                        .iter()
                        .skip(k)
                        .step_by(spec.labels)
                        .copied()
                        .collect();
                    (stats::median(&xs) * 1000.0).round() / 1000.0
                })
                .collect::<Vec<_>>()
        ),
        format!(
            "samples: create {} (tail p{}), turn {} (tail p{}), recommend {}, append {}",
            t.create_ms.len(),
            stats::tail(&t.create_ms).0,
            t.turn_ms.len(),
            stats::tail(&t.turn_ms).0,
            t.recommend_ms.len(),
            t.append_ms.len()
        ),
        format!(
            "unblocked tails (all samples together): create {:.4}, turn {:.4}",
            stats::percentile(
                &t.create_ms,
                stats::tail_percentile(t.create_ms.len()).unwrap_or(50.0)
            ),
            stats::percentile(
                &t.turn_ms,
                stats::tail_percentile(t.turn_ms.len()).unwrap_or(50.0)
            )
        ),
        format!(
            "precision floor {:.2}; a top-10 drawn at random scores {chance:.3}",
            spec.precision_floor
        ),
    ]
}

/// Client `c`'s sessions, prepared: with its datasets' view spaces and
/// those datasets as the planned appends leave them.
struct ClientWork {
    sessions: Vec<Prepared>,
    spaces: Vec<Vec<ViewDef>>,
    grown: Vec<Dataset>,
}

fn client_work(spec: &Spec, env: &Env, pool: &[Dataset], c: usize) -> ClientWork {
    let per = spec.pool / spec.clients;
    let plans = spec.plans(env.seed, c, spec.session_count(env.seconds), pool);
    let mut owned: Vec<Owned> = pool[c * per..(c + 1) * per]
        .iter()
        .map(|ds| Owned {
            oracle: Oracle::new(ds, enumerate(ds, spec.exclude)),
            ds: ds.clone(),
        })
        .collect();
    let sessions = prepare(&mut owned, &plans);
    ClientWork {
        sessions,
        spaces: owned.iter().map(|o| o.oracle.space().to_vec()).collect(),
        grown: owned.into_iter().map(|o| o.ds).collect(),
    }
}

/// Runs a client's sessions; returns its tally and measured loop time.
fn drive<B: crate::session::Backend>(b: &mut B, w: &ClientWork, exclude: &[&str]) -> (Tally, f64) {
    let mut warm = Tally::default();
    let mut t = Tally::default();
    let mut started = Instant::now();
    for (i, s) in w.sessions.iter().enumerate() {
        if i == WARMUP_SESSIONS {
            started = Instant::now();
        }
        let tally = if i < WARMUP_SESSIONS {
            &mut warm
        } else {
            &mut t
        };
        if run_session(b, s, &w.spaces[s.dataset], exclude, tally).is_err() {
            break;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    // Warm-up operations are attempted and checked like any other, and the
    // server's stage totals include them.
    t.ops.merge(&warm.ops);
    t.request_us += warm.request_us;
    t.error_count += warm.error_count;
    t.errors.extend(warm.errors);
    t.rowgroups += warm.rowgroups;
    (t, wall)
}

/// One client's tally, loop time and phase totals.
type ClientRun = (Tally, f64, HashMap<String, (u64, u64)>);

/// A finished measured loop.
struct Loop {
    tally: Tally,
    throughput: f64,
    pool: Vec<Dataset>,
    phases: HashMap<String, (u64, u64)>,
}

fn http_loop(spec: &Spec, env: &Env, server: &Server, pool: &[Dataset]) -> Result<Loop, String> {
    // All of the simulated user's work is done before any client starts.
    let work: Vec<ClientWork> = (0..spec.clients)
        .map(|c| client_work(spec, env, pool, c))
        .collect();
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = work
            .iter()
            .enumerate()
            .map(|(c, w)| {
                let addr = server.addr.clone();
                let trace = env.trace;
                s.spawn(move || {
                    if spec.one_cpu {
                        crate::server::pin_this_thread(0)?;
                    }
                    let conn = Conn::open(&addr, &format!("c{c}")).map_err(|e| e.to_string())?;
                    let writer = if spec.clients == 1 {
                        Some(Conn::open(&addr, "w").map_err(|e| e.to_string())?)
                    } else {
                        None
                    };
                    let mut b = HttpBackend {
                        conn,
                        writer,
                        phases: trace.then(HashMap::new),
                    };
                    let (t, wall) = drive(&mut b, w, spec.exclude);
                    Ok((t, wall, b.phases.unwrap_or_default()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut tally = Tally::default();
    let mut throughput = 0.0;
    let mut phases: HashMap<String, (u64, u64)> = HashMap::new();
    for r in results {
        let (t, wall, p) = r?;
        throughput += t.sessions as f64 / (wall - t.check_s).max(1e-9);
        tally.merge(t);
        for (k, (c, us)) in p {
            let e = phases.entry(k).or_default();
            e.0 += c;
            e.1 += us;
        }
    }
    Ok(Loop {
        tally,
        throughput,
        pool: work.into_iter().flat_map(|w| w.grown).collect(),
        phases,
    })
}

/// Imports the pool into a fresh data directory with `viewseeker dataset
/// import`, one CSV file per dataset, two imports at a time (one per CPU).
fn import_all(env: &Env, dir: &Path, csvs: &[(String, PathBuf)]) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for pair in csvs.chunks(2) {
        let children: Vec<_> = pair
            .iter()
            .map(|(name, csv)| {
                Command::new(&env.program)
                    .args(["dataset", "import", "--data-dir"])
                    .arg(dir)
                    .arg("--csv")
                    .arg(csv)
                    .args(["--name", name])
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .map(|c| (name, c))
                    .map_err(|e| format!("cannot run dataset import: {e}"))
            })
            .collect();
        let mut failure = None;
        for child in children {
            let (name, child) = match child {
                Ok(c) => c,
                Err(e) => {
                    failure = Some(e);
                    continue;
                }
            };
            match child.wait_with_output() {
                Ok(out) if out.status.success() => {}
                Ok(out) => {
                    failure = Some(format!(
                        "dataset import {name} failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    ));
                }
                Err(e) => failure = Some(format!("dataset import {name}: {e}")),
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
    }
    Ok(())
}

/// Set-up of an HTTP workload: datasets ingested through the program (CSV
/// files through `dataset import`, or CSV bodies uploaded over HTTP), the
/// server up and answering. Returns the server and the set-up time.
fn http_setup(
    spec: &Spec,
    env: &Env,
    uploads: &[(String, String)],
    csvs: &[(String, PathBuf)],
) -> Result<(Server, f64), String> {
    let data_dir = env.work.join("data");
    let started = Instant::now();
    let opts = ServeOpts {
        tracing: env.trace,
        data_dir: (!csvs.is_empty()).then(|| data_dir.display().to_string()),
        mem_budget: spec.mem_budget_mib.map(|m| format!("{m}m")),
        cpu: spec.one_cpu.then_some(0),
    };
    if !csvs.is_empty() {
        import_all(env, &data_dir, csvs)?;
    }
    let server = Server::start(&env.program, &opts)?;
    if !uploads.is_empty() {
        let mut conn = Conn::open(&server.addr, "setup").map_err(|e| e.to_string())?;
        for (name, csv) in uploads {
            conn.call("POST", &format!("/datasets/{name}"), csv.as_bytes())
                .map_err(|e| format!("upload {name}: {e}"))?;
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Runs an HTTP workload (`hot-turns`, `cold-scan`).
///
/// # Errors
///
/// Set-up failures (the program could not be started or fed).
pub fn run_http(spec: &Spec, env: &Env) -> Result<Report, String> {
    let pool = spec.datasets(env.seed);
    // Large pools go in through `dataset import` from files; small ones
    // are uploaded over HTTP. Either way the CSV is written before the clock
    // starts.
    let bodies: Vec<(String, String)> = pool
        .iter()
        .map(|ds| (ds.name.clone(), ds.csv(0, ds.rows())))
        .collect();
    let (uploads, csvs) = if spec.rows >= 100_000 {
        std::fs::create_dir_all(&env.work).map_err(|e| e.to_string())?;
        let files = bodies
            .into_iter()
            .map(|(name, csv)| {
                let path = env.work.join(format!("{name}.csv"));
                std::fs::write(&path, csv).map_err(|e| e.to_string())?;
                Ok((name, path))
            })
            .collect::<Result<Vec<_>, String>>()?;
        (Vec::new(), files)
    } else {
        (bodies, Vec::new())
    };
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..spec.setups {
        drop(server.take());
        let (s, secs) = http_setup(spec, env, &uploads, &csvs)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.ok_or("no set-up ran")?;
    let before = server.metrics()?;
    let lp = http_loop(spec, env, &server, &pool)?;
    let after = server.metrics()?;
    let rss = server.peak_rss_mb();
    drop(server);

    let mut report = Report::new(lp.tally.ops.clone());
    report.notes = describe(&lp.tally, spec);
    finish_checks(spec, &lp.tally, &mut report);
    let delta = after.delta(&before);
    // Every zone-map pass of the program (each create, and each append that
    // rebuilt a live session) scans or prunes each of the table's row
    // groups exactly once.
    let scanned = delta.get("viewseeker_catalog_rowgroups_scanned_total") as u64;
    let pruned = delta.get("viewseeker_catalog_rowgroups_pruned_total") as u64;
    report.check(crate::checks::rowgroups(
        scanned,
        pruned,
        lp.tally.rowgroups,
    ));
    report.notes.push(format!(
        "row groups: {scanned} scanned + {pruned} pruned over the run's zone-map passes; the tables held {}",
        lp.tally.rowgroups
    ));
    if env.trace {
        layers::http(
            &mut report,
            spec,
            env,
            &lp.tally,
            &delta,
            &lp.phases,
            &lp.pool,
        );
    } else {
        report.metrics = end_to_end(&lp.tally, &setups, lp.throughput, rss);
    }
    let _ = std::fs::remove_dir_all(&env.work);
    Ok(report)
}

fn finish_checks(spec: &Spec, t: &Tally, report: &mut Report) {
    report.check_errors.extend(t.errors.iter().cloned());
    report.check_count += t.error_count;
    let mean = t.precision.iter().sum::<f64>() / t.precision.len().max(1) as f64;
    if let Err(e) = crate::checks::precision(mean, spec.precision_floor) {
        report.check_errors.push(e);
        report.check_count += 1;
    }
}

/// Runs the in-process `refine` workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run_refine(spec: &Spec, env: &Env) -> Result<Report, String> {
    // The harness's own data (raw rows, prepared sessions, CSV bodies) is
    // built first and held unchanged until `rss_mb` is read; only the memory
    // peak beyond it is reported, so that `rss_mb` reads the program: the
    // catalog, the seekers and their work.
    let pool = spec.datasets(env.seed);
    let work = client_work(spec, env, &pool, 0);
    let csvs: Vec<(String, String)> = pool
        .iter()
        .map(|ds| (ds.name.clone(), ds.csv(0, ds.rows())))
        .collect();
    let own_mb = crate::server::peak_rss_mb("/proc/self/status");
    let mut setups = Vec::new();
    let mut catalog = None;
    for _ in 0..spec.setups {
        drop(catalog.take());
        let started = Instant::now();
        let c = Catalog::in_memory(1 << 34);
        for (name, csv) in &csvs {
            c.import_csv_bytes(name, csv.as_bytes())
                .map_err(|e| e.to_string())?;
        }
        setups.push(started.elapsed().as_secs_f64());
        catalog = Some(Arc::new(c));
    }
    let catalog = catalog.ok_or("no set-up ran")?;
    let tracer = Arc::new(PhaseLog::default());
    let mut b = InProcBackend::new(
        Arc::clone(&catalog),
        spec.alpha,
        spec.refine_budget,
        Arc::clone(&tracer),
    );
    let (tally, wall) = drive(&mut b, &work, spec.exclude);
    let throughput = tally.sessions as f64 / (wall - tally.check_s).max(1e-9);
    let rss = crate::server::peak_rss_mb("/proc/self/status") - own_mb;
    drop((pool, csvs));

    let mut report = Report::new(tally.ops.clone());
    report.notes = describe(&tally, spec);
    report.notes.push(format!(
        "exact-path feature comparisons after refinement: {}",
        b.identity_checks
    ));
    report.notes.push(format!(
        "harness data before the first set-up: {own_mb:.1} MiB peak, left out of rss_mb"
    ));
    if b.identity_checks == 0 {
        report
            .check_errors
            .push("no session finished its refinement".into());
        report.check_count += 1;
    }
    finish_checks(spec, &tally, &mut report);
    if env.trace {
        let sums: PhaseSums = tracer.sums();
        layers::in_process(&mut report, spec, env, &tally, &sums, &catalog, &work.grown);
    } else {
        report.metrics = end_to_end(&tally, &setups, throughput, rss);
    }
    Ok(report)
}

/// Scrape helper for callers outside this module.
#[must_use]
pub fn stage_mean_us(delta: &Metrics, routes: &[&str], stage: &str) -> f64 {
    let mut sum = 0.0;
    let mut count = 0.0;
    for r in routes {
        let route = format!("route=\"{r}\"");
        let st = format!("stage=\"{stage}\"");
        sum += delta.sum_where("viewseeker_request_stage_seconds_sum", &[&route, &st]);
        count += delta.sum_where("viewseeker_request_stage_seconds_count", &[&route, &st]);
    }
    if count > 0.0 {
        sum / count * 1e6
    } else {
        0.0
    }
}
