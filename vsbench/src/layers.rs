//! Per-layer metrics of a traced run. They come from three places, all in
//! the benchmark's own code: before/after deltas of the server's
//! `/metrics`, the per-session `phase_totals` (or, in process, a tracer the
//! benchmark installs), and timed calls into each layer's public functions
//! on the run's own inputs.

use std::collections::HashMap;
use std::time::Instant;

use viewseeker_catalog::Catalog;
use viewseeker_dataset::executor::{fused_group_by_all_pruned, GroupRequest};
use viewseeker_dataset::{AggregateFunction, BinSpec, Table};

use crate::backends::PhaseSums;
use crate::checks;
use crate::data::Dataset;
use crate::report::{Metric, Report};
use crate::server::Metrics;
use crate::session::Tally;
use crate::stats;
use crate::views::{binning, enumerate, group_by, ViewDef};
use crate::workloads::{stage_mean_us, Env, Name, Spec};

/// Share of the client-observed request time that may fall outside the
/// server's stages (loopback transfer, system calls, the client's own
/// parsing). Derived in the README.
pub const STAGE_TOLERANCE: f64 = 0.35;

/// Client operation → the route the server files it under.
const ROUTES: [(&str, &str); 7] = [
    ("create", "POST /sessions"),
    ("next", "GET /sessions/:id/next"),
    ("feedback", "POST /sessions/:id/feedback"),
    ("recommend", "GET /sessions/:id/recommend"),
    ("append", "POST /datasets/:name/rows"),
    ("inspect", "GET /datasets/:name"),
    ("delete", "DELETE /sessions/:id"),
];
/// Top-level request stages; `serialize` and the seeker phases nest
/// inside `handler`.
const STAGES: [&str; 5] = ["parse", "queue_wait", "dispatch", "handler", "write"];

/// Core phases as totals and span counts.
#[derive(Debug, Default)]
struct Phases {
    total_us: HashMap<String, u64>,
    count: HashMap<String, u64>,
}

impl Phases {
    fn total(&self, p: &str) -> f64 {
        self.total_us.get(p).copied().unwrap_or(0) as f64
    }

    fn per_span(&self, p: &str) -> f64 {
        let n = self.count.get(p).copied().unwrap_or(0);
        if n == 0 {
            0.0
        } else {
            self.total(p) / n as f64
        }
    }
}

fn ok_ops(t: &Tally, op: &str) -> f64 {
    t.ops.0.get(op).map_or(0.0, |(a, f)| (a - f) as f64)
}

fn per_op(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

fn core_metrics(report: &mut Report, t: &Tally, p: &Phases, fit_us: f64, views_refined: u64) {
    let creates = p.count.get("materialization").copied().unwrap_or(0) as f64;
    // The recorded view-space phase also covers materialization; report
    // its self time.
    let gen_self = (p.total("view_space_gen") - p.total("materialization")).max(0.0);
    report.metrics.extend([
        Metric::new(
            "core.view_space_gen_ms",
            per_op(gen_self, creates) / 1e3,
            "ms",
        ),
        Metric::new(
            "core.materialization_ms",
            p.per_span("materialization") / 1e3,
            "ms",
        ),
        Metric::new(
            "core.feature_extraction_ms",
            p.per_span("feature_extraction") / 1e3,
            "ms",
        ),
        Metric::new(
            "core.refinement_ms",
            per_op(p.total("refinement"), ok_ops(t, "next")) / 1e3,
            "ms",
        ),
        Metric::new("core.views_refined", views_refined as f64, "count"),
        Metric::new(
            "core.uncertainty_sampling_us",
            p.per_span("uncertainty_sampling"),
            "us",
        ),
        Metric::new("core.recommend_us", p.per_span("recommend"), "us"),
        Metric::new(
            "learn.estimator_fit_us",
            per_op(fit_us, ok_ops(t, "feedback")),
            "us",
        ),
    ]);
}

/// The traced run of an HTTP workload.
pub fn http(
    report: &mut Report,
    spec: &Spec,
    env: &Env,
    t: &Tally,
    delta: &Metrics,
    session_phases: &HashMap<String, (u64, u64)>,
    pool: &[Dataset],
) {
    let routes: Vec<&str> = ROUTES.iter().map(|r| r.1).collect();
    let mut stages_us = 0.0;
    for stage in STAGES {
        for r in &routes {
            stages_us += 1e6
                * delta.sum_where(
                    "viewseeker_request_stage_seconds_sum",
                    &[&format!("route=\"{r}\""), &format!("stage=\"{stage}\"")],
                );
        }
    }
    let requests: f64 = ROUTES.iter().map(|(op, _)| ok_ops(t, op)).sum();
    report.check(checks::stage_sum(stages_us, t.request_us, STAGE_TOLERANCE));
    report.notes.push(format!(
        "stages {:.0} us + client-side remainder {:.0} us = client-observed {:.0} us over {requests} requests",
        stages_us,
        t.request_us - stages_us,
        t.request_us
    ));
    report.metrics.extend([
        Metric::new("net.parse_us", stage_mean_us(delta, &routes, "parse"), "us"),
        Metric::new(
            "net.queue_wait_us",
            stage_mean_us(delta, &routes, "queue_wait"),
            "us",
        ),
        Metric::new(
            "net.dispatch_us",
            stage_mean_us(delta, &routes, "dispatch"),
            "us",
        ),
        Metric::new("net.write_us", stage_mean_us(delta, &routes, "write"), "us"),
        Metric::new(
            "client.remainder_us",
            per_op(t.request_us - stages_us, requests),
            "us",
        ),
    ]);
    for (op, route) in ROUTES {
        report.metrics.push(Metric::new(
            &format!("server.handler_us.{op}"),
            stage_mean_us(delta, &[route], "handler"),
            "us",
        ));
    }
    report.metrics.push(Metric::new(
        "server.serialize_us",
        stage_mean_us(delta, &routes, "serialize"),
        "us",
    ));
    report.metrics.extend([
        Metric::new(
            "catalog.hits",
            delta.get("viewseeker_catalog_hits_total"),
            "count",
        ),
        Metric::new(
            "catalog.misses",
            delta.get("viewseeker_catalog_misses_total"),
            "count",
        ),
        Metric::new(
            "catalog.evictions",
            delta.get("viewseeker_catalog_evictions_total"),
            "count",
        ),
        Metric::new(
            "dataset.rowgroups_scanned",
            delta.get("viewseeker_catalog_rowgroups_scanned_total"),
            "count",
        ),
        Metric::new(
            "dataset.rowgroups_pruned",
            delta.get("viewseeker_catalog_rowgroups_pruned_total"),
            "count",
        ),
    ]);
    let mut phases = Phases::default();
    for (name, (count, us)) in session_phases {
        phases.total_us.insert(name.clone(), *us);
        phases.count.insert(name.clone(), *count);
    }
    let fit = phases.total("estimator_fit");
    core_metrics(report, t, &phases, fit, 0);
    traced_notes(report, t);

    let catalog = match spec.name {
        Name::ColdScan => Catalog::open(
            env.work.join("data"),
            spec.mem_budget_mib.unwrap_or(0) << 20,
        )
        .map_err(|e| e.to_string()),
        _ => in_memory(pool),
    };
    match catalog {
        Ok(c) => data_layer(report, spec, env, &c, pool),
        Err(e) => report.check(Err(format!("reopening the catalog: {e}"))),
    }
}

/// End-to-end figures of the traced run itself, for the tracing overhead.
fn traced_notes(report: &mut Report, t: &Tally) {
    report.notes.push(format!(
        "traced run: create_ms.p50 {:.4}, turn_ms.p50 {:.4}, recommend_ms.p50 {:.4}, append_ms.p50 {:.4}",
        stats::median(&t.create_ms),
        stats::median(&t.turn_ms),
        stats::median(&t.recommend_ms),
        stats::median(&t.append_ms)
    ));
}

fn in_memory(pool: &[Dataset]) -> Result<Catalog, String> {
    let c = Catalog::in_memory(1 << 34);
    for ds in pool {
        c.import_csv_bytes(&ds.name, ds.csv(0, ds.rows()).as_bytes())
            .map_err(|e| e.to_string())?;
    }
    Ok(c)
}

/// The traced run of the in-process workload.
pub fn in_process(
    report: &mut Report,
    spec: &Spec,
    env: &Env,
    t: &Tally,
    sums: &PhaseSums,
    catalog: &Catalog,
    pool: &[Dataset],
) {
    // No request path runs in process.
    report.metrics.extend([
        Metric::new("net.parse_us", 0.0, "us"),
        Metric::new("net.queue_wait_us", 0.0, "us"),
        Metric::new("net.dispatch_us", 0.0, "us"),
        Metric::new("net.write_us", 0.0, "us"),
        Metric::new("client.remainder_us", 0.0, "us"),
    ]);
    for (op, _) in ROUTES {
        report
            .metrics
            .push(Metric::new(&format!("server.handler_us.{op}"), 0.0, "us"));
    }
    report
        .metrics
        .push(Metric::new("server.serialize_us", 0.0, "us"));
    let stats = catalog.stats();
    report.metrics.extend([
        Metric::new("catalog.hits", stats.hits as f64, "count"),
        Metric::new("catalog.misses", stats.misses as f64, "count"),
        Metric::new("catalog.evictions", stats.evictions as f64, "count"),
        Metric::new("dataset.rowgroups_scanned", 0.0, "count"),
        Metric::new("dataset.rowgroups_pruned", 0.0, "count"),
    ]);
    let mut phases = Phases::default();
    for (name, (us, count)) in &sums.spans {
        phases.total_us.insert((*name).to_owned(), *us);
        phases.count.insert((*name).to_owned(), *count);
    }
    phases
        .total_us
        .insert("uncertainty_sampling".into(), sums.sampling_us);
    phases
        .count
        .insert("uncertainty_sampling".into(), sums.iterations);
    let fit = phases.total("estimator_fit") + sums.fit_us as f64;
    core_metrics(report, t, &phases, fit, sums.views_refined);
    traced_notes(report, t);
    data_layer(report, spec, env, catalog, pool);
}

/// Timed calls into the catalog and dataset layers on the run's inputs,
/// plus two checks: every row group is scanned or pruned once, and the
/// fused executor's views equal the benchmark's own group-by.
fn data_layer(report: &mut Report, spec: &Spec, env: &Env, catalog: &Catalog, pool: &[Dataset]) {
    const REPEATS: usize = 5;
    // resolve: cycle the pool with nothing held, as creates do.
    let mut resolve = Vec::new();
    for i in 0..REPEATS * pool.len() {
        let ds = &pool[i % pool.len()];
        let started = Instant::now();
        let r = catalog.get(&ds.name);
        resolve.push(started.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = r {
            report.check(Err(format!("resolve {}: {e}", ds.name)));
            return;
        }
    }

    // The workload's own scans, on the first few sessions' targets.
    let plans = spec.plans(env.seed, 0, REPEATS, pool);
    let mut scans = Vec::new();
    for plan in plans.iter().take(REPEATS) {
        let ds = &pool[plan.dataset];
        let entry = match catalog.get(&ds.name) {
            Ok(e) => e,
            Err(e) => return report.check(Err(e.to_string())),
        };
        let space = enumerate(ds, spec.exclude);
        let predicate = match viewseeker_dataset::sql::parse_where(&plan.dq.sql(ds)) {
            Ok(p) => p,
            Err(e) => return report.check(Err(e.to_string())),
        };
        let requests = match group_requests(&entry.table, &space) {
            Ok(r) => r,
            Err(e) => return report.check(Err(e)),
        };
        let started = Instant::now();
        let result =
            fused_group_by_all_pruned(&entry.table, &entry.zones, &predicate, &requests, 1);
        scans.push(started.elapsed().as_secs_f64() * 1e3);
        let (raw, _, scan) = match result {
            Ok(r) => r,
            Err(e) => return report.check(Err(e.to_string())),
        };
        report.check(checks::rowgroups(
            scan.rowgroups_scanned,
            scan.rowgroups_pruned,
            entry.zones.group_count() as u64,
        ));
        let dq = plan.dq.rows(ds);
        let finals = raw.finalize();
        for (req, got) in requests.iter().zip(&finals) {
            let bins = match &req.spec {
                BinSpec::EqualWidth { count, .. } => Some(*count),
                _ => None,
            };
            let own = binning(ds, &req.dimension, bins);
            let own_t = group_by(ds, &own, &req.measure, Some(&dq));
            let own_r = group_by(ds, &own, &req.measure, None);
            let labels: Vec<String> = (0..req.spec.bin_count())
                .map(|i| match &req.spec {
                    BinSpec::Categorical { labels } => labels[i].clone(),
                    _ => i.to_string(),
                })
                .collect();
            for (agg, func) in AggregateFunction::all().into_iter().enumerate() {
                for (side, prog, mine) in [
                    ("target", &got.target, &own_t),
                    ("reference", &got.reference, &own_r),
                ] {
                    let program: Vec<(String, f64)> = labels
                        .iter()
                        .cloned()
                        .zip(prog.aggregates(func).iter().copied())
                        .collect();
                    // Bins the table never filled are absent from its
                    // dictionary; they hold nothing on either side.
                    let mine: Vec<(String, f64)> = own
                        .labels
                        .iter()
                        .cloned()
                        .zip(mine.iter().map(|a| a.value(agg)))
                        .filter(|(l, v)| labels.contains(l) || *v != 0.0)
                        .collect();
                    report.check(checks::view_values(
                        &format!(
                            "{} {func} of {} by {} ({side})",
                            ds.name, req.measure, req.dimension
                        ),
                        &program,
                        &mine,
                    ));
                }
            }
        }
    }

    // Append path: parse, then commit, with the table held as a live
    // session would hold it.
    let mut probe = pool[0].clone();
    let from = probe.grow(spec.append_rows, true);
    let chunk = probe.csv(from, probe.rows());
    let mut parse = Vec::new();
    let mut append = Vec::new();
    let held = catalog.get(&probe.name);
    for _ in 0..REPEATS {
        let started = Instant::now();
        let parsed = viewseeker_dataset::csv::infer_schema(chunk.as_bytes())
            .and_then(|s| viewseeker_dataset::csv::read_csv(&s, chunk.as_bytes()));
        parse.push(started.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = parsed {
            return report.check(Err(format!("parsing an append chunk: {e}")));
        }
        let started = Instant::now();
        let r = catalog.append_csv_bytes(&probe.name, chunk.as_bytes());
        append.push(started.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = r {
            return report.check(Err(format!("appending in process: {e}")));
        }
    }
    drop(held);
    report.metrics.extend([
        Metric::new("catalog.resolve_ms", stats::median(&resolve), "ms"),
        Metric::new("catalog.append_ms", stats::median(&append), "ms"),
        Metric::new("dataset.scan_ms", stats::median(&scans), "ms"),
        Metric::new("dataset.csv_parse_ms", stats::median(&parse), "ms"),
    ]);
}

/// One fused-executor request per `(dimension, bins, measure)` of `space`.
fn group_requests(table: &Table, space: &[ViewDef]) -> Result<Vec<GroupRequest>, String> {
    let mut out: Vec<GroupRequest> = Vec::new();
    let mut seen: Vec<(String, Option<usize>, String)> = Vec::new();
    for v in space {
        let key = (v.dimension.clone(), v.bins, v.measure.clone());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let col = table
            .column_by_name(&v.dimension)
            .map_err(|e| e.to_string())?;
        let spec = match v.bins {
            None => BinSpec::categorical_of(col),
            Some(b) => BinSpec::equal_width_of(col, b),
        }
        .map_err(|e| e.to_string())?;
        out.push(GroupRequest {
            dimension: v.dimension.clone(),
            spec,
            measure: v.measure.clone(),
        });
    }
    Ok(out)
}
