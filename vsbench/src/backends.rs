//! The two ways the benchmark reaches the program: HTTP against a running
//! `viewseeker serve`, and in process through the public `Seeker` API.

use std::collections::HashMap;
use std::sync::Arc;

use serde_json::Value;
use viewseeker_catalog::Catalog;
use viewseeker_core::trace::{IterationTrace, TracePhase, Tracer};
use viewseeker_core::{OwnedSeeker, RefineBudget, Seeker, ViewId, ViewSeekerConfig};
use viewseeker_dataset::SelectQuery;

use crate::checks;
use crate::http::Conn;
use crate::session::{Backend, OpResult, ViewRef};

fn parse(body: &str) -> OpResult<Value> {
    serde_json::parse_value(body).map_err(|e| format!("bad JSON answer: {e:?}"))
}

fn field_u64(v: &Value, key: &str) -> OpResult<u64> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("answer lacks {key}"))
}

fn view_refs(v: &Value) -> OpResult<Vec<ViewRef>> {
    let arr = v.as_array().ok_or("answer is not a list of views")?;
    arr.iter()
        .map(|x| {
            Ok(ViewRef {
                id: field_u64(x, "id")? as usize,
                dimension: x
                    .get("dimension")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                measure: x
                    .get("measure")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                aggregate: x
                    .get("aggregate")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                bins: x.get("bins").and_then(Value::as_u64).map(|b| b as usize),
                score: x.get("score").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// JSON string literal of `s`.
fn quote(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_default()
}

pub struct HttpBackend {
    pub conn: Conn,
    /// A second connection that carries appends and their read-back, when
    /// the workload writes on its own connection.
    pub writer: Option<Conn>,
    /// Per-session `phase_totals`, summed, when the run is traced.
    pub phases: Option<HashMap<String, (u64, u64)>>,
}

impl Backend for HttpBackend {
    fn create(&mut self, dataset: &str, sql: &str, exclude: &[&str]) -> OpResult<(String, usize)> {
        let exclude: Vec<String> = exclude.iter().map(|e| quote(e)).collect();
        let body = format!(
            "{{\"dataset\":{},\"query\":{},\"alpha\":1.0,\"exclude\":[{}]}}",
            quote(dataset),
            quote(sql),
            exclude.join(",")
        );
        let r = self
            .conn
            .call("POST", "/sessions", body.as_bytes())
            .map_err(|e| e.to_string())?;
        let v = parse(&r.body)?;
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .ok_or("create answer lacks id")?;
        Ok((id.to_owned(), field_u64(&v, "views")? as usize))
    }

    fn next(&mut self, sid: &str) -> OpResult<Vec<ViewRef>> {
        let r = self
            .conn
            .call("GET", &format!("/sessions/{sid}/next?m=1"), b"")
            .map_err(|e| e.to_string())?;
        view_refs(&parse(&r.body)?)
    }

    fn feedback(&mut self, sid: &str, view: usize, score: f64) -> OpResult<usize> {
        let body = format!("{{\"view\":{view},\"score\":{score:?}}}");
        let r = self
            .conn
            .call(
                "POST",
                &format!("/sessions/{sid}/feedback"),
                body.as_bytes(),
            )
            .map_err(|e| e.to_string())?;
        Ok(field_u64(&parse(&r.body)?, "labels")? as usize)
    }

    fn recommend(&mut self, sid: &str, k: usize) -> OpResult<Vec<ViewRef>> {
        let r = self
            .conn
            .call("GET", &format!("/sessions/{sid}/recommend?k={k}"), b"")
            .map_err(|e| e.to_string())?;
        view_refs(&parse(&r.body)?)
    }

    fn append(&mut self, dataset: &str, csv: &str) -> OpResult<(u64, u64)> {
        let r = self
            .writer
            .as_mut()
            .unwrap_or(&mut self.conn)
            .call("POST", &format!("/datasets/{dataset}/rows"), csv.as_bytes())
            .map_err(|e| e.to_string())?;
        let v = parse(&r.body)?;
        let updated = field_u64(&v, "sessions_updated")?;
        let merged = field_u64(&v, "sessions_merged")?;
        Ok((field_u64(&v, "total_rows")?, updated.saturating_sub(merged)))
    }

    fn dataset_rows(&mut self, dataset: &str) -> OpResult<u64> {
        let r = self
            .writer
            .as_mut()
            .unwrap_or(&mut self.conn)
            .call("GET", &format!("/datasets/{dataset}"), b"")
            .map_err(|e| e.to_string())?;
        field_u64(&parse(&r.body)?, "rows")
    }

    fn delete(&mut self, sid: &str) -> OpResult<()> {
        self.conn
            .call("DELETE", &format!("/sessions/{sid}"), b"")
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn before_delete(&mut self, sid: &str) {
        let Some(phases) = &mut self.phases else {
            return;
        };
        let Ok(r) = self.conn.call("GET", &format!("/sessions/{sid}"), b"") else {
            return;
        };
        let Ok(v) = parse(&r.body) else {
            return;
        };
        for p in v
            .get("phase_totals")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let name = p
                .get("phase")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_owned();
            let e = phases.entry(name).or_default();
            e.0 += p.get("count").and_then(Value::as_u64).unwrap_or(0);
            e.1 += p.get("total_us").and_then(Value::as_u64).unwrap_or(0);
        }
    }
}

/// Phase totals of in-process sessions. Spans and iteration records are
/// kept apart, so each phase is counted once.
#[derive(Debug, Default)]
pub struct PhaseLog {
    inner: std::sync::Mutex<PhaseSums>,
}

#[derive(Debug, Default, Clone)]
pub struct PhaseSums {
    /// Microseconds and span count per phase, from spans.
    pub spans: HashMap<&'static str, (u64, u64)>,
    /// Sampling microseconds from iteration records (the seeker reports
    /// that phase only there).
    pub sampling_us: u64,
    /// Estimator refits after a refinement pass, from iteration records.
    pub fit_us: u64,
    pub iterations: u64,
    pub views_refined: u64,
}

impl PhaseLog {
    #[must_use]
    pub fn sums(&self) -> PhaseSums {
        self.inner.lock().map(|g| g.clone()).unwrap_or_default()
    }
}

impl Tracer for PhaseLog {
    fn record_span(&self, phase: TracePhase, duration: std::time::Duration) {
        if let Ok(mut g) = self.inner.lock() {
            let e = g.spans.entry(phase.name()).or_default();
            e.0 += duration.as_micros() as u64;
            e.1 += 1;
        }
    }

    fn record_iteration(&self, trace: IterationTrace) {
        if let Ok(mut g) = self.inner.lock() {
            g.sampling_us += trace.sampling_us;
            g.fit_us += trace.estimator_fit_us;
            g.iterations += 1;
            g.views_refined += trace.views_refined as u64;
        }
    }
}

/// In-process sessions: tables come from an in-memory [`Catalog`], seekers
/// run with α-sampling and a per-turn budget of refined views.
pub struct InProcBackend {
    pub catalog: Arc<Catalog>,
    pub alpha: f64,
    pub budget: usize,
    pub tracer: Arc<PhaseLog>,
    sessions: HashMap<String, Live>,
    next_id: u64,
    /// Exact-path feature-matrix comparisons made.
    pub identity_checks: u64,
}

struct Live {
    seeker: OwnedSeeker,
    dataset: String,
    sql: String,
    exclude: Vec<String>,
    pending_before: usize,
    compared: bool,
}

impl InProcBackend {
    #[must_use]
    pub fn new(catalog: Arc<Catalog>, alpha: f64, budget: usize, tracer: Arc<PhaseLog>) -> Self {
        Self {
            catalog,
            alpha,
            budget,
            tracer,
            sessions: HashMap::new(),
            next_id: 0,
            identity_checks: 0,
        }
    }

    fn config(&self, alpha: f64, exclude: &[String]) -> ViewSeekerConfig {
        ViewSeekerConfig {
            alpha,
            refine_budget: RefineBudget::Views(self.budget),
            excluded_dimensions: exclude.to_vec(),
            ..ViewSeekerConfig::default()
        }
    }

    fn live(&mut self, sid: &str) -> OpResult<&mut Live> {
        self.sessions
            .get_mut(sid)
            .ok_or_else(|| format!("no session {sid}"))
    }

    fn describe(seeker: &OwnedSeeker, id: ViewId, score: Option<f64>) -> OpResult<ViewRef> {
        let def = seeker.view_space().def(id).map_err(|e| e.to_string())?;
        Ok(ViewRef {
            id: id.index(),
            dimension: def.dimension.clone(),
            measure: def.measure.clone(),
            aggregate: def.aggregate.to_string(),
            bins: def.bins,
            score,
        })
    }
}

fn query(sql: &str) -> OpResult<SelectQuery> {
    viewseeker_dataset::sql::parse_where(sql)
        .map(SelectQuery::new)
        .map_err(|e| e.to_string())
}

impl Backend for InProcBackend {
    fn create(&mut self, dataset: &str, sql: &str, exclude: &[&str]) -> OpResult<(String, usize)> {
        let entry = self.catalog.get(dataset).map_err(|e| e.to_string())?;
        let exclude: Vec<String> = exclude.iter().map(|s| (*s).to_owned()).collect();
        let config = self.config(self.alpha, &exclude);
        let seeker = Seeker::new_traced(
            entry.table,
            &query(sql)?,
            config,
            Arc::clone(&self.tracer) as Arc<dyn Tracer>,
        )
        .map_err(|e| e.to_string())?;
        self.next_id += 1;
        let sid = format!("p{}", self.next_id);
        let views = seeker.view_space().len();
        let pending = seeker.pending_refinements();
        self.sessions.insert(
            sid.clone(),
            Live {
                seeker,
                dataset: dataset.to_owned(),
                sql: sql.to_owned(),
                exclude,
                pending_before: pending,
                compared: false,
            },
        );
        Ok((sid, views))
    }

    fn next(&mut self, sid: &str) -> OpResult<Vec<ViewRef>> {
        let live = self.live(sid)?;
        live.pending_before = live.seeker.pending_refinements();
        let ids = live.seeker.next_views(1).map_err(|e| e.to_string())?;
        ids.into_iter()
            .map(|id| Self::describe(&live.seeker, id, None))
            .collect()
    }

    fn feedback(&mut self, sid: &str, view: usize, score: f64) -> OpResult<usize> {
        let live = self.live(sid)?;
        live.seeker
            .submit_feedback(ViewId::from_index(view), score)
            .map_err(|e| e.to_string())?;
        Ok(live.seeker.label_count())
    }

    fn recommend(&mut self, sid: &str, k: usize) -> OpResult<Vec<ViewRef>> {
        let live = self.live(sid)?;
        let ids = live.seeker.recommend(k).map_err(|e| e.to_string())?;
        let scores = live.seeker.predicted_scores().map_err(|e| e.to_string())?;
        ids.into_iter()
            .map(|id| Self::describe(&live.seeker, id, scores.get(id.index()).copied()))
            .collect()
    }

    fn append(&mut self, dataset: &str, csv: &str) -> OpResult<(u64, u64)> {
        // Sessions here hold their own table; nothing absorbs the rows.
        self.catalog
            .append_csv_bytes(dataset, csv.as_bytes())
            .map(|o| (o.total_rows, 0))
            .map_err(|e| e.to_string())
    }

    fn dataset_rows(&mut self, dataset: &str) -> OpResult<u64> {
        self.catalog
            .describe(dataset)
            .map(|d| d.rows)
            .map_err(|e| e.to_string())
    }

    fn delete(&mut self, sid: &str) -> OpResult<()> {
        self.sessions
            .remove(sid)
            .map(|_| ())
            .ok_or_else(|| format!("no session {sid}"))
    }

    /// Pending refinements fall by exactly the budget on each `next`; once
    /// none are left, the refined feature matrix is bit-identical to that
    /// of an exact (α = 1) seeker on the same table (paper §3.3).
    fn check_turn(&mut self, sid: &str) -> checks::Check {
        let budget = self.budget;
        let catalog = Arc::clone(&self.catalog);
        let base = self.config(1.0, &[]);
        let live = self.live(sid)?;
        let after = live.seeker.pending_refinements();
        checks::refinement_step(live.pending_before, after, budget)?;
        if after > 0 || live.compared {
            return Ok(());
        }
        live.compared = true;
        let table = catalog.get(&live.dataset).map_err(|e| e.to_string())?.table;
        if table.row_count() != live.seeker.table_handle().row_count() {
            return Ok(());
        }
        let exact = Seeker::new(
            table,
            &query(&live.sql)?,
            ViewSeekerConfig {
                excluded_dimensions: live.exclude.clone(),
                ..base
            },
        )
        .map_err(|e| e.to_string())?;
        let n = exact.feature_matrix().len();
        let refined: Vec<[f64; 8]> = (0..n)
            .map(|i| *live.seeker.feature_matrix().raw_row(i))
            .collect();
        let exact_rows: Vec<[f64; 8]> =
            (0..n).map(|i| *exact.feature_matrix().raw_row(i)).collect();
        self.identity_checks += 1;
        checks::bit_identical(&refined, &exact_rows)
    }
}
