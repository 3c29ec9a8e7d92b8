//! The session loop shared by every workload: a simulated user drives one
//! session after another through a [`Backend`] (HTTP or in process),
//! timing each operation, counting attempts and failures per operation
//! type, and checking every answer.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use viewseeker_dataset::DEFAULT_GROUP_ROWS;

use crate::checks;
use crate::data::{Dataset, Dq};
use crate::views::{precision_at_k, Oracle, ViewDef, AGGREGATES};

/// Top-k size of every recommendation.
pub const TOP_K: usize = 10;

/// One view as the program describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewRef {
    pub id: usize,
    pub dimension: String,
    pub measure: String,
    pub aggregate: String,
    pub bins: Option<usize>,
    pub score: Option<f64>,
}

impl ViewRef {
    /// Whether this is the view `def` of the benchmark's own enumeration.
    #[must_use]
    pub fn is(&self, def: &ViewDef) -> bool {
        self.dimension == def.dimension
            && self.measure == def.measure
            && self.aggregate == AGGREGATES[def.aggregate]
            && self.bins == def.bins
    }
}

/// What one operation returned, or why it failed.
pub type OpResult<T> = Result<T, String>;

/// One way of reaching the program.
pub trait Backend {
    /// Starts a session on `dataset` with target query `sql`; returns its
    /// id and view count.
    fn create(&mut self, dataset: &str, sql: &str, exclude: &[&str]) -> OpResult<(String, usize)>;
    fn next(&mut self, sid: &str) -> OpResult<Vec<ViewRef>>;
    /// Labels `view`; returns the session's label count.
    fn feedback(&mut self, sid: &str, view: usize, score: f64) -> OpResult<usize>;
    fn recommend(&mut self, sid: &str, k: usize) -> OpResult<Vec<ViewRef>>;
    /// Appends CSV rows; returns the dataset's row count after and how
    /// many live sessions the program rebuilt over the whole table (rather
    /// than folding the new rows into their aggregates).
    fn append(&mut self, dataset: &str, csv: &str) -> OpResult<(u64, u64)>;
    /// The dataset's row count as the program reports it.
    fn dataset_rows(&mut self, dataset: &str) -> OpResult<u64>;
    fn delete(&mut self, sid: &str) -> OpResult<()>;
    /// Work to check after each `next`, outside the timed span.
    fn check_turn(&mut self, _sid: &str) -> checks::Check {
        Ok(())
    }
    /// Called once per session before it is deleted, outside timing.
    fn before_delete(&mut self, _sid: &str) {}
}

/// One planned session.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Index into the client's datasets.
    pub dataset: usize,
    pub dq: Dq,
    pub labels: usize,
    /// Rows to append to the session's dataset after its recommendation,
    /// while the session is still live.
    pub append_rows: usize,
}

/// A session stopped early because an operation failed.
#[derive(Debug)]
pub struct Abandoned;

/// Attempts and failures per operation type.
#[derive(Debug, Clone, Default)]
pub struct Ops(pub BTreeMap<&'static str, (u64, u64)>);

impl Ops {
    pub fn record<T>(&mut self, op: &'static str, r: &OpResult<T>) {
        let e = self.0.entry(op).or_default();
        e.0 += 1;
        e.1 += u64::from(r.is_err());
    }

    pub fn merge(&mut self, other: &Ops) {
        for (k, (a, f)) in &other.0 {
            let e = self.0.entry(k).or_default();
            e.0 += a;
            e.1 += f;
        }
    }

    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.0.values().map(|v| v.0).sum()
    }

    #[must_use]
    pub fn failed(&self) -> u64 {
        self.0.values().map(|v| v.1).sum()
    }
}

/// Everything one client measured.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub ops: Ops,
    pub create_ms: Vec<f64>,
    pub turn_ms: Vec<f64>,
    pub recommend_ms: Vec<f64>,
    pub append_ms: Vec<f64>,
    pub delete_ms: Vec<f64>,
    /// Client-observed time of every request, microseconds.
    pub request_us: f64,
    pub precision: Vec<f64>,
    pub chance: Vec<f64>,
    pub sessions: u64,
    /// The first few check failures, and how many there were.
    pub errors: Vec<String>,
    pub error_count: u64,
    /// Time spent in checks and in the simulated user, excluded from
    /// throughput.
    pub check_s: f64,
    /// Row groups the program's zone-map passes must account for: the
    /// table's row-group count at every create, and at every append that
    /// rebuilt a live session.
    pub rowgroups: u64,
}

impl Tally {
    /// Records a failed check or operation.
    pub fn fail(&mut self, e: String) -> Abandoned {
        self.error_count += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
        Abandoned
    }

    pub fn check(&mut self, c: checks::Check) {
        if let Err(e) = c {
            let _ = self.fail(e);
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.ops.merge(&o.ops);
        self.create_ms.extend(o.create_ms);
        self.turn_ms.extend(o.turn_ms);
        self.recommend_ms.extend(o.recommend_ms);
        self.append_ms.extend(o.append_ms);
        self.delete_ms.extend(o.delete_ms);
        self.request_us += o.request_us;
        self.precision.extend(o.precision);
        self.chance.extend(o.chance);
        self.sessions += o.sessions;
        self.error_count += o.error_count;
        for e in o.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.check_s += o.check_s;
        self.rowgroups += o.rowgroups;
    }
}

/// A dataset a client owns: its raw rows and the oracle over them.
pub struct Owned {
    pub ds: Dataset,
    pub oracle: Oracle,
}

/// One session with everything the simulated user needs worked out before
/// the clock starts: the query, the hidden utility of every view, and the
/// append chunk, so the measured loop does only the program's work.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Index into the client's datasets.
    pub dataset: usize,
    pub name: String,
    pub sql: String,
    /// Row groups of the dataset when the session is created.
    pub rowgroups: u64,
    pub labels: usize,
    /// The hidden utility of every view.
    pub utility: Vec<f64>,
    /// The user's label for every view.
    pub scores: Vec<f64>,
    /// CSV chunk to append, and the dataset's row count once it is in.
    pub append: Option<(String, u64)>,
}

/// Works out every planned session on the client's datasets, growing them
/// by the planned appends in order, as the program will see them.
#[must_use]
pub fn prepare(owned: &mut [Owned], plans: &[Plan]) -> Vec<Prepared> {
    plans
        .iter()
        .map(|plan| {
            let own = &mut owned[plan.dataset];
            let dq_rows = plan.dq.rows(&own.ds);
            let utility = own.oracle.utilities(&own.ds, &dq_rows);
            let rowgroups = row_groups(own.ds.rows() as u64);
            let append = (plan.append_rows > 0).then(|| {
                let from = own.ds.grow(plan.append_rows, true);
                (own.ds.csv(from, own.ds.rows()), own.ds.rows() as u64)
            });
            Prepared {
                dataset: plan.dataset,
                name: own.ds.name.clone(),
                sql: plan.dq.sql(&own.ds),
                rowgroups,
                labels: plan.labels,
                scores: crate::views::labels(&utility),
                utility,
                append,
            }
        })
        .collect()
}

/// Row groups of a table of `rows` rows.
#[must_use]
pub fn row_groups(rows: u64) -> u64 {
    rows.div_ceil(DEFAULT_GROUP_ROWS as u64)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one prepared session to its end; `space` is the benchmark's own
/// enumeration of the dataset's views.
///
/// # Errors
///
/// [`Abandoned`] when an operation failed; the failure is in the tally.
pub fn run_session<B: Backend>(
    b: &mut B,
    s: &Prepared,
    space: &[ViewDef],
    exclude: &[&str],
    t: &mut Tally,
) -> Result<(), Abandoned> {
    let views = space.len();

    let started = Instant::now();
    let r = b.create(&s.name, &s.sql, exclude);
    t.ops.record("create", &r);
    let (sid, reported) = r.map_err(|e| t.fail(format!("create: {e}")))?;
    t.create_ms.push(ms(started));
    t.request_us += started.elapsed().as_secs_f64() * 1e6;
    t.rowgroups += s.rowgroups;
    t.check(checks::view_count(reported, views));

    let mut labelled = HashSet::new();
    for _ in 0..s.labels {
        let started = Instant::now();
        let r = b.next(&sid);
        let next_us = started.elapsed().as_secs_f64() * 1e6;
        t.ops.record("next", &r);
        let picks = r.map_err(|e| t.fail(format!("next: {e}")))?;
        let checked = Instant::now();
        let Some(pick) = picks.first() else {
            return Err(t.fail("next returned no view".into()));
        };
        t.check(checks::next_view(pick.id, views, &labelled));
        if let Some(def) = space.get(pick.id) {
            if !pick.is(def) {
                let _ = t.fail(format!(
                    "view {} is {pick:?}, enumeration says {def:?}",
                    pick.id
                ));
            }
        }
        t.check(b.check_turn(&sid));
        let score = s.scores.get(pick.id).copied().unwrap_or(0.0);
        let view = pick.id;
        t.check_s += checked.elapsed().as_secs_f64();

        let fed = Instant::now();
        let r = b.feedback(&sid, view, score);
        let feedback_us = fed.elapsed().as_secs_f64() * 1e6;
        t.ops.record("feedback", &r);
        let labels = r.map_err(|e| t.fail(format!("feedback: {e}")))?;
        labelled.insert(view);
        if labels != labelled.len() {
            let _ = t.fail(format!(
                "session reports {labels} labels after {} were sent",
                labelled.len()
            ));
        }
        t.turn_ms.push((next_us + feedback_us) / 1e3);
        t.request_us += next_us + feedback_us;
    }

    let started = Instant::now();
    let r = b.recommend(&sid, TOP_K);
    t.ops.record("recommend", &r);
    let top = r.map_err(|e| t.fail(format!("recommend: {e}")))?;
    t.recommend_ms.push(ms(started));
    t.request_us += started.elapsed().as_secs_f64() * 1e6;
    let checked = Instant::now();
    let ids: Vec<usize> = top.iter().map(|v| v.id).collect();
    let scores: Vec<f64> = top.iter().map(|v| v.score.unwrap_or(f64::NAN)).collect();
    t.check(checks::recommendation(&ids, &scores, views, TOP_K));
    t.precision.push(precision_at_k(&ids, &s.utility, TOP_K));
    t.chance
        .push(crate::views::chance_precision(&s.utility, TOP_K));
    t.check_s += checked.elapsed().as_secs_f64();

    if let Some((csv, sent)) = &s.append {
        let started = Instant::now();
        let r = b.append(&s.name, csv);
        t.ops.record("append", &r);
        let (total, rebuilt) = r.map_err(|e| t.fail(format!("append: {e}")))?;
        t.append_ms.push(ms(started));
        t.request_us += started.elapsed().as_secs_f64() * 1e6;
        t.rowgroups += rebuilt * row_groups(total);
        t.check(checks::append_rows(total, *sent));
        let started = Instant::now();
        let r = b.dataset_rows(&s.name);
        t.ops.record("inspect", &r);
        let rows = r.map_err(|e| t.fail(format!("inspect: {e}")))?;
        t.request_us += started.elapsed().as_secs_f64() * 1e6;
        t.check(checks::append_rows(rows, *sent));
    }

    b.before_delete(&sid);
    let started = Instant::now();
    let r = b.delete(&sid);
    t.ops.record("delete", &r);
    r.map_err(|e| t.fail(format!("delete: {e}")))?;
    t.delete_ms.push(ms(started));
    t.request_us += started.elapsed().as_secs_f64() * 1e6;
    t.sessions += 1;
    Ok(())
}
