//! The benchmark's own view space and group-by, computed from the raw rows
//! it generated. They stand apart from the program: the simulated user
//! scores views with them, and the checks compare the program against
//! them.

use crate::data::{ColData, Dataset};

/// Aggregates in the order the paper's view space enumerates them.
pub const AGGREGATES: [&str; 5] = ["COUNT", "SUM", "AVG", "MIN", "MAX"];
/// Bin counts tried for every numeric dimension (the program's default).
pub const BIN_CONFIGS: [usize; 2] = [3, 4];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    pub dimension: String,
    pub measure: String,
    pub aggregate: usize,
    pub bins: Option<usize>,
}

/// Views of `ds` from its schema alone: each dimension not in `excluded`
/// (one bin set if categorical, one per entry of [`BIN_CONFIGS`] if
/// numeric), times each measure, times each aggregate.
#[must_use]
pub fn enumerate(ds: &Dataset, excluded: &[&str]) -> Vec<ViewDef> {
    let measures: Vec<&str> = ds
        .cols
        .iter()
        .filter(|c| c.is_measure())
        .map(|c| c.name.as_str())
        .collect();
    let mut out = Vec::new();
    for col in ds.cols.iter().filter(|c| !c.is_measure()) {
        if excluded.contains(&col.name.as_str()) {
            continue;
        }
        let bin_options: Vec<Option<usize>> = match col.data {
            ColData::Cat { .. } => vec![None],
            ColData::Num(_) => BIN_CONFIGS.iter().map(|b| Some(*b)).collect(),
        };
        for bins in bin_options {
            for m in &measures {
                for aggregate in 0..AGGREGATES.len() {
                    out.push(ViewDef {
                        dimension: col.name.clone(),
                        measure: (*m).to_owned(),
                        aggregate,
                        bins,
                    });
                }
            }
        }
    }
    out
}

/// One bin's running `(count, sum, min, max)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acc {
    pub count: u64,
    pub sum: i64,
    pub min: i64,
    pub max: i64,
}

impl Default for Acc {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }
}

impl Acc {
    fn add(&mut self, v: i64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The bin's value under aggregate `agg` (0 for an empty bin, as SQL
    /// views render them).
    #[must_use]
    pub fn value(&self, agg: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        match agg {
            0 => self.count as f64,
            1 => self.sum as f64,
            2 => self.sum as f64 / self.count as f64,
            3 => self.min as f64,
            _ => self.max as f64,
        }
    }
}

/// A dimension's binning of every row: the bin of each row, and each bin's
/// label (category name, or the bin index for numeric bins).
#[derive(Debug, Clone)]
pub struct Binning {
    pub labels: Vec<String>,
    pub of_row: Vec<u32>,
}

/// Bins `dimension` over all of `ds`: categories as they are, numbers into
/// `bins` equal-width bins between the column's minimum and maximum.
#[must_use]
pub fn binning(ds: &Dataset, dimension: &str, bins: Option<usize>) -> Binning {
    match (&ds.column(dimension).map(|c| &c.data), bins) {
        (Some(ColData::Cat { labels, codes }), _) => Binning {
            labels: labels.clone(),
            of_row: codes.clone(),
        },
        (Some(ColData::Num(vals)), Some(count)) => {
            let min = vals.iter().copied().min().unwrap_or(0) as f64;
            let max = vals.iter().copied().max().unwrap_or(0) as f64;
            let width = (max - min) / count as f64;
            let of_row = vals
                .iter()
                .map(|&v| {
                    if width <= 0.0 {
                        0
                    } else {
                        ((v as f64 - min) / width)
                            .floor()
                            .clamp(0.0, (count - 1) as f64) as u32
                    }
                })
                .collect();
            Binning {
                labels: (0..count).map(|i| i.to_string()).collect(),
                of_row,
            }
        }
        _ => Binning {
            labels: Vec::new(),
            of_row: Vec::new(),
        },
    }
}

/// Per-bin accumulators of `measure` over `rows` (all rows when `None`).
#[must_use]
pub fn group_by(ds: &Dataset, bin: &Binning, measure: &str, rows: Option<&[usize]>) -> Vec<Acc> {
    let mut accs = vec![Acc::default(); bin.labels.len()];
    let Some(ColData::Num(vals)) = ds.column(measure).map(|c| &c.data) else {
        return accs;
    };
    match rows {
        Some(rows) => {
            for &r in rows {
                accs[bin.of_row[r] as usize].add(vals[r]);
            }
        }
        None => {
            for (r, v) in vals.iter().enumerate() {
                accs[bin.of_row[r] as usize].add(*v);
            }
        }
    }
    accs
}

/// The paper's Eq. 5: aggregates shifted to be non-negative and scaled to
/// sum to one; an all-zero view is uniform.
#[must_use]
pub fn distribution(values: &[f64]) -> Vec<f64> {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let shift = if min < 0.0 { -min } else { 0.0 };
    let total: f64 = values.iter().map(|v| v + shift).sum();
    if total <= 0.0 {
        return vec![1.0 / values.len() as f64; values.len()];
    }
    values.iter().map(|v| (v + shift) / total).collect()
}

/// The simulated user's hidden utility of every view: the L1 deviation of
/// the target view (over `DQ`) from the reference view (over all rows).
/// Bin order does not change it, so it needs nothing from the program.
#[derive(Debug, Clone)]
pub struct Oracle {
    space: Vec<ViewDef>,
    rows_seen: usize,
    /// One binning per distinct `(dimension, bins)` pair.
    binnings: Vec<((String, Option<usize>), Binning)>,
    /// Reference accumulators per `(binning, measure)`.
    reference: Vec<Vec<Acc>>,
    measures: Vec<String>,
}

impl Oracle {
    #[must_use]
    pub fn new(ds: &Dataset, space: Vec<ViewDef>) -> Self {
        let mut measures: Vec<String> = Vec::new();
        for v in &space {
            if !measures.contains(&v.measure) {
                measures.push(v.measure.clone());
            }
        }
        let mut o = Self {
            space,
            rows_seen: usize::MAX,
            binnings: Vec::new(),
            reference: Vec::new(),
            measures,
        };
        o.refresh(ds);
        o
    }

    #[must_use]
    pub fn space(&self) -> &[ViewDef] {
        &self.space
    }

    /// Recomputes binnings and reference views after `ds` grew.
    pub fn refresh(&mut self, ds: &Dataset) {
        if self.rows_seen == ds.rows() {
            return;
        }
        self.rows_seen = ds.rows();
        let mut keys: Vec<(String, Option<usize>)> = Vec::new();
        for v in &self.space {
            let key = (v.dimension.clone(), v.bins);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        self.binnings = keys
            .into_iter()
            .map(|k| {
                let b = binning(ds, &k.0, k.1);
                (k, b)
            })
            .collect();
        self.reference = self
            .binnings
            .iter()
            .flat_map(|(_, b)| self.measures.iter().map(|m| group_by(ds, b, m, None)))
            .collect();
    }

    fn slot(&self, v: &ViewDef) -> (usize, usize) {
        let b = self
            .binnings
            .iter()
            .position(|(k, _)| k.0 == v.dimension && k.1 == v.bins)
            .unwrap_or(0);
        let m = self
            .measures
            .iter()
            .position(|m| *m == v.measure)
            .unwrap_or(0);
        (b, m)
    }

    /// The binning and the target and reference accumulators of view `v`
    /// under `dq` rows.
    #[must_use]
    pub fn view_accs(
        &self,
        ds: &Dataset,
        v: &ViewDef,
        dq: &[usize],
    ) -> (&Binning, Vec<Acc>, &[Acc]) {
        let (b, m) = self.slot(v);
        let binning = &self.binnings[b].1;
        let target = group_by(ds, binning, &v.measure, Some(dq));
        (
            binning,
            target,
            &self.reference[b * self.measures.len() + m],
        )
    }

    /// Utility of every view of the space for target rows `dq`.
    pub fn utilities(&mut self, ds: &Dataset, dq: &[usize]) -> Vec<f64> {
        self.refresh(ds);
        let n_m = self.measures.len();
        let targets: Vec<Vec<Acc>> = self
            .binnings
            .iter()
            .flat_map(|(_, b)| self.measures.iter().map(|m| group_by(ds, b, m, Some(dq))))
            .collect();
        self.space
            .iter()
            .map(|v| {
                let (b, m) = self.slot(v);
                let t = &targets[b * n_m + m];
                let r = &self.reference[b * n_m + m];
                let p = distribution(&t.iter().map(|a| a.value(v.aggregate)).collect::<Vec<_>>());
                let q = distribution(&r.iter().map(|a| a.value(v.aggregate)).collect::<Vec<_>>());
                p.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum()
            })
            .collect()
    }
}

/// The simulated user's label of each view: its utility as a share of
/// the best view's.
#[must_use]
pub fn labels(utility: &[f64]) -> Vec<f64> {
    let best = utility.iter().copied().fold(0.0_f64, f64::max);
    utility
        .iter()
        .map(|u| {
            if best > 0.0 {
                (u / best).clamp(0.0, 1.0)
            } else {
                0.0
            }
        })
        .collect()
}

/// Top-`k` precision that is fair to ties: a recommended view counts when
/// its utility reaches the `k`-th best utility.
#[must_use]
pub fn precision_at_k(recommended: &[usize], utility: &[f64], k: usize) -> f64 {
    if k == 0 || utility.is_empty() {
        return 0.0;
    }
    let mut sorted = utility.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let kth = sorted[(k - 1).min(sorted.len() - 1)];
    let hits = recommended
        .iter()
        .take(k)
        .filter(|&&v| utility.get(v).is_some_and(|u| *u >= kth))
        .count();
    hits as f64 / k as f64
}

/// Expected tie-aware precision of `k` views drawn at random: the share of
/// views whose utility reaches the `k`-th best.
#[must_use]
pub fn chance_precision(utility: &[f64], k: usize) -> f64 {
    if utility.is_empty() {
        return 0.0;
    }
    let mut sorted = utility.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let kth = sorted[(k - 1).min(sorted.len() - 1)];
    utility.iter().filter(|u| **u >= kth).count() as f64 / utility.len() as f64
}
