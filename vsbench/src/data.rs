//! Seeded input tables. The benchmark keeps its own copy of every row it
//! hands the program, so the simulated user and the output checks work
//! from the raw rows, never from the program's answers.
//!
//! Column names follow the program's CSV convention: `m_*` is a measure,
//! `n_*` a numeric dimension, anything else a categorical dimension.

use std::fmt::Write as _;

use crate::rng::Rng;

/// Which generator shapes a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small retail tables: region, channel, product, `n_age`, three
    /// measures.
    Retail { products: u32 },
    /// Large event logs in ingest order: `n_t` (the row's position), region,
    /// product, a `uid` of thousands of values, two measures.
    Events,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ColData {
    /// Codes index `labels`; `labels` lists every value the generator may
    /// draw, whether or not it appears.
    Cat {
        labels: Vec<String>,
        codes: Vec<u32>,
    },
    /// Whole numbers, so every sum the program forms is exact.
    Num(Vec<i64>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub data: ColData,
}

impl Column {
    #[must_use]
    pub fn is_measure(&self) -> bool {
        self.name.starts_with("m_")
    }

    fn cat(name: &str, prefix: &str, n: u32) -> Self {
        Self {
            name: name.to_owned(),
            data: ColData::Cat {
                labels: (0..n).map(|i| format!("{prefix}{i}")).collect(),
                codes: Vec::new(),
            },
        }
    }

    fn num(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            data: ColData::Num(Vec::new()),
        }
    }

    fn push(&mut self, v: i64) {
        match &mut self.data {
            ColData::Cat { codes, .. } => codes.push(v as u32),
            ColData::Num(vals) => vals.push(v),
        }
    }

    fn write_field(&self, row: usize, out: &mut String) {
        match &self.data {
            ColData::Cat { labels, codes } => out.push_str(&labels[codes[row] as usize]),
            ColData::Num(vals) => {
                let _ = write!(out, "{}", vals[row]);
            }
        }
    }
}

/// Per-table hidden effects, drawn once from the table's seed.
#[derive(Debug, Clone)]
struct Effects {
    region_weight: Vec<f64>,
    pref_channel: Vec<u32>,
    pref_product: Vec<u32>,
    base_price: Vec<i64>,
    lift: Vec<i64>,
}

/// Number of distinct `uid` values in an events table as first ingested;
/// appended chunks draw from a wider range, as real ID streams do.
pub const EVENT_UIDS: u32 = 2000;
/// `uid` range of appended chunks.
pub const EVENT_UIDS_APPENDED: u32 = 2200;
const EVENT_REGIONS: u32 = 8;
const EVENT_PRODUCTS: u32 = 24;
const RETAIL_REGIONS: u32 = 6;
const RETAIL_CHANNELS: u32 = 4;

#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: String,
    pub kind: Kind,
    pub cols: Vec<Column>,
    effects: Effects,
    rng: Rng,
}

impl Dataset {
    /// An empty table of `kind`; its effects and rows come from `seed`.
    #[must_use]
    pub fn new(name: &str, kind: Kind, seed: u64) -> Self {
        let root = Rng::new(seed);
        let mut fx = root.fork(1);
        let cols = match kind {
            Kind::Retail { products } => vec![
                Column::cat("region", "r", RETAIL_REGIONS),
                Column::cat("channel", "c", RETAIL_CHANNELS),
                Column::cat("product", "p", products),
                Column::num("n_age"),
                Column::num("m_price"),
                Column::num("m_qty"),
                Column::num("m_rating"),
            ],
            Kind::Events => vec![
                Column::num("n_t"),
                Column::cat("region", "r", EVENT_REGIONS),
                Column::cat("product", "p", EVENT_PRODUCTS),
                Column::cat("uid", "u", EVENT_UIDS_APPENDED),
                Column::num("m_price"),
                Column::num("m_qty"),
            ],
        };
        let (regions, products) = match kind {
            Kind::Retail { products } => (RETAIL_REGIONS, products),
            Kind::Events => (EVENT_REGIONS, EVENT_PRODUCTS),
        };
        let effects = Effects {
            region_weight: (0..regions).map(|_| 0.3 + fx.unit()).collect(),
            pref_channel: (0..regions)
                .map(|_| fx.below(u64::from(RETAIL_CHANNELS)) as u32)
                .collect(),
            pref_product: (0..regions)
                .map(|_| fx.below(u64::from(products)) as u32)
                .collect(),
            base_price: (0..products).map(|_| 20 + fx.below(400) as i64).collect(),
            lift: (0..regions).map(|_| fx.below(5) as i64).collect(),
        };
        Self {
            name: name.to_owned(),
            kind,
            cols,
            effects,
            rng: root.fork(2),
        }
    }

    #[must_use]
    pub fn rows(&self) -> usize {
        match &self.cols[0].data {
            ColData::Cat { codes, .. } => codes.len(),
            ColData::Num(v) => v.len(),
        }
    }

    #[must_use]
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.cols.iter().find(|c| c.name == name)
    }

    /// Generates `n` more rows; returns the index of the first.
    pub fn grow(&mut self, n: usize, appended: bool) -> usize {
        let start = self.rows();
        for t in start..start + n {
            let row = match self.kind {
                Kind::Retail { products } => self.retail_row(products),
                Kind::Events => self.event_row(t as i64, appended),
            };
            for (col, v) in self.cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
        start
    }

    fn weighted_region(&mut self) -> u32 {
        let total: f64 = self.effects.region_weight.iter().sum();
        let mut x = self.rng.unit() * total;
        for (i, w) in self.effects.region_weight.iter().enumerate() {
            if x < *w {
                return i as u32;
            }
            x -= w;
        }
        (self.effects.region_weight.len() - 1) as u32
    }

    fn retail_row(&mut self, products: u32) -> Vec<i64> {
        let region = self.weighted_region();
        let r = region as usize;
        let channel = if self.rng.unit() < 0.5 {
            self.effects.pref_channel[r]
        } else {
            self.rng.below(u64::from(RETAIL_CHANNELS)) as u32
        };
        let product = if self.rng.unit() < 0.4 {
            self.effects.pref_product[r]
        } else {
            self.rng.below(u64::from(products)) as u32
        };
        let age = 18 + self.rng.below(40) as i64 + 3 * i64::from(region) + 2 * i64::from(channel);
        let base = self.effects.base_price[product as usize];
        let price = base + self.effects.lift[r] * base / 10 + self.rng.below(40) as i64;
        let favoured = channel == self.effects.pref_channel[r];
        let qty = 1 + self.rng.below(6) as i64 + 4 * i64::from(favoured);
        let liked = product == self.effects.pref_product[r];
        let rating = 1 + (self.rng.below(4) as i64 + 2 * i64::from(liked)).min(4);
        vec![
            i64::from(region),
            i64::from(channel),
            i64::from(product),
            age,
            price,
            qty,
            rating,
        ]
    }

    fn event_row(&mut self, t: i64, appended: bool) -> Vec<i64> {
        // The mix drifts every two row groups, so a range on `n_t` sees a
        // different table than the whole.
        let phase = (t / 131_072) as u32;
        let region = if self.rng.unit() < 0.6 {
            (phase + self.rng.below(3) as u32) % EVENT_REGIONS
        } else {
            self.rng.below(u64::from(EVENT_REGIONS)) as u32
        };
        let product = if self.rng.unit() < 0.3 {
            (region * 3 + phase) % EVENT_PRODUCTS
        } else {
            self.rng.below(u64::from(EVENT_PRODUCTS)) as u32
        };
        let uids = if appended {
            EVENT_UIDS_APPENDED
        } else {
            EVENT_UIDS
        };
        let uid = self.rng.below(u64::from(uids));
        let price = self.effects.base_price[product as usize]
            + i64::from(phase % 5) * 7
            + self.rng.below(30) as i64;
        let qty = 1 + self.rng.below(5) as i64 + 3 * i64::from(region % 3 == phase % 3);
        vec![
            t,
            i64::from(region),
            i64::from(product),
            uid as i64,
            price,
            qty,
        ]
    }

    /// CSV (header plus rows `from..to`) in the program's import format.
    #[must_use]
    pub fn csv(&self, from: usize, to: usize) -> String {
        let mut out = String::with_capacity((to - from) * 40 + 64);
        let names: Vec<&str> = self.cols.iter().map(|c| c.name.as_str()).collect();
        out.push_str(&names.join(","));
        out.push('\n');
        for row in from..to {
            for (i, col) in self.cols.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                col.write_field(row, &mut out);
            }
            out.push('\n');
        }
        out
    }
}

/// A session's target query `DQ`.
#[derive(Debug, Clone, PartialEq)]
pub enum Dq {
    /// `column = 'value'` on a categorical dimension.
    Eq { column: String, code: u32 },
    /// `lo <= column < hi` on a numeric dimension.
    Range { column: String, lo: i64, hi: i64 },
}

impl Dq {
    /// The `WHERE` clause the program parses.
    #[must_use]
    pub fn sql(&self, ds: &Dataset) -> String {
        match self {
            Dq::Eq { column, code } => {
                let label = match ds.column(column).map(|c| &c.data) {
                    Some(ColData::Cat { labels, .. }) => labels[*code as usize].clone(),
                    _ => String::new(),
                };
                format!("{column} = '{label}'")
            }
            Dq::Range { column, lo, hi } => format!("{column} >= {lo} AND {column} < {hi}"),
        }
    }

    /// Row ids of `ds` the query selects, computed from the raw rows.
    #[must_use]
    pub fn rows(&self, ds: &Dataset) -> Vec<usize> {
        match self {
            Dq::Eq { column, code } => match ds.column(column).map(|c| &c.data) {
                Some(ColData::Cat { codes, .. }) => {
                    (0..codes.len()).filter(|&i| codes[i] == *code).collect()
                }
                _ => Vec::new(),
            },
            Dq::Range { column, lo, hi } => match ds.column(column).map(|c| &c.data) {
                Some(ColData::Num(vals)) => (0..vals.len())
                    .filter(|&i| vals[i] >= *lo && vals[i] < *hi)
                    .collect(),
                _ => Vec::new(),
            },
        }
    }
}
