//! Each output check fires on a wrong answer and passes the right one.

use std::collections::HashSet;

use viewseeker_vsbench::data::{Dataset, Dq, Kind};
use viewseeker_vsbench::stats;
use viewseeker_vsbench::views::{chance_precision, enumerate, precision_at_k, Oracle};
use viewseeker_vsbench::{checks, session};

#[test]
fn wrong_view_count_is_caught() {
    let mut ds = Dataset::new("t", Kind::Retail { products: 10 }, 7);
    ds.grow(500, false);
    // 3 categorical dimensions + 1 numeric one with 2 bin counts, 3
    // measures, 5 aggregates.
    let derived = enumerate(&ds, &[]).len();
    assert_eq!(derived, (3 + 2) * 3 * 5);
    assert!(checks::view_count(derived, derived).is_ok());
    assert!(checks::view_count(derived - 1, derived).is_err());
    assert!(checks::view_count(derived + 1, derived).is_err());
    // Excluding a dimension shrinks the derived count, so a program that
    // ignored `exclude` would be caught.
    assert_eq!(enumerate(&ds, &["region"]).len(), (2 + 2) * 3 * 5);
}

#[test]
fn out_of_range_or_repeated_next_view_is_caught() {
    let labelled: HashSet<usize> = [3, 5].into_iter().collect();
    assert!(checks::next_view(4, 75, &labelled).is_ok());
    assert!(checks::next_view(75, 75, &labelled).is_err());
    assert!(checks::next_view(5, 75, &labelled).is_err());
}

#[test]
fn bad_recommendations_are_caught() {
    let ids: Vec<usize> = (0..10).collect();
    let scores: Vec<f64> = (0..10).map(|i| 1.0 - f64::from(i) / 10.0).collect();
    assert!(checks::recommendation(&ids, &scores, 75, 10).is_ok());
    // out of range
    let mut bad = ids.clone();
    bad[9] = 75;
    assert!(checks::recommendation(&bad, &scores, 75, 10).is_err());
    // repeated
    let mut bad = ids.clone();
    bad[9] = 0;
    assert!(checks::recommendation(&bad, &scores, 75, 10).is_err());
    // too few
    assert!(checks::recommendation(&ids[..9], &scores[..9], 75, 10).is_err());
    // scores not descending
    let mut unsorted = scores.clone();
    unsorted.swap(2, 3);
    assert!(checks::recommendation(&ids, &unsorted, 75, 10).is_err());
}

#[test]
fn precision_below_its_floor_is_caught() {
    assert!(checks::precision(0.61, 0.6).is_ok());
    assert!(checks::precision(0.59, 0.6).is_err());
}

#[test]
fn append_row_count_off_by_one_is_caught() {
    assert!(checks::append_rows(1_005_000, 1_005_000).is_ok());
    assert!(checks::append_rows(1_004_999, 1_005_000).is_err());
    assert!(checks::append_rows(1_005_001, 1_005_000).is_err());
}

#[test]
fn row_group_accounting_and_refinement_steps_are_checked() {
    assert!(checks::rowgroups(2, 14, 16).is_ok());
    assert!(checks::rowgroups(2, 13, 16).is_err());
    // Over a run: every create of a 1M-row table accounts for 16 groups, so
    // one group lost over 50 creates is caught.
    assert_eq!(session::row_groups(65_536), 1);
    assert_eq!(session::row_groups(65_537), 2);
    let expected = 50 * session::row_groups(1_000_000);
    assert_eq!(expected, 800);
    assert!(checks::rowgroups(88, 712, expected).is_ok());
    assert!(checks::rowgroups(88, 711, expected).is_err());
    assert!(checks::refinement_step(75, 69, 6).is_ok());
    assert!(checks::refinement_step(3, 0, 6).is_ok());
    assert!(checks::refinement_step(75, 70, 6).is_err());
}

#[test]
fn feature_matrices_must_agree_bit_for_bit() {
    let a = vec![[0.5; 8], [0.25; 8]];
    let mut b = a.clone();
    assert!(checks::bit_identical(&a, &b).is_ok());
    b[1][7] = f64::from_bits(0.25f64.to_bits() + 1);
    assert!(checks::bit_identical(&a, &b).is_err());
    assert!(checks::bit_identical(&a, &a[..1]).is_err());
}

#[test]
fn view_values_are_compared_by_label() {
    let program = vec![("r1".to_owned(), 2.0), ("r0".to_owned(), 1.0)];
    let own = vec![("r0".to_owned(), 1.0), ("r1".to_owned(), 2.0)];
    assert!(checks::view_values("v", &program, &own).is_ok());
    let off = vec![("r0".to_owned(), 1.0), ("r1".to_owned(), 2.5)];
    assert!(checks::view_values("v", &program, &off).is_err());
}

#[test]
fn stages_must_account_for_the_client_time() {
    assert!(checks::stage_sum(900.0, 1000.0, 0.35).is_ok());
    assert!(checks::stage_sum(1100.0, 1000.0, 0.35).is_err());
    assert!(checks::stage_sum(500.0, 1000.0, 0.35).is_err());
}

#[test]
fn a_learned_top_10_beats_chance_and_a_random_one_does_not() {
    let mut ds = Dataset::new("t", Kind::Retail { products: 10 }, 11);
    ds.grow(4000, false);
    let mut oracle = Oracle::new(&ds, enumerate(&ds, &[]));
    let dq = Dq::Eq {
        column: "region".into(),
        code: 1,
    };
    let u = oracle.utilities(&ds, &dq.rows(&ds));
    let mut order: Vec<usize> = (0..u.len()).collect();
    order.sort_by(|a, b| u[*b].total_cmp(&u[*a]));
    assert_eq!(precision_at_k(&order[..10], &u, 10), 1.0);
    let worst: Vec<usize> = order.iter().rev().take(10).copied().collect();
    assert!(precision_at_k(&worst, &u, 10) < 0.6);
    assert!(chance_precision(&u, 10) < 0.3);
}

#[test]
fn tails_need_ten_samples_beyond_them() {
    assert_eq!(stats::tail_percentile(39), None);
    assert_eq!(stats::tail_percentile(40), Some(75.0));
    assert_eq!(stats::tail_percentile(100), Some(90.0));
    assert_eq!(stats::tail_percentile(100_000), Some(90.0));
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&xs, 90.0), 90.0);
    assert_eq!(stats::median(&xs), 50.5);
}

#[test]
fn blocked_tails_shrug_off_a_burst() {
    // Too few samples for five blocks: p75 of all of them.
    let few: Vec<f64> = (1..=60).map(f64::from).collect();
    assert_eq!(stats::tail(&few), (75.0, 45.0));
    // Ten blocks of 100 samples 1..=100; a stall slows two whole blocks.
    let mut xs: Vec<f64> = (0..1000).map(|i| f64::from(i % 100 + 1)).collect();
    assert_eq!(stats::tail(&xs), (90.0, 90.0));
    for x in &mut xs[300..500] {
        *x += 1000.0;
    }
    assert_eq!(stats::tail(&xs), (90.0, 90.0));
    // Unblocked, the same stall moves p90 from 90 to past 1000.
    assert!(stats::percentile(&xs, 90.0) > 1000.0);
}

#[test]
fn inputs_follow_the_seed() {
    let a = Dataset::new("t", Kind::Events, 3);
    let b = Dataset::new("t", Kind::Events, 3);
    let (mut a, mut b) = (a, b);
    a.grow(1000, false);
    b.grow(1000, false);
    assert_eq!(a.csv(0, 1000), b.csv(0, 1000));
    let mut c = Dataset::new("t", Kind::Events, 4);
    c.grow(1000, false);
    assert_ne!(a.csv(0, 1000), c.csv(0, 1000));
}
