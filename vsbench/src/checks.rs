//! Output checks. Each compares the program's answer with a value the
//! benchmark derived itself, or with a property the method must have; none
//! compares with a stored copy of an earlier output. Each returns the
//! mismatch as text.

use std::collections::HashSet;

pub type Check = Result<(), String>;

/// A session's view count equals the count derived from the schema and
/// the view-space config.
pub fn view_count(reported: usize, derived: usize) -> Check {
    if reported == derived {
        Ok(())
    } else {
        Err(format!(
            "session has {reported} views; schema and config give {derived}"
        ))
    }
}

/// A `next` answer names a view in range that the session has not had
/// labelled yet.
pub fn next_view(view: usize, views: usize, labelled: &HashSet<usize>) -> Check {
    if view >= views {
        return Err(format!("next returned view {view} of {views}"));
    }
    if labelled.contains(&view) {
        return Err(format!(
            "next returned view {view}, which is already labelled"
        ));
    }
    Ok(())
}

/// A recommendation holds `k` distinct views in range, in descending score
/// order.
pub fn recommendation(ids: &[usize], scores: &[f64], views: usize, k: usize) -> Check {
    if ids.len() != k {
        return Err(format!(
            "recommend returned {} views, wanted {k}",
            ids.len()
        ));
    }
    let mut seen = HashSet::new();
    for &v in ids {
        if v >= views {
            return Err(format!("recommended view {v} of {views}"));
        }
        if !seen.insert(v) {
            return Err(format!("view {v} recommended twice"));
        }
    }
    if scores.len() != ids.len() {
        return Err(format!("{} scores for {} views", scores.len(), ids.len()));
    }
    if let Some(w) = scores.windows(2).find(|w| w[0] < w[1] || w[0].is_nan()) {
        return Err(format!("scores out of order: {} before {}", w[0], w[1]));
    }
    Ok(())
}

/// Mean precision clears its floor.
pub fn precision(mean: f64, floor: f64) -> Check {
    if mean >= floor {
        Ok(())
    } else {
        Err(format!(
            "precision@10 {mean:.4} is below its floor {floor:.4}"
        ))
    }
}

/// After an append the dataset holds exactly the rows the benchmark sent.
pub fn append_rows(reported: u64, sent: u64) -> Check {
    if reported == sent {
        Ok(())
    } else {
        Err(format!("dataset reports {reported} rows; {sent} were sent"))
    }
}

/// Every row group of the table was either scanned or pruned, once.
pub fn rowgroups(scanned: u64, pruned: u64, groups: u64) -> Check {
    if scanned + pruned == groups {
        Ok(())
    } else {
        Err(format!(
            "{scanned} row groups scanned + {pruned} pruned, table has {groups}"
        ))
    }
}

/// One `next` refines exactly the budget (or what is left of it).
pub fn refinement_step(before: usize, after: usize, budget: usize) -> Check {
    let want = before.saturating_sub(budget);
    if after == want {
        Ok(())
    } else {
        Err(format!(
            "pending refinements went {before} -> {after} with a budget of {budget} (want {want})"
        ))
    }
}

/// Two feature matrices agree bit for bit.
pub fn bit_identical(refined: &[[f64; 8]], exact: &[[f64; 8]]) -> Check {
    if refined.len() != exact.len() {
        return Err(format!(
            "{} refined feature rows against {} exact ones",
            refined.len(),
            exact.len()
        ));
    }
    for (i, (a, b)) in refined.iter().zip(exact).enumerate() {
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(format!(
                    "view {i} feature {j}: refined {x:e} but exact {y:e}"
                ));
            }
        }
    }
    Ok(())
}

/// A view's per-bin aggregates from the program equal the benchmark's own
/// group-by (both keyed by bin label).
pub fn view_values(label: &str, program: &[(String, f64)], own: &[(String, f64)]) -> Check {
    let mut p = program.to_vec();
    let mut o = own.to_vec();
    p.sort_by(|a, b| a.0.cmp(&b.0));
    o.sort_by(|a, b| a.0.cmp(&b.0));
    if p.len() != o.len() {
        return Err(format!(
            "{label}: {} bins from the program, {} from the raw rows",
            p.len(),
            o.len()
        ));
    }
    for ((pl, pv), (ol, ov)) in p.iter().zip(&o) {
        if pl != ol || pv.to_bits() != ov.to_bits() {
            return Err(format!(
                "{label}: bin {pl}={pv} from the program, {ol}={ov} from the raw rows"
            ));
        }
    }
    Ok(())
}

/// Server stages plus the client-side remainder account for the
/// client-observed time: the stages may not exceed it, and the remainder
/// may not exceed `tolerance` of it.
pub fn stage_sum(stages_us: f64, client_us: f64, tolerance: f64) -> Check {
    if client_us <= 0.0 {
        return Err("no client-observed time".into());
    }
    let remainder = client_us - stages_us;
    if remainder < 0.0 {
        return Err(format!(
            "server stages {stages_us:.0} us exceed the client-observed {client_us:.0} us"
        ));
    }
    if remainder > tolerance * client_us {
        return Err(format!(
            "client-side remainder {remainder:.0} us is {:.1}% of {client_us:.0} us (tolerance {:.0}%)",
            100.0 * remainder / client_us,
            100.0 * tolerance
        ));
    }
    Ok(())
}
