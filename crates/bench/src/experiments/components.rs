//! Tables 3–6 — per-component accuracy on the query subsets each component
//! is responsible for.
//!
//! * Table 3: exec-time cache vs AutoWLM on *cache-hit* queries;
//! * Table 4: local model vs AutoWLM on *cache-miss* queries;
//! * Table 5: global model vs local model on all cache-miss queries (the
//!   paper's "better data beats bigger data" result — local wins);
//! * Table 6: global vs local on the *uncertain, predicted-long* subset
//!   (here the global model must win — that is why it exists).

use super::data::Collected;
use super::ExperimentReport;
use crate::context::ExperimentContext;
use serde_json::json;
use stage_metrics::BucketReport;

/// Extracts `(actual, a_pred, b_pred)` triples over records where `filter`
/// holds and both predictions exist.
fn subset<FA, FB, FF>(data: &Collected, filter: FF, a: FA, b: FB) -> (Vec<f64>, Vec<f64>, Vec<f64>)
where
    FF: Fn(&crate::replay::AblationRecord) -> bool,
    FA: Fn(&crate::replay::AblationRecord, f64) -> Option<f64>,
    FB: Fn(&crate::replay::AblationRecord, f64) -> Option<f64>,
{
    let mut actual = Vec::new();
    let mut pa = Vec::new();
    let mut pb = Vec::new();
    for inst in &data.instances {
        for (ab, auto) in inst.ablation.iter().zip(&inst.auto) {
            if !filter(ab) {
                continue;
            }
            let (Some(x), Some(y)) = (a(ab, auto.predicted_secs), b(ab, auto.predicted_secs))
            else {
                continue;
            };
            actual.push(ab.actual_secs);
            pa.push(x);
            pb.push(y);
        }
    }
    (actual, pa, pb)
}

fn two_table_report(
    name: &str,
    title_a: &str,
    title_b: &str,
    actual: &[f64],
    pred_a: &[f64],
    pred_b: &[f64],
    note: &str,
) -> ExperimentReport {
    match (
        BucketReport::from_pairs(actual, pred_a),
        BucketReport::from_pairs(actual, pred_b),
    ) {
        (Some(ra), Some(rb)) => {
            let mut text = ra.render_abs(title_a);
            text.push('\n');
            text.push_str(&rb.render_abs(title_b));
            text.push_str(note);
            let json = json!({ "first": ra, "second": rb, "n": actual.len() });
            ExperimentReport::new(name, text, json)
        }
        _ => ExperimentReport::new(
            name,
            format!("{name}: subset empty — increase fleet size/duration\n"),
            json!({ "n": 0 }),
        ),
    }
}

/// Table 3: cache vs AutoWLM on cache hits.
pub fn tab3(_ctx: &ExperimentContext, data: &Collected) -> ExperimentReport {
    let (actual, cache, auto) = subset(
        data,
        |r| r.is_cache_hit(),
        |r, _| r.cache_secs,
        |_, auto| Some(auto),
    );
    let total: usize = data.total_queries();
    let note = format!(
        "\ncache-hit queries: {} of {} ({:.1}%; paper: 61.8%)\n",
        actual.len(),
        total,
        100.0 * actual.len() as f64 / total.max(1) as f64
    );
    two_table_report(
        "tab3",
        "Table 3 — exec-time cache on cache-hit queries (abs error, s)",
        "Table 3 — AutoWLM on the same queries",
        &actual,
        &cache,
        &auto,
        &note,
    )
}

/// Table 4: local model vs AutoWLM on cache misses.
pub fn tab4(_ctx: &ExperimentContext, data: &Collected) -> ExperimentReport {
    let (actual, local, auto) = subset(
        data,
        |r| !r.is_cache_hit(),
        |r, _| r.local_secs,
        |_, auto| Some(auto),
    );
    let note = format!(
        "\ncache-miss queries with a trained local model: {}\n",
        actual.len()
    );
    two_table_report(
        "tab4",
        "Table 4 — local model on cache-miss queries (abs error, s)",
        "Table 4 — AutoWLM on the same queries",
        &actual,
        &local,
        &auto,
        &note,
    )
}

/// Table 5: global vs local on all cache misses.
pub fn tab5(_ctx: &ExperimentContext, data: &Collected) -> ExperimentReport {
    let (actual, global, local) = subset(
        data,
        |r| !r.is_cache_hit(),
        |r, _| r.global_secs,
        |r, _| r.local_secs,
    );
    let note = "\nExpected shape (paper §5.4): the LOCAL model wins overall — \
                \"better data beats bigger data\".\n";
    two_table_report(
        "tab5",
        "Table 5 — global model on all cache-miss queries (abs error, s)",
        "Table 5 — local model on the same queries",
        &actual,
        &global,
        &local,
        note,
    )
}

/// Table 6: global vs local on uncertain, predicted-long queries.
pub fn tab6(ctx: &ExperimentContext, data: &Collected) -> ExperimentReport {
    let routing = ctx.config.stage.routing;
    let (actual, global, local) = subset(
        data,
        |r| {
            !r.is_cache_hit()
                && r.local_secs
                    .zip(r.local_log_std)
                    .is_some_and(|(secs, log_std)| routing.escalates(secs, log_std))
        },
        |r, _| r.global_secs,
        |r, _| r.local_secs,
    );
    let note = format!(
        "\nuncertain long-predicted queries: {} — here the GLOBAL model should win (paper Table 6)\n",
        actual.len()
    );
    two_table_report(
        "tab6",
        "Table 6 — global model on uncertain queries (abs error, s)",
        "Table 6 — local model on the same queries",
        &actual,
        &global,
        &local,
        &note,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::data::collect;
    use crate::experiments::data::tests::tiny_context;

    #[test]
    fn component_tables_build() {
        let ctx = tiny_context();
        let data = collect(&ctx, true);
        let t3 = tab3(&ctx, &data);
        assert!(t3.json["n"].as_u64().unwrap() > 0, "cache hits must exist");
        let t4 = tab4(&ctx, &data);
        assert!(t4.text.contains("Table 4") || t4.text.contains("subset empty"));
        let t5 = tab5(&ctx, &data);
        assert!(t5.text.contains("Table 5") || t5.text.contains("subset empty"));
        // tab6 may legitimately be empty on a tiny fleet; it must not panic.
        let t6 = tab6(&ctx, &data);
        assert!(t6.name == "tab6");
    }
}
