//! Stage-attribution profiling over span traces.
//!
//! A traced run ([`softerr_telemetry::set_tracing`] +
//! [`softerr_telemetry::take_trace`]) yields a flat list of
//! [`SpanRecord`]s; these functions roll that list into the wall-time
//! tables the harnesses print under `--profile`:
//!
//! * [`stage_table`] — campaign wall-time by pipeline stage (golden run,
//!   liveness build, static-mask attach, fault sampling, pruning,
//!   classification), per structure, using *self time* (a span's duration
//!   minus its direct children's) so the stage rows sum exactly to the
//!   total row;
//! * [`worker_table`] — the convoy/fresh engine's per-worker counters
//!   (claims, forks, convergences, graduations) and busy time;
//! * [`cell_table`] — orchestrator cell lifecycle (store lookup, compile,
//!   execute, store write) per grid cell, hit vs. miss.
//!
//! Every function returns an empty [`Table`] (headers only) when the trace
//! holds no relevant spans, so harnesses can print unconditionally.

use softerr_telemetry::{SpanRecord, Table, Trace};
use std::collections::BTreeMap;

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Direct children of `root`: same thread, one level deeper, nested inside
/// the root's window.
fn children<'t>(trace: &'t Trace, root: &'t SpanRecord) -> impl Iterator<Item = &'t SpanRecord> {
    trace
        .spans
        .iter()
        .filter(move |s| s.depth == root.depth + 1 && root.contains(s))
}

/// Whether `s` is a campaign stage span (every `campaign.*` span except
/// the per-thread `campaign.worker`).
fn is_stage(s: &SpanRecord) -> bool {
    s.name.starts_with("campaign.") && s.name != "campaign.worker"
}

/// Stage spans enclosing `s` on its thread, outermost first.
fn enclosing_stages<'t>(
    trace: &'t Trace,
    s: &'t SpanRecord,
) -> impl Iterator<Item = &'t SpanRecord> + 't {
    trace
        .spans
        .iter()
        .filter(move |r| is_stage(r) && r.depth < s.depth && r.contains(s))
}

/// The row a stage span is charged to: its own `structure` field, else
/// that of the innermost enclosing stage span carrying one; else `(cell)`
/// for the stages a `campaign.cell` shares across its structures (one
/// convoy classifies them all); else `(shared)` for per-injector set-up.
fn structure_of<'t>(trace: &'t Trace, s: &'t SpanRecord) -> &'t str {
    if let Some(structure) = s.str_field("structure") {
        return structure;
    }
    let enclosing: Vec<&SpanRecord> = enclosing_stages(trace, s).collect();
    let inherited = enclosing
        .iter()
        .filter(|r| r.str_field("structure").is_some())
        .max_by_key(|r| r.depth)
        .and_then(|r| r.str_field("structure"));
    let in_cell = s.name == "campaign.cell" || enclosing.iter().any(|r| r.name == "campaign.cell");
    inherited.unwrap_or(if in_cell { "(cell)" } else { "(shared)" })
}

/// Campaign wall-time by stage and structure.
///
/// Every `campaign.*` span except the per-thread `campaign.worker`
/// contributes one row keyed by (structure, stage), where *stage* is the
/// span name minus the `campaign.` prefix — except `campaign.run` (one
/// structure's sampling and pruning) and `campaign.cell` (the whole run),
/// whose self time (orchestration not covered by a child stage) shows as
/// `(untracked)`. Structure comes from the span's own `structure` field or
/// the innermost enclosing span's; the classify stage a multi-structure
/// run shares across its structures is attributed to `(cell)`, and the
/// golden run and liveness build, which happen once per injector outside
/// any run, to `(shared)`. Worker spans overlap the classify stage in
/// parallel campaigns, so their time stays inside `classify` here and is
/// broken out by [`worker_table`].
///
/// Because rows carry self time, they sum *exactly* to the trailing
/// `total` row (the summed durations of the top-level campaign spans):
/// the table is a complete decomposition of traced campaign wall time.
pub fn stage_table(trace: &Trace) -> Table {
    let mut table = Table::new(
        ["structure", "stage", "spans", "ms", "share"]
            .map(String::from)
            .to_vec(),
    );
    // (structure, stage) -> (span count, self ns). BTreeMap keeps the
    // row order deterministic.
    let mut rows: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
    let mut total_ns = 0u64;
    for s in trace.spans.iter().filter(|s| is_stage(s)) {
        let child_ns: u64 = children(trace, s)
            .filter(|c| c.name != "campaign.worker")
            .map(|c| c.dur_ns)
            .sum();
        let self_ns = s.dur_ns.saturating_sub(child_ns);
        let structure = structure_of(trace, s).to_string();
        let stage = match s.name {
            "campaign.run" | "campaign.cell" => "(untracked)".to_string(),
            name => name.trim_start_matches("campaign.").to_string(),
        };
        let slot = rows.entry((structure, stage)).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += self_ns;
        // Self times telescope: summing every stage span's self time
        // equals summing the durations of the stage spans no other stage
        // span encloses (the golden run, the liveness build when it is
        // not built lazily inside a run, and each run).
        if enclosing_stages(trace, s).next().is_none() {
            total_ns += s.dur_ns;
        }
    }
    if rows.is_empty() {
        return table;
    }
    let share = |ns: u64| {
        if total_ns == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", ns as f64 / total_ns as f64 * 100.0)
        }
    };
    for ((structure, stage), (count, self_ns)) in &rows {
        table.row(vec![
            structure.clone(),
            stage.clone(),
            count.to_string(),
            ms(*self_ns),
            share(*self_ns),
        ]);
    }
    table.row(vec![
        String::new(),
        "total".to_string(),
        String::new(),
        ms(total_ns),
        share(total_ns),
    ]);
    table
}

/// Per-worker engine counters from `campaign.worker` spans: fault claims,
/// fork/no-fork split, how children left the convoy (converged, ran to
/// the program's end, graduated to run off the convoy because the convoy
/// was full or the golden run halted first, filed while parked when the
/// golden run halted, filed as Timeout at a fixed point, asserted), and
/// the simulated-cycle split between converged and all other children.
/// `converged` and `graduated` exclude parked verdicts; both cycle columns
/// count only simulated cycles, never those a child spent parked. One row
/// per worker span in trace order, plus a `total` row.
pub fn worker_table(trace: &Trace) -> Table {
    const COUNTERS: [&str; 12] = [
        "claimed",
        "fresh",
        "forks",
        "masked_nofork",
        "converged",
        "ended",
        "graduated",
        "parked",
        "fixed_points",
        "asserts",
        "converged_cycles",
        "ran_cycles",
    ];
    let mut headers = vec!["worker".to_string()];
    headers.extend(COUNTERS.iter().map(|c| c.to_string()));
    headers.push("ms".to_string());
    let mut table = Table::new(headers);
    let workers: Vec<&SpanRecord> = trace
        .spans
        .iter()
        .filter(|s| s.name == "campaign.worker")
        .collect();
    if workers.is_empty() {
        return table;
    }
    let mut totals = [0u64; COUNTERS.len()];
    let mut total_ns = 0u64;
    for (i, w) in workers.iter().enumerate() {
        let mut row = vec![format!("w{i} (tid {})", w.tid)];
        for (slot, counter) in totals.iter_mut().zip(COUNTERS) {
            let v = w.u64_field(counter).unwrap_or(0);
            *slot += v;
            row.push(v.to_string());
        }
        total_ns += w.dur_ns;
        row.push(ms(w.dur_ns));
        table.row(row);
    }
    let mut row = vec!["total".to_string()];
    row.extend(totals.iter().map(|v| v.to_string()));
    row.push(ms(total_ns));
    table.row(row);
    table
}

/// Orchestrator cell lifecycle: one row per `cell` span, labelled by its
/// machine/workload/level fields, with the store-lookup, compile,
/// execute, and store-write child stages broken out and hit-vs-miss
/// provenance. Cells served from the result store show `hit` with only
/// lookup time; executed cells show compile, execute and store write
/// (their missed lookup ran in the sweep's store pass, before the cell's
/// span opened).
pub fn cell_table(trace: &Trace) -> Table {
    const STAGES: [&str; 4] = ["cell.lookup", "cell.compile", "cell.execute", "cell.store"];
    let mut table = Table::new(
        [
            "cell",
            "hit",
            "lookup ms",
            "compile ms",
            "execute ms",
            "store ms",
            "total ms",
        ]
        .map(String::from)
        .to_vec(),
    );
    for s in trace.spans.iter().filter(|s| s.name == "cell") {
        let label = format!(
            "{}/{}/{}",
            s.str_field("machine").unwrap_or("?"),
            s.str_field("workload").unwrap_or("?"),
            s.str_field("level").unwrap_or("?"),
        );
        let hit = match s.field("hit") {
            Some(softerr_telemetry::FieldValue::Bool(b)) => {
                if *b {
                    "hit"
                } else {
                    "miss"
                }
            }
            _ => "?",
        };
        let mut row = vec![label, hit.to_string()];
        for stage in STAGES {
            let ns: u64 = children(trace, s)
                .filter(|c| c.name == stage)
                .map(|c| c.dur_ns)
                .sum();
            row.push(ms(ns));
        }
        row.push(ms(s.dur_ns));
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_telemetry::FieldValue;

    fn span(
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        tid: u32,
        depth: u32,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            dur_ns,
            tid,
            depth,
            fields,
        }
    }

    fn trace(spans: Vec<SpanRecord>) -> Trace {
        Trace { spans, dropped: 0 }
    }

    #[test]
    fn stage_rows_sum_exactly_to_the_total_row() {
        const MS: u64 = 1_000_000;
        let structure = |name: &str| vec![("structure", FieldValue::Str(name.into()))];
        let t = trace(vec![
            span("campaign.golden", 0, 100 * MS, 0, 0, vec![]),
            span("campaign.liveness", 100 * MS, 200 * MS, 0, 0, vec![]),
            span("campaign.masks", 150 * MS, 50 * MS, 0, 1, vec![]),
            // A two-structure run: per-structure sampling, then one
            // classify stage shared by both, then rf's verify stage.
            span("campaign.cell", 300 * MS, 1000 * MS, 0, 0, vec![]),
            span("campaign.run", 310 * MS, 60 * MS, 0, 1, structure("rf")),
            span("campaign.sample", 310 * MS, 50 * MS, 0, 2, vec![]),
            span("campaign.run", 370 * MS, 60 * MS, 0, 1, structure("rob.pc")),
            span("campaign.sample", 375 * MS, 40 * MS, 0, 2, vec![]),
            span("campaign.classify", 450 * MS, 700 * MS, 0, 1, vec![]),
            // Inline worker (threads = 1): nested under classify, must not
            // be subtracted from classify's self time or get its own row.
            span("campaign.worker", 460 * MS, 600 * MS, 0, 2, vec![]),
            span("campaign.verify", 1160 * MS, 30 * MS, 0, 1, structure("rf")),
        ]);
        let table = stage_table(&t);
        let csv = table.to_csv();
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        assert!(
            !csv.contains("worker"),
            "worker spans belong to worker_table: {csv}"
        );
        let ms_of = |structure: &str, stage: &str| -> f64 {
            rows.iter()
                .find(|r| r[0] == structure && r[1] == stage)
                .unwrap_or_else(|| panic!("missing row {structure},{stage} in {csv}"))[3]
                .parse()
                .unwrap()
        };
        // Self times: golden 100, liveness 200-50, masks 50, samples 50
        // and 40, runs 60-50 and 60-40, classify 700 (worker stays
        // inside), verify 30, cell 1000-60-60-700-30.
        assert_eq!(ms_of("(shared)", "golden"), 100.0);
        assert_eq!(ms_of("(shared)", "liveness"), 150.0);
        assert_eq!(ms_of("(shared)", "masks"), 50.0);
        assert_eq!(ms_of("rf", "sample"), 50.0);
        assert_eq!(ms_of("rob.pc", "sample"), 40.0);
        assert_eq!(ms_of("rf", "(untracked)"), 10.0);
        assert_eq!(ms_of("rob.pc", "(untracked)"), 20.0);
        assert_eq!(ms_of("(cell)", "classify"), 700.0);
        assert_eq!(ms_of("rf", "verify"), 30.0);
        assert_eq!(ms_of("(cell)", "(untracked)"), 150.0);
        let total = ms_of("", "total");
        let sum: f64 = rows
            .iter()
            .filter(|r| r[1] != "total")
            .map(|r| r[3].parse::<f64>().unwrap())
            .sum();
        assert!((sum - total).abs() < 1e-9, "stages {sum} != total {total}");
        // 100 + 200 + 1000 ms.
        assert_eq!(total, 1300.0);
    }

    #[test]
    fn one_structure_runs_charge_every_stage_to_their_structure() {
        const MS: u64 = 1_000_000;
        let structure = vec![("structure", FieldValue::Str("rf".into()))];
        let t = trace(vec![
            span("campaign.cell", 0, 100 * MS, 0, 0, structure.clone()),
            span("campaign.run", 0, 10 * MS, 0, 1, structure),
            // Built lazily by the first pruning stage: nested, so it is
            // charged to rf and not counted twice in the total.
            span("campaign.liveness", 2 * MS, 5 * MS, 0, 2, vec![]),
            span("campaign.classify", 10 * MS, 80 * MS, 0, 1, vec![]),
        ]);
        let csv = stage_table(&t).to_csv();
        assert!(csv.contains("rf,classify,1,80.000"), "{csv}");
        assert!(csv.contains("rf,liveness,1,5.000"), "{csv}");
        // Cell self time 100-10-80 plus run self time 10-5.
        assert!(csv.contains("rf,(untracked),2,15.000"), "{csv}");
        assert!(!csv.contains("(cell)"), "{csv}");
        assert!(csv.lines().last().unwrap().contains(",100.000,"), "{csv}");
    }

    #[test]
    fn worker_table_sums_counters() {
        let fields = |claimed: u64, forks: u64, fixed_points: u64, parked: u64| {
            vec![
                ("claimed", FieldValue::U64(claimed)),
                ("forks", FieldValue::U64(forks)),
                ("converged", FieldValue::U64(1)),
                ("parked", FieldValue::U64(parked)),
                ("fixed_points", FieldValue::U64(fixed_points)),
            ]
        };
        let t = trace(vec![
            span("campaign.worker", 0, 1_000_000, 1, 0, fields(10, 4, 2, 3)),
            span("campaign.worker", 0, 2_000_000, 2, 0, fields(20, 6, 5, 0)),
        ]);
        let csv = worker_table(&t).to_csv();
        let column = |name: &str| {
            let headers: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
            headers.iter().position(|h| *h == name).unwrap()
        };
        let total: Vec<&str> = csv.lines().last().unwrap().split(',').collect();
        assert_eq!(total[0], "total");
        assert_eq!(total[column("claimed")], "30");
        assert_eq!(total[column("forks")], "10");
        assert_eq!(total[column("fixed_points")], "7");
        assert_eq!(total[column("parked")], "3");
        assert_eq!(total[column("graduated")], "0", "absent fields read 0");
        assert_eq!(total[column("ms")], "3.000", "busy ms sums");
    }

    #[test]
    fn cell_table_reads_fields_and_child_stages() {
        let t = trace(vec![
            span(
                "cell",
                0,
                5_000_000,
                0,
                0,
                vec![
                    ("machine", FieldValue::Str("A15".into())),
                    ("workload", FieldValue::Str("qsort".into())),
                    ("level", FieldValue::Str("O1".into())),
                    ("hit", FieldValue::Bool(false)),
                ],
            ),
            span("cell.lookup", 0, 1_000_000, 0, 1, vec![]),
            span("cell.execute", 1_000_000, 3_000_000, 0, 1, vec![]),
        ]);
        let csv = cell_table(&t).to_csv();
        let row = csv.lines().nth(1).unwrap();
        assert_eq!(row, "A15/qsort/O1,miss,1.000,0.000,3.000,0.000,5.000");
    }

    #[test]
    fn empty_traces_give_empty_tables() {
        let t = trace(vec![]);
        assert!(stage_table(&t).is_empty());
        assert!(worker_table(&t).is_empty());
        assert!(cell_table(&t).is_empty());
    }
}
