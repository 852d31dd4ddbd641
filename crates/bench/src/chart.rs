//! Text renderers for the figures: grouped stacked bars (the paper's
//! format — communication on the bottom, migration/α on top, four bars
//! per configuration) and CSV export.

use std::fmt::Write as _;

use crate::experiment::Row;

const BAR_WIDTH: usize = 44;

/// Renders a cost figure (Figures 2–6 style): one stacked horizontal bar
/// per (k, α, algorithm), grouped by (k, α), scaled to the largest total.
pub fn render_cost_chart(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "   (normalized total cost = comm + mig/alpha; '#' comm, '%' migration)"
    );
    let max_total = rows.iter().map(|r| r.total_norm).fold(0.0, f64::max);
    if max_total <= 0.0 {
        let _ = writeln!(out, "   (no data)");
        return out;
    }
    let mut last_group = None;
    for row in rows {
        let group = (row.k, row.alpha.to_bits());
        if last_group != Some(group) {
            let _ = writeln!(out, "-- k={:<3} alpha={} --", row.k, row.alpha);
            last_group = Some(group);
        }
        let comm_cells = ((row.comm / max_total) * BAR_WIDTH as f64).round() as usize;
        let mig_cells = ((row.mig_norm / max_total) * BAR_WIDTH as f64).round() as usize;
        let bar: String = "#".repeat(comm_cells) + &"%".repeat(mig_cells);
        let _ = writeln!(
            out,
            "  {:<17} |{:<w$}| {:>10.1} (comm {:>9.1} + mig/a {:>8.1})",
            row.algorithm.name(),
            bar,
            row.total_norm,
            row.comm,
            row.mig_norm,
            w = BAR_WIDTH
        );
    }
    out
}

/// Renders a runtime figure (Figures 7–8 style): one bar per
/// (k, α, algorithm) scaled to the slowest.
pub fn render_runtime_chart(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(out, "   (mean repartitioning wall-clock per epoch)");
    let max_time = rows.iter().map(|r| r.time_ms).fold(0.0, f64::max);
    if max_time <= 0.0 {
        let _ = writeln!(out, "   (no data)");
        return out;
    }
    let mut last_group = None;
    for row in rows {
        let group = (row.k, row.alpha.to_bits());
        if last_group != Some(group) {
            let _ = writeln!(out, "-- k={:<3} alpha={} --", row.k, row.alpha);
            last_group = Some(group);
        }
        let cells = ((row.time_ms / max_time) * BAR_WIDTH as f64).round() as usize;
        let _ = writeln!(
            out,
            "  {:<17} |{:<w$}| {:>9.2} ms",
            row.algorithm.name(),
            "#".repeat(cells),
            row.time_ms,
            w = BAR_WIDTH
        );
    }
    out
}

/// Renders a measured-makespan figure: one stacked bar per
/// (k, α, algorithm) — iteration phases (`α·(comp+comm)`) on the bottom,
/// migration on top — scaled to the slowest epoch.
pub fn render_makespan_chart(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "   (measured epoch makespan = alpha*(comp+comm) + mig; '#' iteration, '%' migration)"
    );
    let max_span = rows.iter().map(|r| r.makespan_ms).fold(0.0, f64::max);
    if max_span <= 0.0 {
        let _ = writeln!(out, "   (no measured data)");
        return out;
    }
    let mut last_group = None;
    for row in rows {
        let group = (row.k, row.alpha.to_bits());
        if last_group != Some(group) {
            let _ = writeln!(out, "-- k={:<3} alpha={} --", row.k, row.alpha);
            last_group = Some(group);
        }
        let iter_ms = row.alpha * (row.comp_ms + row.comm_ms);
        let iter_cells = ((iter_ms / max_span) * BAR_WIDTH as f64).round() as usize;
        let mig_cells = ((row.mig_ms / max_span) * BAR_WIDTH as f64).round() as usize;
        let bar: String = "#".repeat(iter_cells) + &"%".repeat(mig_cells);
        let _ = writeln!(
            out,
            "  {:<17} |{:<w$}| {:>10.3} ms (iter {:>9.3} + mig {:>8.3})",
            row.algorithm.name(),
            bar,
            row.makespan_ms,
            iter_ms,
            row.mig_ms,
            w = BAR_WIDTH
        );
    }
    out
}

/// CSV header matching [`to_csv_line`].
pub(crate) fn csv_header() -> &'static str {
    "dataset,perturb,k,alpha,algorithm,comm,mig_norm,total_norm,time_ms,max_imbalance,\
     msgs_per_epoch,bytes_per_epoch,makespan_ms,comp_ms,comm_ms,mig_ms"
}

/// One CSV line per row.
pub(crate) fn to_csv_line(row: &Row) -> String {
    format!(
        "{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.1},{:.1},{:.6},{:.6},{:.6},{:.6}",
        row.dataset,
        row.perturb,
        row.k,
        row.alpha,
        row.algorithm.name(),
        row.comm,
        row.mig_norm,
        row.total_norm,
        row.time_ms,
        row.max_imbalance,
        row.msgs_per_epoch,
        row.bytes_per_epoch,
        row.makespan_ms,
        row.comp_ms,
        row.comm_ms,
        row.mig_ms
    )
}

/// Renders all rows to a CSV document.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from(csv_header());
    out.push('\n');
    for row in rows {
        out.push_str(&to_csv_line(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::Algorithm;

    fn sample_rows() -> Vec<Row> {
        vec![
            Row {
                dataset: "auto",
                perturb: "structure",
                k: 16,
                alpha: 1.0,
                algorithm: Algorithm::ZoltanRepart,
                comm: 100.0,
                mig_norm: 20.0,
                total_norm: 120.0,
                time_ms: 5.0,
                max_imbalance: 1.04,
                msgs_per_epoch: 64.0,
                bytes_per_epoch: 2048.0,
                makespan_ms: 1.25,
                comp_ms: 0.1,
                comm_ms: 0.02,
                mig_ms: 0.05,
            },
            Row {
                dataset: "auto",
                perturb: "structure",
                k: 16,
                alpha: 1.0,
                algorithm: Algorithm::ZoltanScratch,
                comm: 80.0,
                mig_norm: 300.0,
                total_norm: 380.0,
                time_ms: 4.0,
                max_imbalance: 1.02,
                msgs_per_epoch: 48.0,
                bytes_per_epoch: 1536.0,
                makespan_ms: 1.5,
                comp_ms: 0.1,
                comm_ms: 0.01,
                mig_ms: 0.4,
            },
        ]
    }

    #[test]
    fn cost_chart_contains_all_bars() {
        let s = render_cost_chart("Fig test", &sample_rows());
        assert!(s.contains("Zoltan-repart"));
        assert!(s.contains("Zoltan-scratch"));
        assert!(s.contains("k=16"));
        assert!(s.contains('#') && s.contains('%'));
    }

    #[test]
    fn runtime_chart_renders() {
        let s = render_runtime_chart("Fig time", &sample_rows());
        assert!(s.contains("ms"));
        assert!(s.contains("Zoltan-repart"));
    }

    #[test]
    fn csv_roundtrip_fields() {
        let rows = sample_rows();
        let csv = to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], csv_header());
        assert!(lines[1].starts_with("auto,structure,16,1,Zoltan-repart,"));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn makespan_chart_stacks_phases() {
        let s = render_makespan_chart("Fig makespan", &sample_rows());
        assert!(s.contains("Zoltan-repart"));
        assert!(s.contains("ms"));
        assert!(s.contains('%'), "migration segment rendered");
    }

    #[test]
    fn empty_rows_are_handled() {
        let s = render_cost_chart("empty", &[]);
        assert!(s.contains("no data"));
        let s = render_makespan_chart("empty", &[]);
        assert!(s.contains("no measured data"));
    }
}
