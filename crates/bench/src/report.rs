//! Table assembly: paper formulas next to measured latencies.

use skewbound_core::bounds::{self, TableRow};
use skewbound_core::params::Params;
use skewbound_sim::time::SimDuration;
use skewbound_spec::prelude::*;

use crate::measure::{
    measure_centralized_grid, measure_replica_grid, queue_gen, queue_label, register_gen,
    register_label, stack_gen, stack_label, tree_gen, tree_label, MaxLatencies,
};

/// The four objects of Chapter VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {
    /// Table I.
    Register,
    /// Table II.
    Queue,
    /// Table III.
    Stack,
    /// Table IV.
    Tree,
}

impl Object {
    /// All four objects.
    pub const ALL: [Object; 4] = [Object::Register, Object::Queue, Object::Stack, Object::Tree];

    /// A short machine-friendly name.
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            Object::Register => "register",
            Object::Queue => "queue",
            Object::Stack => "stack",
            Object::Tree => "tree",
        }
    }

    /// The paper's table number.
    #[must_use]
    pub fn table_name(self) -> &'static str {
        match self {
            Object::Register => "Table I  (read/write/read-modify-write register)",
            Object::Queue => "Table II (queue)",
            Object::Stack => "Table III (stack)",
            Object::Tree => "Table IV (tree)",
        }
    }

    /// The formula rows for this object.
    #[must_use]
    pub fn rows(self) -> Vec<TableRow> {
        match self {
            Object::Register => bounds::table_register(),
            Object::Queue => bounds::table_queue(),
            Object::Stack => bounds::table_stack(),
            Object::Tree => bounds::table_tree(),
        }
    }
}

/// One row of the regenerated table: the paper's three bound columns plus
/// our measured worst-case latencies.
#[derive(Debug)]
pub struct RowReport {
    /// The formula row (operation name + bound texts/evaluators).
    pub row: TableRow,
    /// Worst-case latency of Algorithm 1 on the measurement grid
    /// (for pair rows: the sum of the two operations' worst cases).
    pub measured: Option<SimDuration>,
    /// Worst-case latency of the centralized baseline (same convention).
    pub measured_centralized: Option<SimDuration>,
}

/// A regenerated table.
#[derive(Debug)]
pub struct TableReport {
    /// Which object.
    pub object: Object,
    /// Parameters the table was evaluated at.
    pub params: Params,
    /// The rows.
    pub rows: Vec<RowReport>,
}

fn lookup(measured: &MaxLatencies, operation: &str) -> Option<SimDuration> {
    if let Some((a, b)) = operation.split_once(" + ") {
        let la = measured.get(a.trim())?;
        let lb = measured.get(b.trim())?;
        Some(*la + *lb)
    } else {
        measured.get(operation).copied()
    }
}

/// Regenerates one of Tables I–IV at `params`, measuring Algorithm 1 and
/// the centralized baseline with `ops_per_process` operations per process
/// per grid point.
#[must_use]
pub fn table_report(object: Object, params: &Params, ops_per_process: usize) -> TableReport {
    let (replica, central) = match object {
        Object::Register => (
            measure_replica_grid(
                RmwRegister::default(),
                params,
                ops_per_process,
                register_gen,
                register_label,
            ),
            measure_centralized_grid(
                RmwRegister::default(),
                params,
                ops_per_process,
                register_gen,
                register_label,
            ),
        ),
        Object::Queue => (
            measure_replica_grid(
                Queue::<i64>::new(),
                params,
                ops_per_process,
                queue_gen,
                queue_label,
            ),
            measure_centralized_grid(
                Queue::<i64>::new(),
                params,
                ops_per_process,
                queue_gen,
                queue_label,
            ),
        ),
        Object::Stack => (
            measure_replica_grid(
                Stack::<i64>::new(),
                params,
                ops_per_process,
                stack_gen,
                stack_label,
            ),
            measure_centralized_grid(
                Stack::<i64>::new(),
                params,
                ops_per_process,
                stack_gen,
                stack_label,
            ),
        ),
        Object::Tree => (
            measure_replica_grid(Tree::new(), params, ops_per_process, tree_gen, tree_label),
            measure_centralized_grid(Tree::new(), params, ops_per_process, tree_gen, tree_label),
        ),
    };

    let rows = object
        .rows()
        .into_iter()
        .map(|row| RowReport {
            measured: lookup(&replica, row.operation),
            measured_centralized: lookup(&central, row.operation),
            row,
        })
        .collect();
    TableReport {
        object,
        params: *params,
        rows,
    }
}

fn fmt_opt(v: Option<SimDuration>) -> String {
    v.map_or_else(|| "-".to_string(), |d| d.as_ticks().to_string())
}

impl TableReport {
    /// Renders the table as aligned text, paper columns first, measured
    /// columns last.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.object.table_name()));
        out.push_str(&format!("  params: {}\n", self.params));
        out.push_str(&format!(
            "  {:<22} {:>12} {:>22} {:>14} | {:>14} {:>14}\n",
            "operation", "prev LB", "new LB", "UB", "measured(A1)", "measured(2d)"
        ));
        for r in &self.rows {
            let p = &self.params;
            out.push_str(&format!(
                "  {:<22} {:>12} {:>22} {:>14} | {:>14} {:>14}\n",
                r.row.operation,
                format!("{} = {}", r.row.prev_lb_text, fmt_opt((r.row.prev_lb)(p))),
                format!("{} = {}", r.row.new_lb_text, fmt_opt((r.row.new_lb)(p))),
                format!("{} = {}", r.row.ub_text, fmt_opt((r.row.ub)(p))),
                fmt_opt(r.measured),
                fmt_opt(r.measured_centralized),
            ));
        }
        out
    }

    /// Renders the table as CSV (header + one row per operation), for
    /// machine consumption.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let p = &self.params;
        let mut out = String::from(
            "object,operation,prev_lb_formula,prev_lb,new_lb_formula,new_lb,\
             ub_formula,ub,measured_algorithm1,measured_centralized\n",
        );
        let opt = |v: Option<skewbound_sim::time::SimDuration>| {
            v.map_or_else(String::new, |d| d.as_ticks().to_string())
        };
        // Formula texts contain commas (`min{eps, u, d/3}`); keep the CSV
        // flat by swapping them for semicolons.
        let formula = |t: &str| t.replace(", ", "; ");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                self.object.short_name(),
                r.row.operation,
                formula(r.row.prev_lb_text),
                opt((r.row.prev_lb)(p)),
                formula(r.row.new_lb_text),
                opt((r.row.new_lb)(p)),
                formula(r.row.ub_text),
                opt((r.row.ub)(p)),
                opt(r.measured),
                opt(r.measured_centralized),
            ));
        }
        out
    }

    /// Checks the paper's claims against the measurements:
    ///
    /// * measured Algorithm 1 latency within its upper-bound formula;
    /// * measured latency at or above the new lower bound **for rows
    ///   where the bound is tight** (single mutator rows at `X = 0` and
    ///   OOP rows with `ε ≤ min(u, d/3)`);
    /// * Algorithm 1 beating the centralized baseline's `2d` worst case
    ///   for mutators.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated claim.
    pub fn verify(&self) -> Result<(), String> {
        let p = &self.params;
        for r in &self.rows {
            let (Some(measured), Some(ub)) = (r.measured, (r.row.ub)(p)) else {
                continue;
            };
            if measured > ub {
                return Err(format!(
                    "{}: measured {} exceeds upper bound {}",
                    r.row.operation,
                    measured.as_ticks(),
                    ub.as_ticks()
                ));
            }
            if let Some(c) = r.measured_centralized {
                // Pair rows sum two operations, so the baseline bound
                // doubles.
                let ops_in_row = 1 + r.row.operation.matches(" + ").count() as u64;
                if c > bounds::ub_centralized(p) * ops_in_row {
                    return Err(format!(
                        "{}: centralized measured {} exceeds {} x 2d",
                        r.row.operation,
                        c.as_ticks(),
                        ops_in_row
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_sim::time::SimDuration;

    fn params() -> Params {
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn lookup_handles_pairs() {
        let mut m = MaxLatencies::new();
        m.insert("write", SimDuration::from_ticks(5));
        m.insert("read", SimDuration::from_ticks(7));
        assert_eq!(lookup(&m, "write + read").unwrap().as_ticks(), 12);
        assert_eq!(lookup(&m, "write").unwrap().as_ticks(), 5);
        assert_eq!(lookup(&m, "cas"), None);
    }

    #[test]
    fn register_table_verifies() {
        let report = table_report(Object::Register, &params(), 4);
        assert_eq!(report.rows.len(), 4);
        report.verify().unwrap();
        let text = report.render();
        assert!(text.contains("read-modify-write"));
        assert!(text.contains("measured(A1)"));
    }

    #[test]
    fn csv_rendering() {
        let report = table_report(Object::Queue, &params(), 4);
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
        assert!(lines[0].starts_with("object,operation"));
        assert!(csv.contains("enqueue + peek"));
        // Every data line has the full column count.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 10, "{line}");
        }
    }

    #[test]
    fn all_tables_verify() {
        for object in Object::ALL {
            let report = table_report(object, &params(), 4);
            report
                .verify()
                .unwrap_or_else(|e| panic!("{}: {e}", report.object.table_name()));
        }
    }
}
