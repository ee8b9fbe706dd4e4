//! Table assembly: paper formulas next to measured latencies.

use skewbound_core::bounds::{self, Bound, TableRow};
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

/// A row's previous-LB, new-LB and UB cells: formula text and value, `-`
/// where the paper lists no bound. The tables spell the mutator bound
/// `eps (+X)`, as the paper's do.
fn cells(row: &TableRow, p: &Params) -> [(&'static str, Option<SimDuration>); 3] {
    [Some(row.prev_lb), row.new_lb, Some(row.ub)].map(|bound| {
        let text = match bound {
            Some(Bound::Mop) => "eps (+X)",
            Some(b) => b.text(),
            None => "-",
        };
        (text, bound.map(|b| b.eval(p)))
    })
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
            let [prev, new, ub] =
                cells(&r.row, &self.params).map(|(t, v)| format!("{t} = {}", fmt_opt(v)));
            out.push_str(&format!(
                "  {:<22} {:>12} {:>22} {:>14} | {:>14} {:>14}\n",
                r.row.operation,
                prev,
                new,
                ub,
                fmt_opt(r.measured),
                fmt_opt(r.measured_centralized),
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
            let Some(measured) = r.measured else {
                continue;
            };
            let op = r.row.operation;
            let err =
                |claim: String| Err(format!("{op}: measured {} {claim}", measured.as_ticks()));
            let ub = r.row.ub.eval(p);
            if measured > ub {
                return err(format!("exceeds upper bound {}", ub.as_ticks()));
            }
            // Pair rows sum two operations, so the baseline bound doubles.
            let ops_in_row = 1 + op.matches(" + ").count() as u64;
            let tight_lb = r.row.new_lb.filter(|lb| match lb {
                Bound::PermuteN => p.x() == SimDuration::ZERO,
                Bound::DPlusM => ops_in_row == 1 && bounds::insc_bound_tight(p),
                _ => false,
            });
            if let Some(lb) = tight_lb.map(|lb| lb.eval(p)).filter(|&lb| measured < lb) {
                return err(format!("is below the tight lower bound {}", lb.as_ticks()));
            }
            let two_d = bounds::ub_centralized(p);
            if r.row.ub == Bound::Mop && measured >= two_d {
                return err(format!(
                    "does not beat the 2d baseline {}",
                    two_d.as_ticks()
                ));
            }
            if let Some(c) = r.measured_centralized.filter(|&c| c > two_d * ops_in_row) {
                return Err(format!(
                    "{op}: centralized measured {} exceeds {ops_in_row} x 2d",
                    c.as_ticks()
                ));
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
    fn verify_rejects_a_write_below_its_tight_lower_bound() {
        // At X = 0 a write's (1 - 1/n)u lower bound is tight, so a
        // measured write one tick under it is a false claim.
        let p = params();
        let row = Object::Register.rows()[1];
        assert_eq!(
            (row.operation, row.new_lb),
            ("write", Some(Bound::PermuteN))
        );
        let report = |ticks: u64| TableReport {
            object: Object::Register,
            params: p,
            rows: vec![RowReport {
                row,
                measured: Some(SimDuration::from_ticks(ticks)),
                measured_centralized: None,
            }],
        };
        let lb = Bound::PermuteN.eval(&p).as_ticks();
        report(lb).verify().unwrap();
        assert!(report(lb - 1).verify().unwrap_err().contains("below"));
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
