//! Bring your own data type, get its time bounds.
//!
//! The thesis's tables are consequences of operation *classification*
//! (Chapter II): commutativity, permutability, mutator/accessor/
//! overwriter. `skewbound_core::analysis` runs the executable classifiers
//! over probe sets and derives the bounds automatically. This example
//! analyzes the key-value store — an object the paper never mentions —
//! and prints its derived table.
//!
//! ```text
//! cargo run -p skewbound-examples --bin analyze_object
//! ```

use std::collections::BTreeMap;

use skewbound_core::prelude::*;
use skewbound_sim::time::SimDuration;
use skewbound_spec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::with_optimal_skew(
        4,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_000),
        SimDuration::ZERO,
    )?;
    let spec = KvStore::new();

    // Probe states: the ρ-prefixes (represented by reached states) the
    // classifiers explore. Cover empty / one key / two keys.
    let states = vec![
        spec.initial(),
        BTreeMap::from([(1, 10)]),
        BTreeMap::from([(1, 10), (2, 20)]),
    ];

    // Operation groups with a few representative instances each.
    let groups = vec![
        OpGroup::new(
            "put",
            vec![
                KvOp::Put { key: 1, value: 11 },
                KvOp::Put { key: 1, value: 12 },
                KvOp::Put { key: 1, value: 13 },
                KvOp::Put { key: 1, value: 14 },
                KvOp::Put { key: 2, value: 21 },
            ],
        ),
        OpGroup::new(
            "remove",
            vec![KvOp::Remove { key: 1 }, KvOp::Remove { key: 2 }],
        ),
        OpGroup::new("get", vec![KvOp::Get { key: 1 }, KvOp::Get { key: 2 }]),
        OpGroup::new("len", vec![KvOp::Len]),
    ];

    println!("derived time bounds for a key-value store at {params}\n");
    println!(
        "{:<8} {:<14} {:>8} {:>8} {:>10} {:>22} {:>16}",
        "op", "class", "sINSC", "lastPerm", "overwrite", "lower bound", "upper bound"
    );
    // The derivation is consistent when no lower bound exceeds its
    // row's upper bound.
    let mut consistent = true;
    for group in &groups {
        let a = analyze_group(&spec, &states, group);
        let upper = a.upper.eval(&params);
        let lower = a.lower.map(|b| b.eval(&params));
        consistent &= lower.is_none_or(|lower| lower <= upper);
        println!(
            "{:<8} {:<14} {:>8} {:>8} {:>10} {:>22} {:>16}",
            a.name,
            format!("{:?}", a.class),
            a.strongly_insc,
            a.last_permuting,
            a.overwriter,
            format!(
                "{} = {}",
                a.lower.map_or("-", Bound::text),
                lower.map_or_else(|| "-".into(), |d| d.as_ticks().to_string())
            ),
            format!("{} = {}", a.upper.text(), upper.as_ticks()),
        );
    }

    println!("\nmutator + accessor pairs (Theorem E.1 hypothesis check):");
    for (m, a) in [("put", "get"), ("put", "len"), ("remove", "get")] {
        let mg = groups.iter().find(|g| g.name == m).unwrap();
        let ag = groups.iter().find(|g| g.name == a).unwrap();
        let pair = analyze_pair(&spec, &states, mg, ag);
        println!(
            "  {:<14} E.1 witnessed: {:<5}  |{}| + |{}| >= {} = {}",
            format!("{m} + {a}"),
            pair.e1_witnessed,
            m,
            a,
            pair.lower.text(),
            pair.lower.eval(&params).as_ticks(),
        );
    }

    println!(
        "\ninterpretation: puts overwrite per key (different-key puts commute),\n\
         so the E.1 pair bound does not apply and put + get sits at the classical d;\n\
         same-key puts are register-write-like, so puts still pay (1 - 1/n)u, and Algorithm 1 achieves every\n\
         upper bound above — far below the centralized 2d = {}.",
        bounds::ub_centralized(&params).as_ticks()
    );
    println!(
        "\nverdict: every derived lower bound is within its upper bound: {}",
        if consistent { "OK" } else { "VIOLATION" }
    );
    assert!(consistent);
    Ok(())
}
