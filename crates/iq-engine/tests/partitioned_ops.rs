//! Property tests: the partitioned (morsel-parallel) join and aggregate
//! paths are **bitwise identical** to the serial oracle at every worker
//! count — the contract that lets plans pick a fan-out purely for speed.
//! Serial and partitioned runs share one key kernel, so mixed-type keys
//! are also checked against nested-loop and linear-scan references that
//! share nothing with it.
//!
//! Floats make this stricter than value equality: summing the same
//! multiset in a different order changes the f64 result, so equality is
//! asserted on `to_bits()`. The partitioned implementation earns it by
//! exchanging row memberships (not partial states) and folding each
//! partition's rows in global row order — see `ops.rs` and DESIGN.md §6g.

use std::sync::Arc;

use iq_engine::chunk::{Chunk, Col};
use iq_engine::ops::{hash_aggregate_exec, hash_join_exec, AggSpec, JoinType, OpExec};
use iq_engine::WorkMeter;
use proptest::prelude::*;

fn assert_bitwise_eq(a: &Chunk, b: &Chunk) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cols.len(), b.cols.len());
    for (x, y) in a.cols.iter().zip(&b.cols) {
        match (x, y) {
            (Col::I64(p), Col::I64(q)) => prop_assert_eq!(p, q),
            (Col::Date(p), Col::Date(q)) => prop_assert_eq!(p, q),
            (Col::Bool(p), Col::Bool(q)) => prop_assert_eq!(p, q),
            (Col::Str(p), Col::Str(q)) => prop_assert_eq!(p, q),
            (Col::F64(p), Col::F64(q)) => {
                prop_assert_eq!(p.len(), q.len());
                for (u, v) in p.iter().zip(q) {
                    prop_assert_eq!(u.to_bits(), v.to_bits());
                }
            }
            _ => prop_assert!(false, "column type mismatch"),
        }
    }
    Ok(())
}

/// Random input: an i64 group key with controllable cardinality, a second
/// i64 key, an adversarial f64 measure (values whose sums genuinely
/// depend on association order), and a small string column.
fn table(max_rows: usize) -> impl Strategy<Value = Chunk> {
    (
        (1i64..=16, proptest::collection::vec(0i64..64, 0..max_rows)),
        (
            proptest::collection::vec(0i64..8, 0..max_rows),
            proptest::collection::vec(
                prop_oneof![
                    -1.0e12f64..1.0e12,
                    -1.0f64..1.0,
                    Just(0.1f64),
                    Just(1.0e9f64)
                ],
                0..max_rows,
            ),
        ),
        proptest::collection::vec(0u8..4, 0..max_rows),
    )
        .prop_map(|((card, k1), (k2, vals), tags)| {
            let n = k1.len().min(k2.len()).min(vals.len()).min(tags.len());
            Chunk::new(vec![
                Col::I64(k1[..n].iter().map(|v| v % card).collect()),
                Col::I64(k2[..n].to_vec()),
                Col::F64(vals[..n].to_vec()),
                Col::Str(tags[..n].iter().map(|t| format!("t{t}").into()).collect()),
            ])
        })
}

/// Key equality as the operators define it, written out independently:
/// integers and booleans compare as integers, floats by bit pattern,
/// strings by content; a date never equals an integer.
fn key_eq(a: &Chunk, ak: &[usize], i: usize, b: &Chunk, bk: &[usize], j: usize) -> bool {
    ak.iter()
        .zip(bk)
        .all(|(&x, &y)| match (a.col(x), b.col(y)) {
            (Col::I64(p), Col::I64(q)) => p[i] == q[j],
            (Col::I64(p), Col::Bool(q)) => p[i] == q[j] as i64,
            (Col::Bool(p), Col::I64(q)) => p[i] as i64 == q[j],
            (Col::Bool(p), Col::Bool(q)) => p[i] == q[j],
            (Col::Date(p), Col::Date(q)) => p[i] == q[j],
            (Col::F64(p), Col::F64(q)) => p[i].to_bits() == q[j].to_bits(),
            (Col::Str(p), Col::Str(q)) => p[i].as_ref() == q[j].as_ref(),
            _ => false,
        })
}

/// Nested-loop join in the operators' emission order: left rows
/// ascending, each left row's matches ascending.
fn reference_join(left: &Chunk, right: &Chunk, lk: &[usize], rk: &[usize], jt: JoinType) -> Chunk {
    let mut li = Vec::new();
    let mut ri = Vec::new();
    for l in 0..left.len() {
        let matches: Vec<usize> = (0..right.len())
            .filter(|&r| key_eq(left, lk, l, right, rk, r))
            .collect();
        match jt {
            JoinType::Inner | JoinType::Left => {
                for &r in &matches {
                    li.push(l);
                    ri.push(Some(r));
                }
                if jt == JoinType::Left && matches.is_empty() {
                    li.push(l);
                    ri.push(None);
                }
            }
            JoinType::Semi if !matches.is_empty() => li.push(l),
            JoinType::Anti if matches.is_empty() => li.push(l),
            _ => {}
        }
    }
    let mut cols: Vec<Col> = left.cols.iter().map(|c| c.take(&li)).collect();
    if matches!(jt, JoinType::Inner | JoinType::Left) {
        for c in &right.cols {
            cols.push(match c {
                Col::I64(v) => Col::I64(ri.iter().map(|r| r.map_or(0, |r| v[r])).collect()),
                Col::F64(v) => Col::F64(ri.iter().map(|r| r.map_or(0.0, |r| v[r])).collect()),
                Col::Date(v) => Col::Date(ri.iter().map(|r| r.map_or(0, |r| v[r])).collect()),
                Col::Bool(v) => Col::Bool(ri.iter().map(|r| r.is_some_and(|r| v[r])).collect()),
                Col::Str(v) => Col::Str(
                    ri.iter()
                        .map(|r| r.map_or_else(|| Arc::from(""), |r| Arc::clone(&v[r])))
                        .collect(),
                ),
            });
        }
    }
    if jt == JoinType::Left {
        cols.push(Col::I64(ri.iter().map(|r| r.is_some() as i64).collect()));
    }
    Chunk::new(cols)
}

/// Linear-scan grouping: groups in first-occurrence order, each folded
/// over its rows in ascending order. Aggregates: sum, count, min, max
/// and avg of the float column `m`.
fn reference_aggregate(input: &Chunk, group: &[usize], m: usize) -> Chunk {
    let mut firsts: Vec<usize> = Vec::new();
    let mut acc: Vec<(f64, i64, Option<f64>, Option<f64>)> = Vec::new();
    for r in 0..input.len() {
        let g = match firsts
            .iter()
            .position(|&f| key_eq(input, group, f, input, group, r))
        {
            Some(g) => g,
            None => {
                firsts.push(r);
                acc.push((0.0, 0, None, None));
                firsts.len() - 1
            }
        };
        let x = input.col(m).f64s()[r];
        let a = &mut acc[g];
        a.0 += x;
        a.1 += 1;
        a.2 = Some(a.2.map_or(x, |c: f64| c.min(x)));
        a.3 = Some(a.3.map_or(x, |c: f64| c.max(x)));
    }
    let mut cols: Vec<Col> = group.iter().map(|&g| input.col(g).take(&firsts)).collect();
    cols.push(Col::F64(acc.iter().map(|a| a.0).collect()));
    cols.push(Col::I64(acc.iter().map(|a| a.1).collect()));
    cols.push(Col::F64(acc.iter().map(|a| a.2.unwrap()).collect()));
    cols.push(Col::F64(acc.iter().map(|a| a.3.unwrap()).collect()));
    cols.push(Col::F64(acc.iter().map(|a| a.0 / a.1 as f64).collect()));
    Chunk::new(cols)
}

/// Random rows over one key column of every type — I64, Str, Bool, Date,
/// F64 (signed zeros and NaN included) — plus a float measure. Equal
/// strings are sometimes one shared `Arc` and sometimes separate
/// allocations, so key equality cannot lean on pointer identity.
fn mixed_table(max_rows: usize) -> impl Strategy<Value = Chunk> {
    proptest::collection::vec((any::<u64>(), -1.0e6f64..1.0e6), 0..max_rows).prop_map(|rows| {
        let shared: Vec<Arc<str>> = (0..3).map(|t| Arc::from(format!("s{t}"))).collect();
        let floats = [0.0, -0.0, 1.5, f64::NAN, 2.0];
        let field = |bits: u64, shift: u32, card: u64| ((bits >> shift) % card) as usize;
        Chunk::new(vec![
            Col::I64(rows.iter().map(|r| field(r.0, 0, 4) as i64).collect()),
            Col::Str(
                rows.iter()
                    .map(|r| {
                        let t = field(r.0, 2, 3);
                        if field(r.0, 10, 2) == 0 {
                            Arc::clone(&shared[t])
                        } else {
                            Arc::from(format!("s{t}"))
                        }
                    })
                    .collect(),
            ),
            Col::Bool(rows.iter().map(|r| field(r.0, 4, 2) == 1).collect()),
            Col::Date(rows.iter().map(|r| field(r.0, 5, 3) as i32).collect()),
            Col::F64(rows.iter().map(|r| floats[field(r.0, 7, 5)]).collect()),
            Col::F64(rows.iter().map(|r| r.1).collect()),
        ])
    })
}

/// Key column sets over [`mixed_table`]: all five types at once, single
/// columns and reordered pairs.
const MIXED_KEYS: [&[usize]; 6] = [&[0, 1, 2, 3, 4], &[1], &[4], &[4, 1], &[3, 0, 2], &[2, 1]];

fn workers() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), Just(8usize)]
}

fn join_type() -> impl Strategy<Value = JoinType> {
    prop_oneof![
        Just(JoinType::Inner),
        Just(JoinType::Left),
        Just(JoinType::Semi),
        Just(JoinType::Anti)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn partitioned_aggregate_is_bitwise_serial(
        input in table(200),
        workers in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        two_keys in any::<bool>(),
    ) {
        let meter = WorkMeter::new();
        let group: &[usize] = if two_keys { &[0, 1] } else { &[0] };
        let aggs = [
            AggSpec::sum(2),
            AggSpec::avg(2),
            AggSpec::min(2),
            AggSpec::max(2),
            AggSpec::count(3),
            AggSpec::min(3),
        ];
        let serial = hash_aggregate_exec(&input, group, &aggs, &meter, &OpExec::serial()).unwrap();
        let mark = meter.total();
        let parallel =
            hash_aggregate_exec(&input, group, &aggs, &meter, &OpExec::new(workers)).unwrap();
        assert_bitwise_eq(&serial, &parallel)?;
        // Meter parity: fan-out must not change the metered cost, or the
        // scheduler's light/heavy classification would depend on workers.
        prop_assert_eq!(meter.total() - mark, mark);
    }

    #[test]
    fn partitioned_join_is_bitwise_serial(
        left in table(120),
        right in table(120),
        workers in prop_oneof![Just(2usize), Just(8usize)],
        jt in prop_oneof![
            Just(JoinType::Inner),
            Just(JoinType::Left),
            Just(JoinType::Semi),
            Just(JoinType::Anti)
        ],
    ) {
        let meter = WorkMeter::new();
        let serial =
            hash_join_exec(&left, &right, &[0, 1], &[0, 1], jt, &meter, &OpExec::serial())
                .unwrap();
        let parallel =
            hash_join_exec(&left, &right, &[0, 1], &[0, 1], jt, &meter, &OpExec::new(workers))
                .unwrap();
        assert_bitwise_eq(&serial, &parallel)?;
    }

    #[test]
    fn scalar_aggregate_is_bitwise_serial(
        input in table(200),
        workers in prop_oneof![Just(2usize), Just(8usize)],
    ) {
        let meter = WorkMeter::new();
        let aggs = [AggSpec::sum(2), AggSpec::avg(2), AggSpec::count(0)];
        let serial = hash_aggregate_exec(&input, &[], &aggs, &meter, &OpExec::serial()).unwrap();
        let parallel =
            hash_aggregate_exec(&input, &[], &aggs, &meter, &OpExec::new(workers)).unwrap();
        assert_bitwise_eq(&serial, &parallel)?;
    }

    #[test]
    fn mixed_key_aggregate_matches_reference(
        input in mixed_table(150),
        workers in workers(),
        keys in 0usize..6,
    ) {
        let meter = WorkMeter::new();
        let group = MIXED_KEYS[keys];
        let aggs = [
            AggSpec::sum(5),
            AggSpec::count(5),
            AggSpec::min(5),
            AggSpec::max(5),
            AggSpec::avg(5),
        ];
        let out =
            hash_aggregate_exec(&input, group, &aggs, &meter, &OpExec::new(workers)).unwrap();
        assert_bitwise_eq(&reference_aggregate(&input, group, 5), &out)?;
    }

    #[test]
    fn mixed_key_join_matches_reference(
        left in mixed_table(80),
        right in mixed_table(80),
        workers in workers(),
        jt in join_type(),
        keys in 0usize..6,
    ) {
        let meter = WorkMeter::new();
        let k = MIXED_KEYS[keys];
        let out = hash_join_exec(&left, &right, k, k, jt, &meter, &OpExec::new(workers)).unwrap();
        assert_bitwise_eq(&reference_join(&left, &right, k, k, jt), &out)?;
    }

    #[test]
    fn cross_type_join_keys_follow_key_semantics(
        ints in proptest::collection::vec(0i64..3, 0..60),
        other in mixed_table(60),
        workers in workers(),
        jt in join_type(),
    ) {
        // I64 against Bool matches 0/1; I64 against Date never matches,
        // even where the numbers are equal.
        let meter = WorkMeter::new();
        let left = Chunk::new(vec![Col::I64(ints)]);
        for rk in [2usize, 3] {
            let out = hash_join_exec(&left, &other, &[0], &[rk], jt, &meter, &OpExec::new(workers))
                .unwrap();
            assert_bitwise_eq(&reference_join(&left, &other, &[0], &[rk], jt), &out)?;
            let flipped =
                hash_join_exec(&other, &left, &[rk], &[0], jt, &meter, &OpExec::new(workers))
                    .unwrap();
            assert_bitwise_eq(&reference_join(&other, &left, &[rk], &[0], jt), &flipped)?;
            if rk == 3 && jt == JoinType::Inner {
                prop_assert_eq!(out.len(), 0);
            }
        }
    }
}
