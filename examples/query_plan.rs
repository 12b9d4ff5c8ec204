//! The declarative plan layer: a two-stage join chain with pre-join
//! filtering and post-join aggregation, executed without hand-wiring any
//! sinks — the paper's footnote that "trees of such operators, each with
//! its own join columns, can be naturally supported", made concrete.
//!
//! The query (over three synthetic feeds):
//!
//! ```sql
//! SELECT region, count(*), avg(volume)
//! FROM quotes q JOIN orders o ON q.instrument = o.instrument
//!               JOIN venues v ON q.instrument = v.instrument
//! WHERE o.volume > 100
//! GROUP BY v.region
//! ```
//!
//! ```sh
//! cargo run --release --example query_plan
//! ```

#![deny(unsafe_code)]

use dcape::common::ids::StreamId;
use dcape::common::time::VirtualTime;
use dcape::common::{Tuple, Value};
use dcape::engine::operators::aggregate::{AggExpr, AggregateFunction};
use dcape::engine::operators::select::{CmpOp, Predicate};
use dcape::engine::plan::{JoinStage, PlanExecutor, QueryPlan, UnaryOp};
use dcape::engine::sink::CountingSink;

fn tuple(stream: u8, seq: u64, values: Vec<Value>) -> Tuple {
    Tuple::new(
        StreamId(stream),
        seq,
        VirtualTime::from_millis(seq * 30),
        values,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("dcape {} — declarative query plans\n", dcape::VERSION);

    // Stage 0 joins quotes (stream 0) with orders (stream 1) on the
    // instrument id (column 0 of both). Stage 1 joins that output
    // (column 0 still carries the instrument id) with venues (stream 2).
    let plan = QueryPlan {
        pre: vec![
            vec![], // quotes: pass through
            vec![UnaryOp::Select(Predicate::ColumnCmp {
                column: 1,
                op: CmpOp::Gt,
                value: Value::Int(100),
            })], // orders: WHERE volume > 100
            vec![], // venues
        ],
        stages: vec![
            JoinStage {
                arity: 2,
                join_columns: vec![0, 0],
                num_partitions: 16,
            },
            JoinStage {
                arity: 2,
                join_columns: vec![0, 0],
                num_partitions: 16,
            },
        ],
        // Flattened row: [instr, price, instr, volume, instr, region].
        post: vec![],
        aggregate: Some((
            vec![5], // GROUP BY region
            vec![
                AggExpr {
                    func: AggregateFunction::Count,
                    column: 5,
                },
                AggExpr {
                    func: AggregateFunction::Avg,
                    column: 3,
                },
            ],
        )),
    };
    let mut exec = PlanExecutor::new(plan)?;
    let mut sink = CountingSink::new();

    let regions = ["emea", "amer", "apac"];
    for seq in 0..3000u64 {
        let instrument = (seq % 40) as i64;
        // quotes(instr, price)
        exec.feed(
            tuple(
                0,
                seq,
                vec![
                    Value::Int(instrument),
                    Value::Double(1.0 + (seq % 7) as f64),
                ],
            ),
            &mut sink,
        )?;
        // orders(instr, volume) — about half survive the filter
        exec.feed(
            tuple(
                1,
                seq,
                vec![Value::Int(instrument), Value::Int((seq % 200) as i64)],
            ),
            &mut sink,
        )?;
        // venues(instr, region) — one per instrument, early on
        if seq < 40 {
            exec.feed(
                tuple(
                    2,
                    seq,
                    vec![
                        Value::Int(instrument),
                        Value::text(regions[(seq % 3) as usize]),
                    ],
                ),
                &mut sink,
            )?;
        }
    }

    println!("final results emitted : {}", sink.count());
    println!("join-state bytes      : {}", exec.state_bytes());
    println!("\n{:<8} {:>10} {:>12}", "region", "count", "avg(volume)");
    println!("{:-<8} {:->10} {:->12}", "", "", "");
    for row in exec.aggregate().unwrap().results() {
        println!(
            "{:<8} {:>10} {:>12.1}",
            row[0].as_text().unwrap_or("?"),
            row[1].as_int().unwrap_or(0),
            row[2].as_double().unwrap_or(f64::NAN),
        );
    }
    Ok(())
}
