//! The paper's motivating scenario (§1, Figure 1 and Query 1): a
//! real-time financial data integration server joining currency offer
//! streams from three banks and reporting, per broker, the minimum
//! offered price:
//!
//! ```sql
//! SELECT brokerName, min(price)
//! FROM bank1, bank2, bank3
//! WHERE bank1.offerCurrency = bank2.offerCurrency
//!   AND bank2.offerCurrency = bank3.offerCurrency ...
//! GROUP BY brokerName
//! ```
//!
//! Built directly on the operator API: a symmetric three-way hash join
//! partitioned by currency, a projection, and a streaming group-by
//! aggregate — demonstrating that the engine is a general operator
//! library, not only a harness for the paper's synthetic workloads.
//!
//! ```sh
//! cargo run --release --example financial_integration
//! ```

#![deny(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dcape::common::ids::{EngineId, PartitionId, StreamId};
use dcape::common::time::VirtualTime;
use dcape::common::{Partitioner, Tuple, Value};
use dcape::engine::config::EngineConfig;
use dcape::engine::engine::QueryEngine;
use dcape::engine::operators::aggregate::{
    flatten_result, AggExpr, AggregateFunction, GroupByAggregate,
};
use dcape::engine::sink::ResultSink;

const CURRENCIES: &[&str] = &["USD", "EUR", "GBP", "JPY", "CHF", "AUD", "CAD", "SEK"];
const BROKERS: &[&str] = &["alpine", "borealis", "cumulus", "drift", "ember"];

/// One bank's offer tuple: (offerCurrency, brokerName, price).
fn offer(bank: u8, seq: u64, rng: &mut StdRng) -> Tuple {
    let currency = CURRENCIES[rng.gen_range(0..CURRENCIES.len())];
    let broker = BROKERS[rng.gen_range(0..BROKERS.len())];
    let price = 0.5 + rng.gen::<f64>() * 2.0;
    Tuple::new(
        StreamId(bank),
        seq,
        VirtualTime::from_millis(seq * 30),
        vec![
            Value::text(currency),
            Value::text(broker),
            Value::Double(price),
        ],
    )
}

/// Sink that pipes every three-bank match through the aggregation.
struct Query1Sink {
    agg: GroupByAggregate,
    matches: u64,
}

impl ResultSink for Query1Sink {
    fn emit(&mut self, parts: &[&Tuple]) {
        // Flattened row: [cur1, broker1, price1, cur2, broker2, price2,
        // cur3, broker3, price3]. Query 1 groups by bank1's broker and
        // minimizes bank1's price.
        let row = flatten_result(parts);
        self.agg
            .process(&row)
            .expect("aggregation over join output");
        self.matches += 1;
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "dcape {} — Query 1: financial data integration\n",
        dcape::VERSION
    );

    let partitioner = Partitioner::hash(32);
    let cfg = EngineConfig::three_way(64 << 20, 48 << 20);
    let mut engine = QueryEngine::in_memory(EngineId(0), cfg)?;
    let mut sink = Query1Sink {
        agg: GroupByAggregate::new(
            vec![1], // GROUP BY bank1.brokerName
            vec![
                AggExpr {
                    func: AggregateFunction::Min,
                    column: 2, // min(bank1.price)
                },
                AggExpr {
                    func: AggregateFunction::Count,
                    column: 2,
                },
            ],
        ),
        matches: 0,
    };

    let mut rng = StdRng::seed_from_u64(2007);
    let rounds = 600u64;
    for seq in 0..rounds {
        for bank in 0..3u8 {
            let tuple = offer(bank, seq, &mut rng);
            let pid: PartitionId = partitioner.partition_of(&tuple.values()[0]);
            engine.process(pid, tuple, &mut sink)?;
        }
    }

    println!(
        "{} offers/bank processed, {} three-bank currency matches\n",
        rounds, sink.matches
    );
    println!("{:<10} {:>12} {:>12}", "broker", "min(price)", "matches");
    println!("{:-<10} {:->12} {:->12}", "", "", "");
    for row in sink.agg.results() {
        let broker = row[0].as_text().unwrap_or("?");
        let min_price = row[1].as_double().unwrap_or(f64::NAN);
        let count = row[2].as_int().unwrap_or(0);
        println!("{broker:<10} {min_price:>12.4} {count:>12}");
    }
    println!(
        "\nengine state: {:.2} MiB across {} partition groups",
        engine.memory_used() as f64 / (1 << 20) as f64,
        engine.join().group_count()
    );
    Ok(())
}
