//! A small query-plan layer over the operator library.
//!
//! The paper's queries are pipelines around one or more partitioned
//! m-way joins (Query 1: three-way join → group-by min). This module
//! lets applications express such plans declaratively and execute them
//! on a [`QueryEngine`](crate::engine::QueryEngine) without hand-wiring
//! sinks:
//!
//! * per-input-stream **select/project** chains (stateless, §2);
//! * a chain of **join stages** — stage 0 joins the raw input streams;
//!   each later stage joins the previous stage's (flattened) output,
//!   re-partitioned on its own join column, against further fresh
//!   streams, per the paper's footnote that "trees of such operators,
//!   each with its own join columns, can be naturally supported";
//! * post-join select/project, and an optional group-by aggregate.
//!
//! The executor runs on one engine instance; the cluster layer's
//! partitioned execution composes at the stage-input level (each stage's
//! split re-partitions on that stage's column, exactly Figure 2).

use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::{PartitionId, StreamId};
use dcape_common::partition::Partitioner;
use dcape_common::tuple::Tuple;

use crate::config::MJoinConfig;
use crate::operators::aggregate::{flatten_result, AggExpr, GroupByAggregate};
use crate::operators::mjoin::MJoinOperator;
use crate::operators::project::Project;
use crate::operators::select::Predicate;
use crate::sink::ResultSink;

/// A stateless unary operator in a pipeline.
#[derive(Debug)]
pub enum UnaryOp {
    /// Filter by predicate.
    Select(Predicate),
    /// Project/reorder columns.
    Project(Project),
}

impl UnaryOp {
    fn apply(&self, tuple: Tuple) -> Option<Tuple> {
        match self {
            UnaryOp::Select(p) => p.eval(&tuple).then_some(tuple),
            UnaryOp::Project(p) => Some(p.process(&tuple)),
        }
    }
}

/// One join stage in the chain.
#[derive(Debug)]
pub struct JoinStage {
    /// Number of inputs to this stage's m-way join. Stage 0 consumes
    /// `arity` raw streams; later stages consume the previous stage's
    /// output as input 0 plus `arity - 1` fresh streams.
    pub arity: usize,
    /// Join-column index per input of this stage.
    pub join_columns: Vec<usize>,
    /// Partitions for this stage's split.
    pub num_partitions: u32,
}

/// A declarative plan.
#[derive(Debug)]
pub struct QueryPlan {
    /// Per-raw-stream pre-join pipelines (index = global stream id).
    pub pre: Vec<Vec<UnaryOp>>,
    /// The join chain (at least one stage).
    pub stages: Vec<JoinStage>,
    /// Post-join pipeline over flattened results.
    pub post: Vec<UnaryOp>,
    /// Optional aggregation: (key columns, aggregate expressions).
    pub aggregate: Option<(Vec<usize>, Vec<AggExpr>)>,
}

impl QueryPlan {
    /// A single-stage plan joining `streams` inputs on `column`.
    pub fn simple_join(streams: usize, column: usize, num_partitions: u32) -> Self {
        QueryPlan {
            pre: (0..streams).map(|_| Vec::new()).collect(),
            stages: vec![JoinStage {
                arity: streams,
                join_columns: vec![column; streams],
                num_partitions,
            }],
            post: Vec::new(),
            aggregate: None,
        }
    }

    /// Total number of raw input streams the plan consumes.
    pub fn num_raw_streams(&self) -> usize {
        let mut n = 0;
        for (i, s) in self.stages.iter().enumerate() {
            n += if i == 0 { s.arity } else { s.arity - 1 };
        }
        n
    }

    /// Validate the plan's internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.stages.is_empty() {
            return Err(DcapeError::config("plan needs at least one join stage"));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.arity < 2 {
                return Err(DcapeError::config(format!("stage {i}: arity must be >= 2")));
            }
            if s.join_columns.len() != s.arity {
                return Err(DcapeError::config(format!(
                    "stage {i}: join_columns length != arity"
                )));
            }
            if s.num_partitions == 0 {
                return Err(DcapeError::config(format!("stage {i}: zero partitions")));
            }
        }
        if self.pre.len() != self.num_raw_streams() {
            return Err(DcapeError::config(format!(
                "pre pipelines: got {}, plan consumes {} raw streams",
                self.pre.len(),
                self.num_raw_streams()
            )));
        }
        Ok(())
    }
}

/// Collects one stage's join results so they can be fed to the next
/// stage after the current insert completes.
#[derive(Debug, Default)]
struct StageBuffer {
    results: Vec<Tuple>,
}

impl ResultSink for StageBuffer {
    fn emit(&mut self, parts: &[&Tuple]) {
        self.results.push(flatten_result(parts));
    }
}

/// Executes a [`QueryPlan`] on in-process operator instances.
///
/// For partitioned/distributed execution the cluster drivers own the
/// stage-0 split; this executor is the single-instance reference used by
/// examples and tests.
#[derive(Debug)]
pub struct PlanExecutor {
    plan: QueryPlan,
    joins: Vec<MJoinOperator>,
    partitioners: Vec<Partitioner>,
    /// Map raw stream id → (stage index, input index within stage).
    raw_inputs: Vec<(usize, usize)>,
    aggregate: Option<GroupByAggregate>,
    results_out: u64,
    intermediate_seq: u64,
}

impl PlanExecutor {
    /// Build an executor; validates the plan.
    pub fn new(plan: QueryPlan) -> Result<Self> {
        plan.validate()?;
        let tracker = dcape_common::mem::MemoryTracker::new(u64::MAX / 2);
        let mut joins = Vec::with_capacity(plan.stages.len());
        let mut partitioners = Vec::with_capacity(plan.stages.len());
        for stage in &plan.stages {
            joins.push(MJoinOperator::new(
                MJoinConfig {
                    num_streams: stage.arity,
                    join_columns: stage.join_columns.clone(),
                    window: None,
                },
                std::sync::Arc::clone(&tracker),
            )?);
            partitioners.push(Partitioner::hash(stage.num_partitions));
        }
        let mut raw_inputs = Vec::new();
        for (si, stage) in plan.stages.iter().enumerate() {
            let first_fresh = if si == 0 { 0 } else { 1 };
            for input in first_fresh..stage.arity {
                raw_inputs.push((si, input));
            }
        }
        let aggregate = plan
            .aggregate
            .as_ref()
            .map(|(keys, exprs)| GroupByAggregate::new(keys.clone(), exprs.clone()));
        Ok(PlanExecutor {
            plan,
            joins,
            partitioners,
            raw_inputs,
            aggregate,
            results_out: 0,
            intermediate_seq: 0,
        })
    }

    /// Final results produced (post-pipeline, pre-aggregation rows).
    pub fn results_out(&self) -> u64 {
        self.results_out
    }

    /// The aggregation state, if the plan aggregates.
    pub fn aggregate(&self) -> Option<&GroupByAggregate> {
        self.aggregate.as_ref()
    }

    /// Total state bytes across all join stages.
    pub fn state_bytes(&self) -> usize {
        self.joins.iter().map(MJoinOperator::state_bytes).sum()
    }

    /// Feed one raw input tuple (its `stream()` is the global raw
    /// stream id). Final results are delivered to `sink`.
    pub fn feed(&mut self, tuple: Tuple, sink: &mut dyn ResultSink) -> Result<()> {
        let raw = tuple.stream().index();
        let &(stage, input) = self
            .raw_inputs
            .get(raw)
            .ok_or_else(|| DcapeError::state(format!("raw stream {raw} not in plan")))?;
        // Pre-join pipeline.
        let mut t = tuple;
        for op in &self.plan.pre[raw] {
            match op.apply(t) {
                Some(next) => t = next,
                None => return Ok(()),
            }
        }
        // Retag to the stage-local input index.
        let t = retag(t, input as u8);
        self.insert_into_stage(stage, t, sink)
    }

    fn insert_into_stage(
        &mut self,
        stage: usize,
        tuple: Tuple,
        sink: &mut dyn ResultSink,
    ) -> Result<()> {
        let key = tuple
            .get(self.plan.stages[stage].join_columns[tuple.stream().index()])
            .ok_or_else(|| DcapeError::state("tuple lacks stage join column"))?;
        let pid: PartitionId = self.partitioners[stage].partition_of(key);
        let mut buffer = StageBuffer::default();
        self.joins[stage].process(pid, tuple, &mut buffer)?;
        for result in buffer.results {
            if stage + 1 < self.plan.stages.len() {
                // Feed the next stage as its input 0.
                let seq = self.intermediate_seq;
                self.intermediate_seq += 1;
                let next = Tuple::new(StreamId(0), seq, result.ts(), result.values().to_vec());
                self.insert_into_stage(stage + 1, next, sink)?;
            } else {
                self.deliver(result, sink)?;
            }
        }
        Ok(())
    }

    fn deliver(&mut self, mut row: Tuple, sink: &mut dyn ResultSink) -> Result<()> {
        for op in &self.plan.post {
            match op.apply(row) {
                Some(next) => row = next,
                None => return Ok(()),
            }
        }
        if let Some(agg) = &mut self.aggregate {
            agg.process(&row)?;
        }
        self.results_out += 1;
        sink.emit(&[&row]);
        Ok(())
    }
}

fn retag(t: Tuple, stream: u8) -> Tuple {
    if t.stream().0 == stream {
        return t;
    }
    Tuple::new(StreamId(stream), t.seq(), t.ts(), t.values().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::aggregate::AggregateFunction;
    use crate::operators::select::{CmpOp, Predicate};
    use crate::sink::CountingSink;
    use dcape_common::time::VirtualTime;
    use dcape_common::value::Value;

    fn t(stream: u8, seq: u64, values: Vec<Value>) -> Tuple {
        Tuple::new(StreamId(stream), seq, VirtualTime::from_millis(seq), values)
    }

    #[test]
    fn simple_join_plan_counts_matches() {
        let plan = QueryPlan::simple_join(3, 0, 8);
        let mut exec = PlanExecutor::new(plan).unwrap();
        let mut sink = CountingSink::new();
        for seq in 0..4u64 {
            for s in 0..3u8 {
                exec.feed(t(s, seq, vec![Value::Int(1)]), &mut sink)
                    .unwrap();
            }
        }
        assert_eq!(sink.count(), 64);
        assert_eq!(exec.results_out(), 64);
        assert!(exec.state_bytes() > 0);
    }

    #[test]
    fn pre_select_filters_one_input() {
        let mut plan = QueryPlan::simple_join(2, 0, 4);
        plan.pre[1] = vec![UnaryOp::Select(Predicate::ColumnCmp {
            column: 1,
            op: CmpOp::Gt,
            value: Value::Int(10),
        })];
        let mut exec = PlanExecutor::new(plan).unwrap();
        let mut sink = CountingSink::new();
        exec.feed(t(0, 0, vec![Value::Int(1), Value::Int(0)]), &mut sink)
            .unwrap();
        exec.feed(t(1, 0, vec![Value::Int(1), Value::Int(5)]), &mut sink)
            .unwrap(); // filtered out
        exec.feed(t(1, 1, vec![Value::Int(1), Value::Int(20)]), &mut sink)
            .unwrap(); // passes
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn post_project_and_aggregate() {
        let mut plan = QueryPlan::simple_join(2, 0, 4);
        // Flattened join row: [k, price, k, broker]; project broker+price
        // then group by broker with min(price).
        plan.post = vec![UnaryOp::Project(Project::new(vec![3, 1]))];
        plan.aggregate = Some((
            vec![0],
            vec![AggExpr {
                func: AggregateFunction::Min,
                column: 1,
            }],
        ));
        let mut exec = PlanExecutor::new(plan).unwrap();
        let mut sink = CountingSink::new();
        exec.feed(t(0, 0, vec![Value::Int(1), Value::Double(3.0)]), &mut sink)
            .unwrap();
        exec.feed(t(0, 1, vec![Value::Int(1), Value::Double(2.0)]), &mut sink)
            .unwrap();
        exec.feed(t(1, 0, vec![Value::Int(1), Value::text("bkr")]), &mut sink)
            .unwrap();
        assert_eq!(sink.count(), 2);
        let rows = exec.aggregate().unwrap().results();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::text("bkr"));
        assert_eq!(rows[0][1], Value::Double(2.0));
    }

    #[test]
    fn two_stage_join_chain() {
        // Stage 0: join streams 0,1 on column 0.
        // Stage 1: join stage-0 output (flattened, column 0 still the
        // key) with raw stream 2 on column 0.
        let plan = QueryPlan {
            pre: vec![Vec::new(), Vec::new(), Vec::new()],
            stages: vec![
                JoinStage {
                    arity: 2,
                    join_columns: vec![0, 0],
                    num_partitions: 4,
                },
                JoinStage {
                    arity: 2,
                    join_columns: vec![0, 0],
                    num_partitions: 4,
                },
            ],
            post: Vec::new(),
            aggregate: None,
        };
        assert_eq!(plan.num_raw_streams(), 3);
        let mut exec = PlanExecutor::new(plan).unwrap();
        let mut sink = CountingSink::new();
        // 2 x 2 x 2 tuples, all key 7 => stage0: 4 pairs; stage1: each
        // pair joins 2 stream-2 tuples => 8 results. Order of arrival
        // must not matter for the total.
        for seq in 0..2u64 {
            for s in 0..3u8 {
                exec.feed(t(s, seq, vec![Value::Int(7)]), &mut sink)
                    .unwrap();
            }
        }
        assert_eq!(sink.count(), 8);
    }

    #[test]
    fn invalid_plans_rejected() {
        let mut plan = QueryPlan::simple_join(3, 0, 8);
        plan.stages[0].arity = 1;
        assert!(PlanExecutor::new(plan).is_err());

        let mut plan = QueryPlan::simple_join(3, 0, 8);
        plan.stages.clear();
        assert!(PlanExecutor::new(plan).is_err());

        let mut plan = QueryPlan::simple_join(3, 0, 8);
        plan.pre.pop();
        assert!(PlanExecutor::new(plan).is_err());

        let mut plan = QueryPlan::simple_join(2, 0, 8);
        plan.stages[0].num_partitions = 0;
        assert!(PlanExecutor::new(plan).is_err());
    }

    #[test]
    fn unknown_raw_stream_is_an_error() {
        let plan = QueryPlan::simple_join(2, 0, 4);
        let mut exec = PlanExecutor::new(plan).unwrap();
        let mut sink = CountingSink::new();
        assert!(exec.feed(t(5, 0, vec![Value::Int(1)]), &mut sink).is_err());
    }
}
