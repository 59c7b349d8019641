//! The multi-NPU cluster simulator: a front-end [`Dispatcher`] feeding N
//! independent [`NpuSimulator`] nodes.
//!
//! Simulation proceeds in two deterministic stages. First the requests are
//! dispatched in `(arrival, id)` order: the configured policy commits each
//! request to a node using only front-end information (the predictor
//! estimate attached to the request and the dispatcher's own ledgers).
//! Then every node runs its assigned requests through the *unmodified*
//! single-NPU engine — arrivals keep their global timestamps, so a node
//! that receives no work before time `t` simply idles until `t`. The two
//! stages never feed back: open-loop arrivals do not react to queue state,
//! and a dispatched request never migrates (its context lives in its
//! node's memory, Section IV-A).
//!
//! Node simulations are pure functions of their task lists, so the per-node
//! fan-out can run on all cores ([`ClusterConfig::parallel`]) and is
//! bit-identical to the serial path — the same contract the single-NPU
//! evaluation suite upholds, pinned by `tests/determinism.rs`.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use npu_sim::{Cycles, NpuConfig};
use prema_core::{
    NpuSimulator, PreparedTask, SchedulerConfig, SimOutcome, TaskId, TaskRecord, TaskRequest,
};
use prema_predictor::AnalyticalPredictor;
use prema_workload::prepare::prepare_requests;

use crate::dispatch::{DispatchPolicy, Dispatcher};

/// Configuration of a cluster simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of NPU nodes behind the front-end.
    pub nodes: usize,
    /// The NPU configuration every node runs (homogeneous cluster).
    pub npu: NpuConfig,
    /// The scheduler every node runs (e.g. NP-FCFS or Dynamic-PREMA).
    pub scheduler: SchedulerConfig,
    /// The front-end dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Seed of the dispatcher's RNG (only [`DispatchPolicy::Random`]
    /// consumes randomness; the other policies ignore it).
    pub dispatch_seed: u64,
    /// Whether to fan the per-node simulations out over all cores. Results
    /// are bit-identical either way.
    pub parallel: bool,
}

impl ClusterConfig {
    /// A cluster of `nodes` paper-default NPUs under the given per-node
    /// scheduler and dispatch policy.
    pub fn new(nodes: usize, scheduler: SchedulerConfig, dispatch: DispatchPolicy) -> Self {
        ClusterConfig {
            nodes,
            npu: NpuConfig::paper_default(),
            scheduler,
            dispatch,
            dispatch_seed: 0,
            parallel: true,
        }
    }

    /// Overrides the dispatcher seed.
    pub fn with_dispatch_seed(mut self, seed: u64) -> Self {
        self.dispatch_seed = seed;
        self
    }

    /// Disables the parallel node fan-out (single-threaded reference path).
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        self.npu.validate()?;
        self.scheduler.validate()?;
        Ok(())
    }
}

/// One front-end assignment: which node a task was dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeAssignment {
    /// The dispatched task.
    pub task: TaskId,
    /// The node index it was committed to.
    pub node: usize,
}

/// Results of one cluster simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Per-node engine outcomes, indexed by node. A node that received no
    /// work has an empty outcome.
    pub node_outcomes: Vec<SimOutcome>,
    /// The front-end's assignments, in dispatch (arrival) order.
    pub assignments: Vec<NodeAssignment>,
}

impl ClusterOutcome {
    /// Total number of served tasks across all nodes.
    pub fn task_count(&self) -> usize {
        self.node_outcomes.iter().map(|o| o.records.len()).sum()
    }

    /// Every per-task record across the cluster, in task-ID order.
    pub fn merged_records(&self) -> Vec<TaskRecord> {
        let mut records: Vec<TaskRecord> = self
            .node_outcomes
            .iter()
            .flat_map(|o| o.records.iter().copied())
            .collect();
        records.sort_by_key(|r| r.id);
        records
    }

    /// Completion time of the last task on any node.
    pub fn makespan(&self) -> Cycles {
        self.node_outcomes
            .iter()
            .map(|o| o.makespan)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Total scheduler wakeups across all nodes (the cluster's event count).
    pub fn scheduler_invocations(&self) -> u64 {
        self.node_outcomes
            .iter()
            .map(|o| o.scheduler_invocations)
            .sum()
    }
}

/// An empty per-node outcome (for nodes the dispatcher sent nothing to).
fn empty_outcome() -> SimOutcome {
    SimOutcome {
        records: Vec::new(),
        makespan: Cycles::ZERO,
        scheduler_invocations: 0,
        checkpoint_preemptions: 0,
        kill_preemptions: 0,
        drain_decisions: 0,
        quanta_skipped: 0,
        replayed_token_grants: 0,
    }
}

/// The multi-NPU cluster simulator.
#[derive(Debug, Clone)]
pub struct ClusterSimulator {
    config: ClusterConfig,
}

impl ClusterSimulator {
    /// Creates a cluster simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: ClusterConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid ClusterConfig: {msg}");
        }
        ClusterSimulator { config }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Dispatches the prepared tasks across the nodes and runs every node's
    /// simulation to completion. An empty task list yields an empty outcome.
    ///
    /// # Panics
    ///
    /// Panics if task IDs are not unique across the whole cluster workload.
    pub fn run(&self, tasks: &[PreparedTask]) -> ClusterOutcome {
        let mut ids: Vec<TaskId> = tasks.iter().map(|t| t.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), tasks.len(), "task IDs must be unique");

        // Dispatch in (arrival, id) order — the order a front-end sees.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        order.sort_by_key(|&i| (tasks[i].request.arrival, tasks[i].request.id));
        let mut dispatcher = Dispatcher::new(
            self.config.dispatch,
            self.config.nodes,
            self.config.dispatch_seed,
        );
        let mut per_node: Vec<Vec<PreparedTask>> = vec![Vec::new(); self.config.nodes];
        let mut assignments = Vec::with_capacity(tasks.len());
        for &i in &order {
            let task = &tasks[i];
            let node = dispatcher.assign(
                task.request.arrival,
                task.estimated_cycles(),
                task.request.priority,
            );
            assignments.push(NodeAssignment {
                task: task.request.id,
                node,
            });
            per_node[node].push(task.clone());
        }

        // Every node simulation is a pure function of its task list, so the
        // fan-out order cannot affect the results; outcomes are collected in
        // node order either way.
        let simulate = |node_tasks: &Vec<PreparedTask>| -> SimOutcome {
            if node_tasks.is_empty() {
                empty_outcome()
            } else {
                NpuSimulator::new(self.config.npu.clone(), self.config.scheduler.clone())
                    .run(node_tasks)
            }
        };
        let node_outcomes: Vec<SimOutcome> =
            if self.config.parallel && rayon::current_num_threads() > 1 {
                per_node.par_iter().map(simulate).collect()
            } else {
                per_node.iter().map(simulate).collect()
            };

        ClusterOutcome {
            node_outcomes,
            assignments,
        }
    }

    /// Convenience: compiles + estimates raw requests (sharing the
    /// process-wide plan cache), then dispatches and runs them. Pass `None`
    /// as the predictor for oracle estimates.
    pub fn run_requests(
        &self,
        requests: &[TaskRequest],
        predictor: Option<&AnalyticalPredictor>,
    ) -> ClusterOutcome {
        let tasks = prepare_requests(requests, &self.config.npu, predictor);
        self.run(&tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::ModelKind;
    use prema_core::Priority;
    use prema_workload::arrivals::{generate_open_loop, OpenLoopConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn requests() -> Vec<TaskRequest> {
        let mut rng = StdRng::seed_from_u64(0xC1);
        generate_open_loop(&OpenLoopConfig::poisson(0.8, 40.0), &mut rng).requests
    }

    fn cluster(dispatch: DispatchPolicy) -> ClusterSimulator {
        ClusterSimulator::new(
            ClusterConfig::new(4, SchedulerConfig::paper_default(), dispatch)
                .with_dispatch_seed(0xD15),
        )
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let requests = requests();
        for policy in DispatchPolicy::ALL {
            let outcome = cluster(policy).run_requests(&requests, None);
            assert_eq!(outcome.task_count(), requests.len(), "{policy}");
            let records = outcome.merged_records();
            let mut expected: Vec<TaskId> = requests.iter().map(|r| r.id).collect();
            expected.sort_unstable();
            let served: Vec<TaskId> = records.iter().map(|r| r.id).collect();
            assert_eq!(served, expected, "{policy}");
            // Each record lives on the node its assignment names.
            for assignment in &outcome.assignments {
                let node = &outcome.node_outcomes[assignment.node];
                assert!(node.record(assignment.task).is_some(), "{policy}");
            }
        }
    }

    #[test]
    fn serial_and_parallel_node_fanout_are_bit_identical() {
        let requests = requests();
        for policy in DispatchPolicy::ALL {
            let parallel = cluster(policy).run_requests(&requests, None);
            let serial = ClusterSimulator::new(
                ClusterConfig::new(4, SchedulerConfig::paper_default(), policy)
                    .with_dispatch_seed(0xD15)
                    .serial(),
            )
            .run_requests(&requests, None);
            assert_eq!(parallel, serial, "{policy}");
        }
    }

    #[test]
    fn makespan_and_invocations_aggregate_over_nodes() {
        let outcome = cluster(DispatchPolicy::RoundRobin).run_requests(&requests(), None);
        let max = outcome
            .node_outcomes
            .iter()
            .map(|o| o.makespan)
            .max()
            .expect("a round-robin run over a non-empty request set has at least one node outcome");
        assert_eq!(outcome.makespan(), max);
        assert!(outcome.scheduler_invocations() > 0);
    }

    #[test]
    fn idle_nodes_produce_empty_outcomes() {
        // One request on a 4-node cluster: three nodes stay idle.
        let requests =
            vec![TaskRequest::new(TaskId(0), ModelKind::CnnAlexNet).with_priority(Priority::High)];
        let outcome = cluster(DispatchPolicy::ShortestQueue).run_requests(&requests, None);
        assert_eq!(outcome.task_count(), 1);
        let empty = outcome
            .node_outcomes
            .iter()
            .filter(|o| o.records.is_empty())
            .count();
        assert_eq!(empty, 3);
    }

    #[test]
    fn empty_workload_yields_empty_outcome() {
        let outcome = cluster(DispatchPolicy::Random).run(&[]);
        assert_eq!(outcome.task_count(), 0);
        assert_eq!(outcome.makespan(), Cycles::ZERO);
        assert!(outcome.assignments.is_empty());
    }

    #[test]
    #[should_panic(expected = "task IDs must be unique")]
    fn duplicate_ids_across_the_cluster_rejected() {
        let requests = vec![
            TaskRequest::new(TaskId(3), ModelKind::CnnAlexNet),
            TaskRequest::new(TaskId(3), ModelKind::CnnMobileNet),
        ];
        let _ = cluster(DispatchPolicy::RoundRobin).run_requests(&requests, None);
    }

    #[test]
    #[should_panic(expected = "invalid ClusterConfig")]
    fn zero_node_cluster_rejected() {
        let _ = ClusterSimulator::new(ClusterConfig::new(
            0,
            SchedulerConfig::paper_default(),
            DispatchPolicy::Random,
        ));
    }
}
