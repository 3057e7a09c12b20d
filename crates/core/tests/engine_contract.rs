//! The engine contract, from the consumer side: a toy engine that writes
//! only what [`Engine`] asks for — `exec`, `on_data`, an accessor — and gets
//! every cross-cutting feature of `sympack::sched` without a line of wire,
//! relay, dedup, stall or accounting code of its own.
//!
//! The toy: rank 0 publishes a payload to every other rank (`Ping`); each
//! of them consumes it and publishes it back (`Pong`); rank 0 finishes once
//! every echo has arrived (`Done`).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::sched::{self, CommLayer, Core, Engine, FetchConfig, FetchMode, Meta, TaskEngine};
use sympack::sched::{Graph, PublishStats, RtqPolicy, TaskId, TaskKind};
use sympack::storage::BlockStore;
use sympack::{BcastTopology, CoalesceConfig, SolverError};
use sympack_gpu::{KernelEngine, OomPolicy};
use sympack_pgas::{FaultPlan, Payload, PgasConfig, Rank, RunReport, Runtime};
use sympack_trace::{SpanKind, TraceCat, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Toy {
    Ping,
    Pong,
    Done,
}

impl TaskKind for Toy {
    fn priority_key(&self) -> (usize, usize) {
        (*self as usize, 0)
    }
    fn seed_key(&self) -> (usize, usize, usize, usize) {
        (*self as usize, 0, 0, 0)
    }
    fn kind_name(&self) -> &'static str {
        "toy"
    }
    fn trace_label(&self) -> String {
        format!("{self:?}")
    }
    fn trace_cat(&self) -> TraceCat {
        TraceCat::Other
    }
}

/// The toy's message metadata: who published the payload.
#[derive(Debug, Clone, Copy)]
struct From(usize);

impl Meta for From {
    fn describe(&self) -> String {
        format!("toy payload of rank {}", self.0)
    }
}

// ---- the whole engine: state, `exec`, `on_data` -------------------------
struct ToyEngine {
    core: Core<Toy, From>,
    /// Every payload value received, in arrival order.
    got: Vec<f64>,
}

impl Engine for ToyEngine {
    type Key = Toy;
    type Meta = From;
    const STALL_DETAIL: &'static str = "toy engine quiesced (dropped ping or pong suspected)";

    fn core(&mut self) -> &mut Core<Toy, From> {
        &mut self.core
    }

    fn exec(&mut self, rank: &mut Rank, _id: TaskId, key: Toy) {
        let me = From(rank.id());
        let others: Vec<usize> = (1..rank.n_ranks()).collect();
        let comm = &mut self.core.comm;
        match key {
            Toy::Ping => comm.publish::<Self>(rank, vec![1.0, 2.0, 3.0], None, &others, me),
            Toy::Pong => comm.publish::<Self>(rank, self.got.clone(), None, &[0], me),
            Toy::Done => {}
        }
        self.core.rt.charge(rank, key, 1.0e-6);
    }

    fn on_data(&mut self, rank: &mut Rank, _from: From, data: Payload, ready_at: f64) {
        self.got.extend(data.iter());
        // Rank 0's `Done` is its task 1, every other rank's `Pong` task 0.
        let next = TaskId::from(rank.id() == 0);
        self.core.rt.dec_id(next, ready_at);
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (BlockStore::default(), KernelEngine::new_cpu())
    }
}
// -------------------------------------------------------------------------

/// What one rank reports back from a toy run.
struct Outcome {
    got: Vec<f64>,
    error: Option<SolverError>,
    published: PublishStats,
    exec_spans: Vec<String>,
}

/// Run the toy on 2 nodes × 2 ranks under lockstep.
fn run_toy(
    topology: BcastTopology,
    coalesce: Option<CoalesceConfig>,
    faults: Option<FaultPlan>,
) -> RunReport<Outcome> {
    let mut config = PgasConfig::multi_node(2, 2);
    config.deterministic = true;
    config.faults = faults;
    let abort = Arc::new(AtomicBool::new(false));
    Runtime::run(config, |rank| {
        let graph = if rank.id() == 0 {
            let waits = rank.n_ranks() as u32 - 1;
            Graph::new(vec![Toy::Ping, Toy::Done], vec![0, waits])
        } else {
            Graph::new(vec![Toy::Pong], vec![1])
        };
        let mut rt = TaskEngine::new(&graph, RtqPolicy::Fifo, Arc::clone(&abort));
        rt.tracer = Some(Tracer::new());
        let engine = ToyEngine {
            core: Core {
                rt,
                comm: CommLayer::new(coalesce, topology),
                fetch: FetchConfig::for_engine(
                    false,
                    OomPolicy::CpuFallback,
                    FetchMode::NonBlocking,
                ),
            },
            got: Vec::new(),
        };
        let (mut engine, _elapsed) = sched::run_to_completion(rank, engine);
        let events = engine
            .core
            .rt
            .tracer
            .take()
            .expect("installed")
            .into_events();
        Outcome {
            got: engine.got,
            error: engine.core.rt.error.take(),
            published: engine.core.comm.stats(),
            exec_spans: events
                .into_iter()
                .filter(|ev| ev.kind == SpanKind::Exec)
                .map(|ev| ev.name)
                .collect(),
        }
    })
}

/// Every rank finished cleanly and received each payload exactly once.
fn assert_clean(run: &RunReport<Outcome>, what: &str) {
    for (r, out) in run.results.iter().enumerate() {
        assert!(out.error.is_none(), "{what}: rank {r}: {:?}", out.error);
        let echoes = if r == 0 { 3 } else { 1 };
        let want: Vec<f64> = [1.0, 2.0, 3.0].repeat(echoes);
        assert_eq!(out.got, want, "{what}: rank {r} payloads");
    }
}

#[test]
fn a_toy_engine_inherits_publication_accounting_and_tracing() {
    let run = run_toy(BcastTopology::Flat, None, None);
    assert_clean(&run, "flat");
    for (r, out) in run.results.iter().enumerate() {
        // One payload of three f64 each, counted by the publication layer.
        assert_eq!(out.published.dense_blocks, 1, "rank {r}");
        assert_eq!(out.published.published_bytes(), 24, "rank {r}");
        let want: &[&str] = if r == 0 { &["Ping", "Done"] } else { &["Pong"] };
        assert_eq!(out.exec_spans, want, "rank {r} exec spans");
    }
    assert_eq!(run.stats.rgets, 6, "one fetch per delivered payload");
    assert_eq!(run.stats.frames, 0);
    assert_eq!(run.comm.msgs_between(2, 3), 0, "flat: nobody relays");
}

#[test]
fn a_toy_engine_inherits_signal_dedup() {
    let plan = FaultPlan {
        dup_prob: 1.0,
        ..FaultPlan::duplication(7)
    };
    let run = run_toy(BcastTopology::Flat, None, Some(plan));
    assert!(run.stats.rpcs_duplicated > 0, "the plan never duplicated");
    assert_clean(&run, "duplicated signals");
    assert_eq!(run.stats.rgets, 6, "a duplicate must not fetch again");
}

#[test]
fn a_toy_engine_inherits_the_stall_diagnosis() {
    let plan = FaultPlan {
        drop_prob: 1.0,
        dup_prob: 0.0,
        ..FaultPlan::duplication(7)
    };
    let run = run_toy(BcastTopology::Flat, None, Some(plan));
    let stalled = run.results.iter().find_map(|out| match &out.error {
        Some(SolverError::Stalled { detail, .. }) => Some(detail.as_str()),
        _ => None,
    });
    assert_eq!(stalled, Some(ToyEngine::STALL_DETAIL));
}

#[test]
fn a_toy_engine_inherits_coalesced_frames() {
    let run = run_toy(BcastTopology::Flat, Some(CoalesceConfig::default()), None);
    assert_clean(&run, "coalesced");
    assert!(run.stats.frames > 0, "signals must travel framed");
    assert_eq!(run.stats.frame_subs, 6, "every signal rode a frame");
}

#[test]
fn a_toy_engine_inherits_the_broadcast_tree() {
    // Rank 0 (node 0) pings ranks 1, 2, 3: rank 1 directly, node 1 through
    // its leader rank 2, which re-hosts the payload and relays to rank 3.
    let run = run_toy(BcastTopology::Tree { arity: 2 }, None, None);
    assert_clean(&run, "tree");
    assert_eq!(
        run.comm.msgs_between(0, 3),
        0,
        "the owner never signals rank 3"
    );
    assert!(run.comm.msgs_between(2, 3) > 0, "the leader relays");
    assert!(
        run.comm.bytes_between(2, 3) >= 24,
        "rank 3 pulls from the leader"
    );
}
