//! Property-based tests for the fault-injection engine and the trace codec:
//! seeded plan constructors always produce valid schedules (recovery never
//! precedes a crash, churned entities stay inside the graph), invalid
//! schedules are always rejected, and the JSONL trace codec round-trips
//! arbitrary logs — every fault-event kind, every message width (0..=4 `u32`
//! lanes), escaped strings, and full recorded runs — byte for byte.

use congest_engine::faults::FaultState;
use congest_engine::trace::{
    self, record_bcongest, TraceDelivery, TraceLog, TraceMetrics, TraceRound,
};
use congest_engine::{
    BcongestAlgorithm, FaultEvent, FaultPlan, FaultResponse, LocalView, RunOptions,
};
use congest_graph::{generators, EdgeId, NodeId};
use proptest::prelude::*;

/// Minimal broadcast workload for recorded-run properties: flood the minimum
/// ID, re-broadcasting only on improvement.
struct MinFlood;

#[derive(Clone, Debug)]
struct FloodState {
    best: u32,
    dirty: bool,
}

impl BcongestAlgorithm for MinFlood {
    type State = FloodState;
    type Msg = u32;
    type Output = u32;

    fn name(&self) -> &'static str {
        "prop-min-flood"
    }
    fn init(&self, view: &LocalView<'_>) -> FloodState {
        FloodState {
            best: view.node().raw(),
            dirty: true,
        }
    }
    fn broadcast(&self, s: &FloodState, _round: usize) -> Option<u32> {
        s.dirty.then_some(s.best)
    }
    fn on_broadcast_sent(&self, s: &mut FloodState, _round: usize) {
        s.dirty = false;
    }
    fn receive(&self, s: &mut FloodState, _round: usize, msgs: &[(NodeId, u32)]) {
        for &(_, m) in msgs {
            if m < s.best {
                s.best = m;
                s.dirty = true;
            }
        }
    }
    fn is_done(&self, s: &FloodState) -> bool {
        !s.dirty
    }
    fn on_fault(&self, s: &mut FloodState, _round: usize) {
        s.dirty = true;
    }
    fn output(&self, s: &FloodState) -> u32 {
        s.best
    }
    fn round_bound(&self, n: usize, _m: usize) -> usize {
        2 * n + 2
    }
    fn output_words(&self, _out: &u32) -> usize {
        1
    }
}

/// A deterministic synthetic trace exercising every fault-event kind, the
/// given message width, and string escaping in the header.
fn synthetic_log(seed: u64, lanes: usize, nrounds: usize) -> TraceLog {
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let rounds: Vec<TraceRound> = (0..nrounds)
        .map(|r| {
            let faults = vec![
                FaultEvent::EdgeDown(EdgeId::new((next() % 50) as usize)),
                FaultEvent::EdgeUp(EdgeId::new((next() % 50) as usize)),
                FaultEvent::Crash(NodeId::new((next() % 50) as usize)),
                FaultEvent::Recover(NodeId::new((next() % 50) as usize)),
            ];
            let deliveries = (0..(next() % 4) as usize)
                .map(|_| TraceDelivery {
                    to: (next() % 64) as u32,
                    from: (next() % 64) as u32,
                    lanes: (0..lanes).map(|_| next() as u32).collect(),
                })
                .collect();
            TraceRound {
                round: r,
                faults,
                deliveries,
            }
        })
        .collect();
    TraceLog {
        // Deliberately hostile name: quote, backslash, newline, tab — every
        // escape path of the hand-rolled codec.
        workload: format!("wl\"\\\n\t-{seed}"),
        kind: "bcongest".to_string(),
        n: (next() % 100) as usize,
        m: (next() % 300) as usize,
        seed,
        threads: (next() % 8) as usize,
        lanes,
        response: "self-heal".to_string(),
        rounds,
        output: format!("[{}, {}]", next(), next()),
        metrics: TraceMetrics {
            rounds: next(),
            messages: next(),
            broadcasts: next(),
            payload_bytes: next(),
            dropped_messages: next(),
            congestion: (0..(next() % 6)).map(|_| next()).collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn churn_plans_always_validate_and_heal(seed in 0u64..200, n in 8usize..40,
                                            k in 1usize..6, down in 0usize..5,
                                            up_delta in 1usize..6) {
        let g = generators::gnp_connected(n, 0.2, seed);
        let k = k.min(g.m());
        let plan =
            FaultPlan::edge_churn(&g, k, down, down + up_delta, seed, FaultResponse::Restart);
        prop_assert!(plan.validate(&g).is_ok(), "churn plan invalid: {plan}");
        // Every churned edge is a real edge, and the plan is pure churn.
        for &(_, ev) in &plan.schedule {
            match ev {
                FaultEvent::EdgeDown(e) | FaultEvent::EdgeUp(e) => {
                    prop_assert!(e.index() < g.m(), "edge {e:?} outside the graph")
                }
                other => prop_assert!(false, "churn plan contains node event {other:?}"),
            }
        }
        // Down/up pairs cancel: the final topology is fully healed.
        let mask = plan.final_mask(&g);
        prop_assert!(mask.edge_up.iter().all(|&b| b));
        prop_assert!(mask.node_up.iter().all(|&b| b));
    }

    #[test]
    fn crash_plans_always_validate_and_protect(seed in 0u64..200, n in 8usize..40,
                                               count in 1usize..5) {
        let g = generators::gnp_connected(n, 0.2, seed);
        let count = count.min(n - 1);
        let plan = FaultPlan::crashes(&g, count, 1, seed, &[NodeId::new(0)]);
        prop_assert!(plan.validate(&g).is_ok(), "crash plan invalid: {plan}");
        let mask = plan.final_mask(&g);
        prop_assert!(mask.node_up[0], "protected node crashed");
        prop_assert_eq!(mask.node_up.iter().filter(|&&up| !up).count(), count);
    }

    #[test]
    fn recovery_never_precedes_crash(round in 0usize..10, v in 0usize..8) {
        let g = generators::path(8);
        // A recover (or edge-up) with no preceding crash (down) is invalid...
        let orphan_recover =
            FaultPlan::new(FaultResponse::Restart).at(round, FaultEvent::Recover(NodeId::new(v)));
        prop_assert!(orphan_recover.validate(&g).is_err());
        let orphan_up =
            FaultPlan::new(FaultResponse::Restart).at(round, FaultEvent::EdgeUp(EdgeId::new(v.min(6))));
        prop_assert!(orphan_up.validate(&g).is_err());
        // ...while the properly ordered crash → recover pair is valid.
        let paired = FaultPlan::new(FaultResponse::SelfHeal)
            .at(round, FaultEvent::Crash(NodeId::new(v)))
            .at(round + 1, FaultEvent::Recover(NodeId::new(v)));
        prop_assert!(paired.validate(&g).is_ok());
    }

    #[test]
    fn fault_state_applies_events_in_schedule_order(seed in 0u64..100, n in 8usize..30) {
        let g = generators::gnp_connected(n, 0.25, seed);
        let plan = FaultPlan::edge_churn(&g, 2, 1, 3, seed, FaultResponse::Restart);
        let mut fs = FaultState::new(&plan, &g);
        let mut fired = 0usize;
        for round in 0..6 {
            fired += fs.apply_due(round).len();
        }
        prop_assert_eq!(fired, plan.schedule.len(), "every event fires exactly once");
        prop_assert_eq!(fs.next_fault_round(), None, "schedule exhausted");
        prop_assert!(fs.mask.edge_up.iter().all(|&b| b), "churn healed");
    }

    #[test]
    fn trace_codec_roundtrips_synthetic_logs(seed in 0u64..300, lanes in 0usize..5,
                                             nrounds in 0usize..6) {
        let log = synthetic_log(seed, lanes, nrounds);
        let back = TraceLog::from_jsonl(&log.to_jsonl());
        prop_assert_eq!(back.as_ref(), Ok(&log), "JSONL roundtrip");
        prop_assert!(log.conforms(&back.unwrap()).is_ok());
    }

    #[test]
    fn event_labels_roundtrip_any_index(idx in 0usize..1_000_000) {
        for ev in [
            FaultEvent::EdgeDown(EdgeId::new(idx)),
            FaultEvent::EdgeUp(EdgeId::new(idx)),
            FaultEvent::Crash(NodeId::new(idx)),
            FaultEvent::Recover(NodeId::new(idx)),
        ] {
            prop_assert_eq!(trace::parse_event(&trace::event_label(&ev)), Ok(ev));
        }
    }

    #[test]
    fn recorded_faulted_runs_roundtrip_and_self_conform(seed in 0u64..60, n in 6usize..20) {
        // A real recorded run whose plan exercises all four event kinds.
        let g = generators::gnp_connected(n, 0.3, seed);
        let e = EdgeId::new(seed as usize % g.m());
        let v = NodeId::new(1 + seed as usize % (n - 1));
        let response = if seed % 2 == 0 {
            FaultResponse::Restart
        } else {
            FaultResponse::SelfHeal
        };
        let plan = FaultPlan::new(response)
            .at(0, FaultEvent::Crash(v))
            .at(0, FaultEvent::EdgeDown(e))
            .at(2, FaultEvent::Recover(v))
            .at(3, FaultEvent::EdgeUp(e));
        prop_assert!(plan.validate(&g).is_ok());
        let opts = RunOptions {
            seed,
            faults: Some(plan),
            ..RunOptions::default()
        };
        let (run, trace) = record_bcongest(&MinFlood, &g, None, &opts, "prop/min-flood")
            .expect("faulted recorded run");
        prop_assert_eq!(TraceMetrics::from(&run.metrics), trace.metrics.clone());
        let back = TraceLog::from_jsonl(&trace.to_jsonl()).expect("parse");
        prop_assert_eq!(&back, &trace);
        prop_assert!(trace.conforms(&back).is_ok());
        // With everything recovered, the flood must still elect the global min.
        prop_assert!(run.outputs.iter().all(|&o| o == 0));
    }
}
