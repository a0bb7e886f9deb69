//! Replayable execution traces: per-round recording of fault events and
//! message deliveries, with a JSONL codec, DOT rendering, and a structural
//! conformance check.
//!
//! [`record_bcongest`] wraps the observed runner and captures every
//! delivered message (packed into its [`WireEncode`] `u32` lanes, whose width
//! is also its byte charge), every fault event that fired, the final outputs
//! (as their canonical `Debug` rendering) and the full [`Metrics`] including
//! the congestion vector. The resulting
//! [`TraceLog`] is a value: two runs conform iff their logs are `==`.
//!
//! The JSONL codec ([`TraceLog::to_jsonl`] / [`TraceLog::from_jsonl`]) is
//! hand-rolled like every other serialization in this workspace and
//! round-trips exactly (property-tested in `crates/engine/tests`). Replay —
//! re-executing the workload named in the header under the recorded executor
//! configuration and asserting the fresh log equals the recorded one — lives
//! in `congest-workloads`, which owns the name → workload registry.

use crate::faults::{FaultEvent, FaultPlan, SurvivorMask};
use crate::metrics::Metrics;
use crate::{BcongestAlgorithm, BcongestRun, EngineError, ExecutorConfig, RunOptions, WireEncode};
use congest_graph::dot::{self, DotOptions, EdgeStyle};
use congest_graph::{EdgeId, Graph, NodeId};

/// One delivered message: receiver, sender, and the packed `u32` lanes of the
/// payload (exactly `Msg::LANES` of them, as [`WireEncode`] writes them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDelivery {
    /// Receiving node id.
    pub to: u32,
    /// Sending node id.
    pub from: u32,
    /// Packed payload lanes.
    pub lanes: Vec<u32>,
}

/// Everything that happened in one recorded round that had any activity:
/// fault events applied at its start, then the messages delivered at its end
/// (in the deterministic (receiver, sender) delivery order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRound {
    /// Round number (0-based).
    pub round: usize,
    /// Fault events applied at the start of this round.
    pub faults: Vec<FaultEvent>,
    /// Messages delivered at the end of this round.
    pub deliveries: Vec<TraceDelivery>,
}

/// A plain-data mirror of [`Metrics`] (the congestion vector made public) so
/// traces can be compared and serialized field by field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMetrics {
    /// Synchronous rounds.
    pub rounds: u64,
    /// CONGEST messages (words).
    pub messages: u64,
    /// BCONGEST broadcast operations.
    pub broadcasts: u64,
    /// Implementation payload bytes.
    pub payload_bytes: u64,
    /// Messages dropped by fault injection.
    pub dropped_messages: u64,
    /// Per-edge congestion, indexed by [`EdgeId`].
    pub congestion: Vec<u64>,
}

impl From<&Metrics> for TraceMetrics {
    fn from(m: &Metrics) -> Self {
        Self {
            rounds: m.rounds,
            messages: m.messages,
            broadcasts: m.broadcasts,
            payload_bytes: m.payload_bytes,
            dropped_messages: m.dropped_messages,
            congestion: m.congestion().to_vec(),
        }
    }
}

/// A complete recorded execution: header (what ran, where, under which
/// executor configuration), the per-round event/delivery log, and the final
/// outputs + metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceLog {
    /// Workload/scenario name (a `congest-workloads` registry name for
    /// replayable traces).
    pub workload: String,
    /// `"bcongest"` (a direct run's per-round trace) or `"composite"`
    /// (outcome-level trace of a multi-phase workload with no single runner
    /// loop).
    pub kind: String,
    /// Node count of the graph the run executed on.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Executor threads.
    pub threads: usize,
    /// `u32` lanes per message of the run's message type.
    pub lanes: usize,
    /// Fault-response label: `"none"`, `"restart"` or `"self-heal"`.
    pub response: String,
    /// Rounds with any recorded activity, ascending.
    pub rounds: Vec<TraceRound>,
    /// Canonical `Debug` rendering of the per-node output vector.
    pub output: String,
    /// Final metrics (congestion vector included).
    pub metrics: TraceMetrics,
}

impl TraceLog {
    /// An outcome-level trace for a workload that is not a single runner loop
    /// (multi-phase compositions): header + outputs + metrics, empty rounds.
    pub fn composite(
        workload: &str,
        g: &Graph,
        seed: u64,
        cfg: &ExecutorConfig,
        output: String,
        metrics: &Metrics,
    ) -> Self {
        Self {
            workload: workload.to_string(),
            kind: "composite".to_string(),
            n: g.n(),
            m: g.m(),
            seed,
            threads: cfg.threads,
            lanes: 0,
            response: "none".to_string(),
            rounds: Vec::new(),
            output,
            metrics: TraceMetrics::from(metrics),
        }
    }

    /// Reconstructs the executor configuration the trace was recorded under.
    pub fn exec_config(&self) -> ExecutorConfig {
        ExecutorConfig::with_threads(self.threads)
    }

    /// Serializes to JSONL: a header line, one line per recorded round, and a
    /// footer line with outputs + metrics. [`TraceLog::from_jsonl`] is the
    /// exact inverse.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"workload\":{},\"kind\":{},\"n\":{},\"m\":{},\"seed\":{},\"threads\":{},\
             \"lanes\":{},\"response\":{}}}\n",
            json_str(&self.workload),
            json_str(&self.kind),
            self.n,
            self.m,
            self.seed,
            self.threads,
            self.lanes,
            json_str(&self.response),
        ));
        for r in &self.rounds {
            let faults: Vec<String> = r.faults.iter().map(|e| json_str(&event_label(e))).collect();
            let deliveries: Vec<String> = r
                .deliveries
                .iter()
                .map(|d| {
                    let mut nums = vec![d.to.to_string(), d.from.to_string()];
                    nums.extend(d.lanes.iter().map(u32::to_string));
                    format!("[{}]", nums.join(","))
                })
                .collect();
            out.push_str(&format!(
                "{{\"round\":{},\"faults\":[{}],\"deliveries\":[{}]}}\n",
                r.round,
                faults.join(","),
                deliveries.join(","),
            ));
        }
        let congestion: Vec<String> = self.metrics.congestion.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "{{\"output\":{},\"rounds\":{},\"messages\":{},\"broadcasts\":{},\
             \"payload_bytes\":{},\"dropped\":{},\"congestion\":[{}]}}\n",
            json_str(&self.output),
            self.metrics.rounds,
            self.metrics.messages,
            self.metrics.broadcasts,
            self.metrics.payload_bytes,
            self.metrics.dropped_messages,
            congestion.join(","),
        ));
        out
    }

    /// Parses a trace serialized by [`TraceLog::to_jsonl`]. Keys the header
    /// does not need are ignored, so traces written when the header also
    /// named a delivery backend and a message plane still load.
    pub fn from_jsonl(s: &str) -> Result<Self, String> {
        let mut lines = s.lines().filter(|l| !l.trim().is_empty());
        let header = parse_object(lines.next().ok_or("empty trace")?)?;
        let lanes = get_u64(&header, "lanes")? as usize;
        let mut rounds = Vec::new();
        let mut footer = None;
        for line in lines {
            let obj = parse_object(line)?;
            if lookup(&obj, "round").is_some() {
                let faults = get_arr(&obj, "faults")?
                    .iter()
                    .map(|j| parse_event(j.as_str()?))
                    .collect::<Result<Vec<_>, _>>()?;
                let deliveries = get_arr(&obj, "deliveries")?
                    .iter()
                    .map(|j| {
                        let nums = j.as_arr()?;
                        if nums.len() != 2 + lanes {
                            return Err(format!(
                                "delivery has {} fields, expected {}",
                                nums.len(),
                                2 + lanes
                            ));
                        }
                        let mut it = nums.iter().map(Json::as_u64);
                        Ok(TraceDelivery {
                            to: it.next().unwrap()? as u32,
                            from: it.next().unwrap()? as u32,
                            lanes: it
                                .map(|v| v.map(|x| x as u32))
                                .collect::<Result<Vec<_>, _>>()?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                rounds.push(TraceRound {
                    round: get_u64(&obj, "round")? as usize,
                    faults,
                    deliveries,
                });
            } else {
                footer = Some(obj);
            }
        }
        let footer = footer.ok_or("missing footer line")?;
        Ok(Self {
            workload: get_str(&header, "workload")?,
            kind: get_str(&header, "kind")?,
            n: get_u64(&header, "n")? as usize,
            m: get_u64(&header, "m")? as usize,
            seed: get_u64(&header, "seed")?,
            threads: get_u64(&header, "threads")? as usize,
            lanes,
            response: get_str(&header, "response")?,
            rounds,
            output: get_str(&footer, "output")?,
            metrics: TraceMetrics {
                rounds: get_u64(&footer, "rounds")?,
                messages: get_u64(&footer, "messages")?,
                broadcasts: get_u64(&footer, "broadcasts")?,
                payload_bytes: get_u64(&footer, "payload_bytes")?,
                dropped_messages: get_u64(&footer, "dropped")?,
                congestion: get_arr(&footer, "congestion")?
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Result<Vec<_>, _>>()?,
            },
        })
    }

    /// Renders the post-fault topology as GraphViz DOT: crashed nodes grouped
    /// (and colored) separately, unusable edges dashed.
    pub fn to_dot(&self, g: &Graph) -> String {
        assert_eq!((g.n(), g.m()), (self.n, self.m), "graph mismatch");
        let mut mask = SurvivorMask::all_up(g);
        for round in &self.rounds {
            for &ev in &round.faults {
                mask.apply(ev);
            }
        }
        let edge_style: Vec<EdgeStyle> = (0..g.m())
            .map(|i| {
                if mask.allows(g, EdgeId::new(i)) {
                    EdgeStyle::Plain
                } else {
                    EdgeStyle::Dashed
                }
            })
            .collect();
        let cluster_of: Vec<usize> = mask
            .node_up
            .iter()
            .map(|&up| if up { 0 } else { 1 })
            .collect();
        dot::to_dot(
            g,
            &DotOptions {
                cluster_of: Some(cluster_of),
                edge_style: Some(edge_style),
                label: Some(format!(
                    "{} — {} rounds, {} messages, {} dropped",
                    self.workload,
                    self.metrics.rounds,
                    self.metrics.messages,
                    self.metrics.dropped_messages
                )),
            },
        )
    }

    /// Structural conformance: `Ok(())` iff the logs are identical, otherwise
    /// a description of the first divergence (for test failure messages).
    pub fn conforms(&self, other: &TraceLog) -> Result<(), String> {
        if self == other {
            return Ok(());
        }
        let header = |t: &TraceLog| {
            (
                t.workload.clone(),
                t.kind.clone(),
                t.n,
                t.m,
                t.seed,
                t.threads,
                t.lanes,
                t.response.clone(),
            )
        };
        if header(self) != header(other) {
            return Err(format!(
                "header mismatch: {:?} vs {:?}",
                header(self),
                header(other)
            ));
        }
        if self.rounds.len() != other.rounds.len() {
            return Err(format!(
                "round count mismatch: {} vs {}",
                self.rounds.len(),
                other.rounds.len()
            ));
        }
        for (a, b) in self.rounds.iter().zip(&other.rounds) {
            if a != b {
                return Err(format!("round {} diverges: {a:?} vs {b:?}", a.round));
            }
        }
        if self.output != other.output {
            return Err(format!(
                "output mismatch: {} vs {}",
                self.output, other.output
            ));
        }
        Err(format!(
            "metrics mismatch: {:?} vs {:?}",
            self.metrics, other.metrics
        ))
    }
}

/// Stable string form of a fault event (`"crash:V"`, `"recover:V"`,
/// `"edge-down:E"`, `"edge-up:E"`); [`parse_event`] is the inverse.
pub fn event_label(ev: &FaultEvent) -> String {
    match ev {
        FaultEvent::EdgeDown(e) => format!("edge-down:{}", e.index()),
        FaultEvent::EdgeUp(e) => format!("edge-up:{}", e.index()),
        FaultEvent::Crash(v) => format!("crash:{}", v.index()),
        FaultEvent::Recover(v) => format!("recover:{}", v.index()),
    }
}

/// Parses an [`event_label`] string.
pub fn parse_event(s: &str) -> Result<FaultEvent, String> {
    let (tag, idx) = s
        .split_once(':')
        .ok_or_else(|| format!("malformed fault event {s:?}"))?;
    let idx: usize = idx
        .parse()
        .map_err(|e| format!("bad index in fault event {s:?}: {e}"))?;
    match tag {
        "edge-down" => Ok(FaultEvent::EdgeDown(EdgeId::new(idx))),
        "edge-up" => Ok(FaultEvent::EdgeUp(EdgeId::new(idx))),
        "crash" => Ok(FaultEvent::Crash(NodeId::new(idx))),
        "recover" => Ok(FaultEvent::Recover(NodeId::new(idx))),
        _ => Err(format!("unknown fault event tag {tag:?}")),
    }
}

fn response_label(plan: Option<&FaultPlan>) -> String {
    match plan {
        None => "none".to_string(),
        Some(p) => match p.response {
            crate::FaultResponse::Restart => "restart".to_string(),
            crate::FaultResponse::SelfHeal => "self-heal".to_string(),
        },
    }
}

/// Merges the captured `(round, delivery)` stream with the plan's fault
/// schedule (events fire iff their round actually executed) into the sorted
/// per-round log.
fn assemble_rounds(
    deliveries: Vec<(usize, TraceDelivery)>,
    plan: Option<&FaultPlan>,
    total_rounds: u64,
) -> Vec<TraceRound> {
    use std::collections::BTreeMap;
    let mut map: BTreeMap<usize, TraceRound> = BTreeMap::new();
    let entry = |map: &mut BTreeMap<usize, TraceRound>, r: usize| {
        map.entry(r).or_insert_with(|| TraceRound {
            round: r,
            faults: Vec::new(),
            deliveries: Vec::new(),
        });
    };
    if let Some(plan) = plan {
        for &(r, ev) in &plan.schedule {
            if (r as u64) < total_rounds {
                entry(&mut map, r);
                map.get_mut(&r).unwrap().faults.push(ev);
            }
        }
    }
    for (r, d) in deliveries {
        entry(&mut map, r);
        map.get_mut(&r).unwrap().deliveries.push(d);
    }
    map.into_values().collect()
}

fn encode_inbox<M: WireEncode>(
    sink: &mut Vec<(usize, TraceDelivery)>,
    to: NodeId,
    round: usize,
    inbox: &[(NodeId, M)],
) {
    for (from, msg) in inbox {
        let mut lanes = vec![0u32; M::LANES];
        msg.encode(&mut lanes);
        sink.push((
            round,
            TraceDelivery {
                to: to.raw(),
                from: from.raw(),
                lanes,
            },
        ));
    }
}

/// Runs `algo` via [`crate::run_bcongest_observed`] and records the full
/// trace alongside the run result.
pub fn record_bcongest<A: BcongestAlgorithm>(
    algo: &A,
    g: &Graph,
    weights: Option<&[u64]>,
    opts: &RunOptions,
    workload: &str,
) -> Result<(BcongestRun<A::Output>, TraceLog), EngineError> {
    let mut captured: Vec<(usize, TraceDelivery)> = Vec::new();
    let run = crate::run_bcongest_observed(algo, g, weights, opts, |to, round, inbox| {
        encode_inbox(&mut captured, to, round, inbox)
    })?;
    let trace = TraceLog {
        workload: workload.to_string(),
        kind: "bcongest".to_string(),
        n: g.n(),
        m: g.m(),
        seed: opts.seed,
        threads: opts.exec.threads,
        lanes: A::Msg::LANES,
        response: response_label(opts.faults.as_ref()),
        rounds: assemble_rounds(captured, opts.faults.as_ref(), run.metrics.rounds),
        output: format!("{:?}", run.outputs),
        metrics: TraceMetrics::from(&run.metrics),
    };
    Ok((run, trace))
}

// ---------------------------------------------------------------------------
// Minimal JSON reader for the trace codec (objects, arrays, strings, unsigned
// integers — exactly what the writer emits; integers stay in u64 so 64-bit
// seeds round-trip losslessly).

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(v) => Ok(*v),
            other => Err(format!("expected number, got {other:?}")),
        }
    }
    fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }
    fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(c), self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected token {other:?} at byte {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            entries.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(entries));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let s = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
        let mut chars = s.char_indices();
        while let Some((off, c)) = chars.next() {
            match c {
                '"' => {
                    self.i += off + 1;
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars.next().ok_or("dangling escape")?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                                code = code * 16 + h.to_digit(16).ok_or("bad hex in \\u escape")?;
                            }
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        self.ws();
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<u64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number: {e}"))
    }
}

fn parse_object(line: &str) -> Result<Vec<(String, Json)>, String> {
    let mut p = Parser {
        b: line.as_bytes(),
        i: 0,
    };
    let v = p.object()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes after object at {}", p.i));
    }
    match v {
        Json::Obj(entries) => Ok(entries),
        _ => unreachable!("object() returns Json::Obj"),
    }
}

fn lookup<'j>(obj: &'j [(String, Json)], key: &str) -> Option<&'j Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    lookup(obj, key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_u64()
}

fn get_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    Ok(lookup(obj, key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_str()?
        .to_string())
}

fn get_arr<'j>(obj: &'j [(String, Json)], key: &str) -> Result<&'j [Json], String> {
    lookup(obj, key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_arr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultResponse;
    use crate::LocalView;
    use congest_graph::generators;

    /// Every node broadcasts its id once; outputs the min neighbor id seen.
    struct MinNeighbor;
    #[derive(Clone, Debug)]
    struct St {
        me: u32,
        best: u32,
        sent: bool,
    }
    impl BcongestAlgorithm for MinNeighbor {
        type State = St;
        type Msg = u32;
        type Output = u32;
        fn name(&self) -> &'static str {
            "min-neighbor"
        }
        fn init(&self, v: &LocalView<'_>) -> St {
            St {
                me: v.node().raw(),
                best: u32::MAX,
                sent: false,
            }
        }
        fn broadcast(&self, s: &St, _r: usize) -> Option<u32> {
            (!s.sent).then_some(s.me)
        }
        fn on_broadcast_sent(&self, s: &mut St, _r: usize) {
            s.sent = true;
        }
        fn receive(&self, s: &mut St, _r: usize, msgs: &[(NodeId, u32)]) {
            for &(_, m) in msgs {
                s.best = s.best.min(m);
            }
        }
        fn is_done(&self, s: &St) -> bool {
            s.sent
        }
        fn output(&self, s: &St) -> u32 {
            s.best
        }
        fn round_bound(&self, _n: usize, _m: usize) -> usize {
            1
        }
        fn output_words(&self, _o: &u32) -> usize {
            1
        }
    }

    fn faulty_opts() -> RunOptions {
        RunOptions {
            faults: Some(
                FaultPlan::new(FaultResponse::Restart).at(0, FaultEvent::EdgeDown(EdgeId::new(0))),
            ),
            ..RunOptions::default()
        }
    }

    #[test]
    fn recorded_trace_roundtrips_through_jsonl() {
        let g = generators::path(4);
        let (run, trace) =
            record_bcongest(&MinNeighbor, &g, None, &faulty_opts(), "test/min-neighbor").unwrap();
        assert_eq!(trace.kind, "bcongest");
        assert_eq!(trace.response, "restart");
        assert_eq!(
            trace.metrics.dropped_messages, 2,
            "both directions of edge 0"
        );
        assert_eq!(trace.metrics, TraceMetrics::from(&run.metrics));
        assert!(trace.rounds[0].faults.len() == 1, "edge-down recorded");
        let back = TraceLog::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(trace, back);
        back.conforms(&trace).unwrap();
    }

    #[test]
    fn conforms_reports_the_first_divergence() {
        let g = generators::path(4);
        let (_, trace) =
            record_bcongest(&MinNeighbor, &g, None, &faulty_opts(), "test/min-neighbor").unwrap();
        let mut mutated = trace.clone();
        mutated.metrics.messages += 1;
        let err = trace.conforms(&mutated).unwrap_err();
        assert!(err.contains("metrics mismatch"), "got {err}");
        let mut relabeled = trace.clone();
        relabeled.threads = 9;
        assert!(trace.conforms(&relabeled).unwrap_err().contains("header"));
    }

    #[test]
    fn event_labels_roundtrip() {
        for ev in [
            FaultEvent::EdgeDown(EdgeId::new(3)),
            FaultEvent::EdgeUp(EdgeId::new(0)),
            FaultEvent::Crash(NodeId::new(17)),
            FaultEvent::Recover(NodeId::new(17)),
        ] {
            assert_eq!(parse_event(&event_label(&ev)).unwrap(), ev);
        }
        assert!(parse_event("frobnicate:1").is_err());
    }

    #[test]
    fn exec_config_reconstructs_the_recorded_thread_count() {
        let g = generators::cycle(5);
        let opts = RunOptions {
            exec: ExecutorConfig::with_threads(2),
            ..RunOptions::default()
        };
        let (_, trace) = record_bcongest(&MinNeighbor, &g, None, &opts, "test/cell").unwrap();
        assert_eq!(trace.exec_config(), opts.exec);
    }

    #[test]
    fn dot_render_dashes_faulted_topology() {
        let g = generators::path(4);
        let plan = FaultPlan::new(FaultResponse::Restart)
            .at(0, FaultEvent::Crash(NodeId::new(3)))
            .at(0, FaultEvent::EdgeDown(EdgeId::new(0)));
        let opts = RunOptions {
            faults: Some(plan),
            ..RunOptions::default()
        };
        let (_, trace) = record_bcongest(&MinNeighbor, &g, None, &opts, "test/dot").unwrap();
        let dot = trace.to_dot(&g);
        assert!(dot.contains("style=dashed"), "downed edge dashed:\n{dot}");
        assert!(dot.contains("subgraph cluster_1"), "crashed node grouped");
        assert!(dot.contains("test/dot"));
    }
}
