//! Shared pieces of the serve workloads: server set-up, Stats deltas, and
//! the in-process replay of the steps the server runs for a request.
//!
//! The replay re-runs, through the same public calls the server makes,
//! the codec, `GraphStore::prepare`, `price_request` and
//! `list_resilient_src` for a traced request, on a `GraphStore` the
//! benchmark owns. A request's round trip minus its replayed steps is the
//! residual: the event loop, admission queue and socket cost.

use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use crate::Results;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use trilist_core::{
    KernelPolicy, MemoryGauge, Method, ParallelOpts, ResilientOpts, RunBudget, RunOutcome,
};
use trilist_serve::{
    decode_frame, encode_frame, Client, GraphStore, Prepared, Request, Response, RunResult,
    ServeConfig, Server, ServerHandle, StoreConfig,
};

/// Prefix of the spans that replay a server step; the residual subtracts
/// exactly these from the round trip.
pub const STEP: &str = "step.";

/// A server on loopback with one registered graph.
pub struct Served {
    pub server: ServerHandle,
    pub addr: String,
    /// The connection that registered the graph; also reads Stats.
    pub admin: Client,
    pub register_s: f64,
}

/// Binds a server with `ServeConfig::default()` and registers `edges`
/// under `name`.
pub fn serve(name: &str, n: usize, edges: &[(u32, u32)]) -> Served {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback server");
    let addr = server.addr().to_string();
    let mut admin = Client::connect(addr.as_str()).expect("connect to loopback server");
    let t0 = Instant::now();
    admin
        .register_graph(name, n as u32, edges)
        .expect("register graph");
    let register_s = t0.elapsed().as_secs_f64();
    Served {
        server,
        addr,
        admin,
        register_s,
    }
}

impl Served {
    pub fn stats(&mut self) -> HashMap<String, u64> {
        self.admin.stats().expect("stats").into_iter().collect()
    }

    /// Drains the server and waits for its threads.
    pub fn stop(mut self) {
        let _ = self.admin.shutdown();
        self.server.join();
    }
}

/// A store mirroring the server's, owned by the benchmark for replays.
pub fn replay_store(name: &str, n: usize, edges: &[(u32, u32)]) -> Arc<GraphStore> {
    let store = GraphStore::new(StoreConfig::default(), MemoryGauge::new());
    store
        .register(name, n as u32, edges)
        .expect("register replay graph");
    Arc::new(store)
}

/// The options the server lists a `List`/`Count` with under
/// `ServeConfig::default()`: its worker count, its serve-sized chunks, the
/// entry's shared oracle for T-methods, and the entry's kernel context when
/// the request asks for the policy it was built under.
pub fn server_opts(
    method: Method,
    policy: KernelPolicy,
    prepared: &Prepared,
    gauge: &MemoryGauge,
) -> ResilientOpts {
    ResilientOpts {
        parallel: ParallelOpts {
            threads: ServeConfig::default().workers,
            policy,
            target_chunk_ops: 32_768,
        },
        budget: RunBudget::unlimited().with_gauge(gauge.clone()),
        oracle: matches!(method, Method::T1 | Method::T2).then(|| Arc::clone(&prepared.oracle)),
        kernels: (policy == prepared.kernels.policy()
            && !matches!(policy, KernelPolicy::PaperFaithful))
        .then(|| Arc::clone(&prepared.kernels)),
        ..ResilientOpts::default()
    }
}

/// Maps a label triple back to sorted original node IDs.
pub fn original(inverse: &[u32], (x, y, z): (u32, u32, u32)) -> (u32, u32, u32) {
    let mut t = [
        inverse[x as usize],
        inverse[y as usize],
        inverse[z as usize],
    ];
    t.sort_unstable();
    (t[0], t[1], t[2])
}

/// The wire result the server builds from a complete in-process run.
pub fn run_result(prepared: &Prepared, outcome: RunOutcome, materialize: bool) -> RunResult {
    let RunOutcome::Complete(run) = outcome else {
        panic!("an unbudgeted run completes");
    };
    RunResult {
        complete: true,
        stop_reason: String::new(),
        cache_hit: true,
        cost: run.cost,
        resume: String::new(),
        chunks: if materialize {
            run.piece_counts
        } else {
            vec![]
        },
        triangles: if materialize {
            run.triangles
                .iter()
                .map(|&t| original(&prepared.inverse, t))
                .collect()
        } else {
            vec![]
        },
    }
}

/// Replays the codec of one exchange: the client encodes the request,
/// the server decodes it, encodes the response, the client decodes it.
/// Returns the bytes of both frames.
pub fn replay_codec(tr: &mut Tracer, id: u64, kind: &str, req: &Request, resp: &Response) -> u64 {
    let name = format!("{STEP}codec.{kind}");
    let frame = tr.time(&name, None, id, || encode_frame(req.kind(), &req.payload()));
    tr.time(&name, None, id, || {
        let (k, body) = decode_frame(&frame).expect("own frame decodes");
        Request::decode(k, body).expect("own request decodes")
    });
    let back = tr.time(&name, None, id, || {
        encode_frame(resp.kind(), &resp.payload())
    });
    tr.time(&name, None, id, || {
        let (k, body) = decode_frame(&back).expect("own frame decodes");
        Response::decode(k, body).expect("own response decodes")
    });
    (frame.len() + back.len()) as u64
}

/// Times `GraphStore::prepare_at`, naming the span by hit or miss.
pub fn replay_prepare(
    tr: &mut Tracer,
    id: u64,
    store: &GraphStore,
    graph: &str,
    ordering: trilist_order::OrderingKind,
    epoch: Option<u64>,
) -> Arc<Prepared> {
    let t0 = Instant::now();
    let (prepared, hit, _) = store
        .prepare_at(graph, ordering, epoch)
        .expect("replay store has the graph and epoch");
    let name = if hit { "prepare_hit" } else { "prepare_miss" };
    tr.record(&format!("{STEP}{name}"), None, id, t0, Instant::now());
    prepared
}

/// One measured request: its kind, id and round-trip time.
pub struct Sample {
    pub kind: &'static str,
    pub id: u64,
    pub rtt_s: f64,
    /// Request plus response frame bytes (traced requests only).
    pub frame_bytes: u64,
}

/// Per-kind round trip, residual, codec time and frame bytes of the
/// traced requests.
pub fn per_kind(res: &mut Results, spans: &[Span], samples: &[Sample]) {
    let mut steps: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with(STEP)) {
        *steps.entry(s.request).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
    }
    let mut by_kind: BTreeMap<&str, Vec<&Sample>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.frame_bytes > 0) {
        by_kind.entry(s.kind).or_default().push(s);
    }
    for (kind, group) in by_kind {
        let rtt: Vec<f64> = group.iter().map(|s| s.rtt_s).collect();
        let residual: Vec<f64> = group
            .iter()
            .map(|s| s.rtt_s - steps.get(&s.id).copied().unwrap_or(0.0))
            .collect();
        let bytes: Vec<f64> = group.iter().map(|s| s.frame_bytes as f64).collect();
        res.put(format!("serve.client.rtt_s.{kind}"), median(rtt), "s");
        res.put(format!("serve.residual_s.{kind}"), median(residual), "s");
        res.put(
            format!("serve.protocol.frame_bytes.{kind}"),
            median(bytes),
            "bytes",
        );
        let codec = trace::median_seconds(spans, &format!("{STEP}codec.{kind}"));
        res.put(format!("serve.protocol.codec_s.{kind}"), codec, "s");
    }
}

/// Store and admission layer metrics from the Stats deltas over a run,
/// and the gauge reconciliation at rest.
pub fn stats_layers(
    res: &mut Results,
    before: &HashMap<String, u64>,
    after: &HashMap<String, u64>,
) {
    let get = |m: &HashMap<String, u64>, k: &str| {
        *m.get(k).unwrap_or_else(|| panic!("Stats has no field {k}")) as f64
    };
    let delta = |k: &str| get(after, k) - get(before, k);
    let sum = |keys: &[&str]| keys.iter().map(|k| delta(k)).sum::<f64>();
    res.put(
        "serve.admission.admitted",
        delta("admission_admitted"),
        "count",
    );
    res.put("serve.admission.queued", delta("admission_queued"), "count");
    res.put(
        "serve.admission.rejected",
        sum(&["admission_rejected_busy", "admission_rejected_cost"]),
        "count",
    );
    res.put(
        "serve.admission.degraded",
        sum(&[
            "admission_degraded_policy",
            "admission_degraded_deadline",
            "admission_degraded_evict",
        ]),
        "count",
    );
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    res.put(
        "serve.store.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    const MIB: f64 = 1024.0 * 1024.0;
    res.put(
        "serve.store.gauge_mb",
        get(after, "gauge_bytes") / MIB,
        "MiB",
    );
    res.put(
        "serve.store.delta_mb",
        get(after, "delta_bytes") / MIB,
        "MiB",
    );
    res.put("serve.store.compactions", delta("compactions"), "count");
    let accounted: f64 = ["cache_bytes", "delta_bytes", "segment_bytes", "plan_bytes"]
        .iter()
        .map(|k| get(after, k))
        .sum();
    res.put(
        "serve.store.gauge_gap_bytes",
        get(after, "gauge_bytes") - accounted,
        "bytes",
    );
}
