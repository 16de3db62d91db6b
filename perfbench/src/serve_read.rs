//! `serve_read`: one registered √n-truncated graph (n = 1500), read by a
//! fixed request mix over 2 connections — a closed loop, then an open loop
//! at 500 req/s timed from each request's scheduled send.
//!
//! The mix is `List` and `Count` for each paper-optimal pair under both
//! `paper` and `adaptive`, one unpinned `List`, `ModelPredict`,
//! `ExplainPlan` and `Stats`. After warm-up every prepare is a cache hit,
//! so the protocol, the event loop, admission and per-request pricing
//! carry the time.

use crate::batch::PAIRS;
use crate::stats::{median, Latencies};
use crate::trace::{self, Tracer};
use crate::wire::{self, Sample, STEP};
use crate::{inputs, Cfg, Results};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trilist_core::{list_resilient_src, GraphSource, KernelPolicy, Method};
use trilist_graph::dist::Truncation;
use trilist_graph::Graph;
use trilist_order::OrderingKind;
use trilist_serve::{
    prepare_graph, prepare_seed_for, GraphStore, ListParams, Request, Response, StoreConfig,
};

const GRAPH: &str = "read";
const N: usize = 1_500;
const CONNS: usize = 2;
/// About a quarter of the mix's closed-loop throughput on a 2-core host
/// (≈2k req/s), so a slow spell on a shared host does not tip the open
/// loop into an unbounded queue.
const OPEN_RATE: f64 = 500.0;

/// One request shape of the mix.
#[derive(Clone, Debug)]
enum Shape {
    List(Method, OrderingKind, KernelPolicy),
    Count(Method, OrderingKind, KernelPolicy),
    Unpinned,
    Predict(Method, OrderingKind),
    Explain,
    Stats,
}

impl Shape {
    fn mix() -> Vec<Shape> {
        let mut out = Vec::new();
        for policy in [KernelPolicy::PaperFaithful, KernelPolicy::adaptive()] {
            for (method, family) in PAIRS {
                out.push(Shape::List(method, family.into(), policy));
                out.push(Shape::Count(method, family.into(), policy));
            }
        }
        out.push(Shape::Unpinned);
        out.push(Shape::Predict(Method::E1, OrderingKind::Family(PAIRS[2].1)));
        out.push(Shape::Explain);
        out.push(Shape::Stats);
        out
    }

    fn kind(&self) -> &'static str {
        match self {
            Shape::List(..) | Shape::Unpinned => "list",
            Shape::Count(..) => "count",
            Shape::Predict(..) => "predict",
            Shape::Explain => "explain",
            Shape::Stats => "stats",
        }
    }

    fn request(&self) -> Request {
        let params = |m: &Method, o: &OrderingKind, p: &KernelPolicy| {
            ListParams::new(GRAPH, m.name(), o.name(), p.name())
        };
        match self {
            Shape::List(m, o, p) => Request::List(params(m, o, p)),
            Shape::Count(m, o, p) => Request::Count(params(m, o, p)),
            Shape::Unpinned => Request::List(ListParams::new(GRAPH, "", "", "")),
            Shape::Predict(m, o) => Request::ModelPredict {
                graph: GRAPH.into(),
                method: m.name().into(),
                family: o.name().into(),
            },
            Shape::Explain => Request::ExplainPlan {
                graph: GRAPH.into(),
            },
            Shape::Stats => Request::Stats,
        }
    }
}

/// Whether a response is a success of the shape's kind.
fn well_formed(shape: &Shape, resp: &Response) -> bool {
    match (shape, resp) {
        (Shape::List(..) | Shape::Unpinned, Response::ListResult(r))
        | (Shape::Count(..), Response::CountResult(r)) => r.complete,
        (Shape::Predict(..), Response::Predicted { .. })
        | (Shape::Explain, Response::PlanResult(_))
        | (Shape::Stats, Response::StatsResult(_)) => true,
        _ => false,
    }
}

/// What must agree across responses of one shape: everything except
/// whether the prepared graph came from cache. Stats counters move.
fn comparable(resp: &Response) -> Option<Response> {
    match resp {
        Response::ListResult(r) => Some(Response::ListResult(trilist_serve::RunResult {
            cache_hit: true,
            ..r.clone()
        })),
        Response::CountResult(r) => Some(Response::CountResult(trilist_serve::RunResult {
            cache_hit: true,
            ..r.clone()
        })),
        Response::StatsResult(_) => None,
        other => Some(other.clone()),
    }
}

/// Shared state of one run's load generators.
struct Load<'a> {
    addr: &'a str,
    shapes: &'a [Shape],
    /// First response of each shape, which every later one must equal.
    first: Mutex<HashMap<usize, Response>>,
    mismatches: Mutex<Vec<String>>,
    failed: AtomicU64,
    /// Replay target for traced requests.
    store: Arc<GraphStore>,
    origin: Instant,
}

impl Load<'_> {
    /// Issues request `i` and checks the response; returns the round trip
    /// and the response.
    fn issue(&self, client: &mut trilist_serve::Client, i: u64) -> (f64, Response) {
        let shape = &self.shapes[(i % self.shapes.len() as u64) as usize];
        let req = shape.request();
        let t0 = Instant::now();
        let resp = client.call(&req).unwrap_or_else(|e| {
            Response::Error(trilist_serve::ErrorFrame::new(
                trilist_serve::ErrorCode::Internal,
                format!("transport: {e}"),
            ))
        });
        let rtt = t0.elapsed().as_secs_f64();
        self.check(i, shape, &resp);
        (rtt, resp)
    }

    fn check(&self, i: u64, shape: &Shape, resp: &Response) {
        let idx = (i % self.shapes.len() as u64) as usize;
        let mut problem = None;
        if !well_formed(shape, resp) {
            problem = Some(format!("request {i} ({shape:?}) answered {resp:?}"));
        } else if let Some(mine) = comparable(resp) {
            let mut first = self.first.lock().expect("first-response map");
            match first.get(&idx) {
                Some(seen) if *seen != mine => {
                    problem = Some(format!(
                        "request {i} ({shape:?}) differs from the first of its shape"
                    ));
                }
                Some(_) => {}
                None => {
                    first.insert(idx, mine);
                }
            }
        }
        if let Some(p) = problem {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut m = self.mismatches.lock().expect("mismatch list");
            if m.len() < 20 {
                m.push(p);
            }
        }
    }

    /// Replays the server's steps for traced request `i` in-process.
    fn replay(&self, tr: &mut Tracer, i: u64, resp: &Response) -> u64 {
        let shape = &self.shapes[(i % self.shapes.len() as u64) as usize];
        let store = &*self.store;
        let resolve = |tr: &mut Tracer| {
            let plan = tr.time(&format!("{STEP}plan"), None, i, || {
                store.listing_plan(GRAPH).expect("replay graph").plan
            });
            (plan.method_hint, plan.ordering, plan.policy)
        };
        let listing = match shape {
            Shape::List(m, o, p) => Some((*m, *o, *p, true)),
            Shape::Count(m, o, p) => Some((*m, *o, *p, false)),
            Shape::Unpinned => {
                let (m, o, p) = resolve(tr);
                Some((m, o, p, true))
            }
            Shape::Predict(m, o) => {
                let prepared = wire::replay_prepare(tr, i, store, GRAPH, *o, None);
                tr.time(&format!("{STEP}price"), None, i, || {
                    trilist_model::price_request(*m, &prepared.degrees_by_label)
                });
                None
            }
            Shape::Explain => {
                resolve(tr);
                None
            }
            Shape::Stats => None,
        };
        if let Some((method, ordering, policy, materialize)) = listing {
            let prepared = wire::replay_prepare(tr, i, store, GRAPH, ordering, None);
            tr.time(&format!("{STEP}price"), None, i, || {
                trilist_model::price_request(method, &prepared.degrees_by_label)
            });
            let opts = wire::server_opts(method, policy, &prepared, store.gauge());
            let outcome = tr.time(&format!("{STEP}list"), None, i, || {
                list_resilient_src(GraphSource::Plain(&prepared.dg), method, &opts)
                    .expect("fundamental method")
            });
            std::hint::black_box(wire::run_result(&prepared, outcome, materialize));
        }
        wire::replay_codec(tr, i, shape.kind(), &shape.request(), resp)
    }
}

/// The in-process answer for a listing shape: `prepare_graph` with the
/// store's seeding, then `list_resilient_src` with the server's options.
fn reference(
    g: &Graph,
    method: Method,
    ordering: OrderingKind,
    policy: KernelPolicy,
) -> trilist_serve::RunResult {
    let seed = prepare_seed_for(StoreConfig::default().prepare_seed, GRAPH, ordering.name());
    let prepared = prepare_graph(g, ordering, seed);
    let gauge = trilist_core::MemoryGauge::new();
    let opts = wire::server_opts(method, policy, &prepared, &gauge);
    let outcome = list_resilient_src(GraphSource::Plain(&prepared.dg), method, &opts)
        .expect("fundamental method");
    wire::run_result(&prepared, outcome, true)
}

/// Checks each shape's first response against the in-process run.
fn check_reference(
    res: &mut Results,
    g: &Graph,
    shapes: &[Shape],
    first: &HashMap<usize, Response>,
) {
    let plan = match first.values().find_map(|r| match r {
        Response::PlanResult(p) => Some(p.clone()),
        _ => None,
    }) {
        Some(p) => p,
        None => {
            res.check(false, || {
                "no ExplainPlan response to resolve the unpinned List".into()
            });
            return;
        }
    };
    for (idx, shape) in shapes.iter().enumerate() {
        let Some(got) = first.get(&idx) else { continue };
        let (method, ordering, policy, list) = match shape {
            Shape::List(m, o, p) => (*m, *o, *p, true),
            Shape::Count(m, o, p) => (*m, *o, *p, false),
            Shape::Unpinned => (
                Method::from_name(&plan.method).expect("plan names a method"),
                OrderingKind::from_name(&plan.ordering).expect("plan names an ordering"),
                KernelPolicy::from_name(&plan.policy).expect("plan names a policy"),
                true,
            ),
            Shape::Predict(m, o) => {
                let seed = prepare_seed_for(StoreConfig::default().prepare_seed, GRAPH, o.name());
                let prepared = prepare_graph(g, *o, seed);
                let price = trilist_model::price_request(*m, &prepared.degrees_by_label);
                let want = Response::Predicted {
                    per_node: price.per_node,
                    total_ops: price.total_ops,
                    n: price.n,
                };
                let ok = res.check(*got == want, || {
                    format!("{shape:?}: wire {got:?}, in-process {want:?}")
                });
                res.op(ok);
                continue;
            }
            _ => continue,
        };
        let want = reference(g, method, ordering, policy);
        let (cost, triangles) = match got {
            Response::ListResult(r) | Response::CountResult(r) => (r.cost, &r.triangles),
            _ => continue,
        };
        let tri_ok = !list || *triangles == want.triangles;
        let ok = res.check(cost == want.cost && tri_ok, || {
            format!(
                "{shape:?}: wire cost {cost:?} / {} triangles, in-process {:?} / {}",
                triangles.len(),
                want.cost,
                want.triangles.len()
            )
        });
        res.op(ok);
    }
}

/// A closed loop over `CONNS` connections for `seconds`; traced requests
/// are replayed in-process after their response.
fn closed_loop(
    load: &Load,
    seconds: f64,
    traced: bool,
    next: &AtomicU64,
) -> (Vec<Sample>, Vec<trace::Span>, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let parts: Vec<(Vec<Sample>, Vec<trace::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = trilist_serve::Client::connect(load.addr).expect("connect");
                    let mut tr = if traced {
                        Tracer::on(load.origin)
                    } else {
                        Tracer::off()
                    };
                    let mut samples = Vec::new();
                    while Instant::now() < end {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (rtt_s, resp) = load.issue(&mut client, i);
                        let kind = load.shapes[(i % load.shapes.len() as u64) as usize].kind();
                        let frame_bytes = if traced {
                            load.replay(&mut tr, i, &resp)
                        } else {
                            0
                        };
                        samples.push(Sample {
                            kind,
                            id: i,
                            rtt_s,
                            frame_bytes,
                        });
                    }
                    (samples, tr.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (samples, spans): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    (
        samples.into_iter().flatten().collect(),
        trace::merge(spans),
        elapsed,
    )
}

/// What the open loop measured, per request, in seconds.
struct Open {
    /// From the scheduled send to the response.
    from_due: Vec<f64>,
    /// From the actual send to the response.
    rtt: Vec<f64>,
    /// How late the generator sent.
    late: Vec<f64>,
}

/// An open loop at `OPEN_RATE` for `seconds`: arrival `k` is due at
/// `start + k / rate`.
fn open_loop(load: &Load, seconds: f64, next: &AtomicU64) -> Open {
    let base = next.load(Ordering::Relaxed);
    let arrivals = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let total = (seconds * OPEN_RATE) as u64;
    let parts: Vec<Open> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = trilist_serve::Client::connect(load.addr).expect("connect");
                    let mut out = Open {
                        from_due: Vec::new(),
                        rtt: Vec::new(),
                        late: Vec::new(),
                    };
                    loop {
                        let k = arrivals.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            return out;
                        }
                        let due = start + Duration::from_secs_f64(k as f64 / OPEN_RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        out.late
                            .push(Instant::now().saturating_duration_since(due).as_secs_f64());
                        let (rtt, _) = load.issue(&mut client, base + k);
                        out.rtt.push(rtt);
                        out.from_due.push(due.elapsed().as_secs_f64());
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    next.fetch_add(total, Ordering::Relaxed);
    let mut all = Open {
        from_due: Vec::new(),
        rtt: Vec::new(),
        late: Vec::new(),
    };
    for part in parts {
        all.from_due.extend(part.from_due);
        all.rtt.extend(part.rtt);
        all.late.extend(part.late);
    }
    all
}

pub fn run(cfg: &Cfg) -> Results {
    let mut res = Results::default();
    let shapes = Shape::mix();
    let (mut setup, mut gen, mut register) = (Vec::new(), Vec::new(), Vec::new());
    let mut live = None;
    for i in 0..crate::SETUPS {
        let t0 = if i == 0 { cfg.start } else { Instant::now() };
        let tg = Instant::now();
        let g = inputs::pareto_graph(N, Truncation::Root, cfg.seed);
        gen.push(tg.elapsed().as_secs_f64());
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut served = wire::serve(GRAPH, g.n(), &edges);
        register.push(served.register_s);
        // warm-up: every shape once, so each ordering is prepared and the
        // plan is cached before anything is timed
        for shape in &shapes {
            let resp = served
                .admin
                .call(&shape.request())
                .expect("warm-up request");
            assert!(
                well_formed(shape, &resp),
                "warm-up {shape:?} answered {resp:?}"
            );
        }
        setup.push(t0.elapsed().as_secs_f64());
        if let Some((old, _, _)) = live.replace((served, g, edges)) {
            wire::Served::stop(old);
        }
    }
    let (mut served, g, edges) = live.expect("at least one set-up");
    res.note(format!(
        "graph: n = {}, m = {}, max degree = {}",
        g.n(),
        g.m(),
        g.max_degree()
    ));

    let addr = served.addr.clone();
    let load = Load {
        addr: &addr,
        shapes: &shapes,
        first: Mutex::new(HashMap::new()),
        mismatches: Mutex::new(Vec::new()),
        failed: AtomicU64::new(0),
        store: wire::replay_store(GRAPH, g.n(), &edges),
        origin: cfg.start,
    };
    let next = AtomicU64::new(0);
    let before = served.stats();
    let third = cfg.seconds / 3.0;
    let (closed, traced, open_s) = if cfg.trace {
        let (c, _, e) = closed_loop(&load, third, false, &next);
        let traced = closed_loop(&load, third, true, &next);
        ((c, e), Some(traced), third)
    } else {
        let (c, _, e) = closed_loop(&load, cfg.seconds / 2.0, false, &next);
        ((c, e), None, cfg.seconds / 2.0)
    };
    let open = open_loop(&load, open_s, &next);
    let after = served.stats();

    let attempted = next.load(Ordering::Relaxed);
    let failed = load.failed.load(Ordering::Relaxed);
    res.attempted += attempted;
    res.failed += failed;
    res.mismatches
        .extend(load.mismatches.lock().expect("mismatch list").drain(..));
    let first = load.first.lock().expect("first-response map").clone();
    check_reference(&mut res, &g, &shapes, &first);

    let (samples, elapsed) = closed;
    let lat = Latencies::new(samples.iter().map(|s| s.rtt_s).collect());
    let late = open.late;
    let open_rtt = Latencies::new(open.rtt);
    let open = Latencies::new(open.from_due);
    res.put("setup_s", median(setup), "s");
    res.put("rps", samples.len() as f64 / elapsed, "req/s");
    res.put("p50_ms", lat.ms(0.5), "ms");
    res.put("p90_ms", lat.ms(0.9), "ms");
    res.put("p99_ms", lat.ms(0.99), "ms");
    res.put("open_p50_ms", open.ms(0.5), "ms");
    res.put("open_p99_ms", open.ms(0.99), "ms");
    // the server's share of the open-loop latency: from the actual send,
    // so the generator's wake-up lateness on a busy host is left out
    res.put("open_rtt_p50_ms", open_rtt.ms(0.5), "ms");
    res.note(format!(
        "closed loop: {} requests, p99 {}",
        lat.len(),
        lat.tail_note(0.99)
    ));
    res.note(format!(
        "open loop at {OPEN_RATE} req/s: {} requests, p99 {}",
        open.len(),
        open.tail_note(0.99)
    ));

    if let Some((traced_samples, spans, _)) = traced {
        res.put("graph.gen_s", median(gen), "s");
        res.put("graph.register_s", median(register), "s");
        res.put(
            "model.price_s",
            trace::median_span_seconds(&spans, &format!("{STEP}price")),
            "s",
        );
        res.put(
            "serve.store.prepare_hit_s",
            trace::median_span_seconds(&spans, &format!("{STEP}prepare_hit")),
            "s",
        );
        res.put(
            "serve.store.prepare_miss_s",
            trace::median_span_seconds(&spans, &format!("{STEP}prepare_miss")),
            "s",
        );
        wire::per_kind(&mut res, &spans, &traced_samples);
        wire::stats_layers(&mut res, &before, &after);
        res.put("serve.client.late_ms", median(late) * 1e3, "ms");
        let traced_p50 = median(traced_samples.iter().map(|s| s.rtt_s).collect());
        res.put("trace.overhead", traced_p50 / lat.median(), "ratio");
        res.spans = spans;
    }
    served.stop();
    res
}
