//! `serve_edit`: one registered √n-truncated graph (n = 10⁴) under a
//! steady edit stream. A writer connection streams 64-edge `AddEdges`
//! batches and removes each two batches later; a reader connection lists
//! the new triangles from its last read to the latest epoch
//! (`ListNewTriangles` to `DeltaParams::LATEST`, one request since no
//! deadline is set), then runs a `Count` E1/desc/adaptive at the latest
//! epoch.
//!
//! Every new epoch misses the prepared cache, prepares run under the
//! store lock that edits also take, and each edit re-materializes the
//! graph. The server's compactor runs beside the load.

use crate::stats::{median, Latencies};
use crate::trace::{self, Tracer};
use crate::wire::{self, Sample, STEP};
use crate::{inputs, Cfg, Results};
use inputs::Edit;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trilist_core::{list_new_triangles_src, DeltaOpts, GraphSource, KernelPolicy, Method};
use trilist_graph::dist::Truncation;
use trilist_order::{DirectedGraph, OrderFamily, OrderingKind};
use trilist_serve::{
    Client, DeltaParams, DeltaRunResult, GraphStore, ListParams, Request, Response, ServeConfig,
};

const GRAPH: &str = "edit";
/// At n = 2·10⁴ the process held about 600 MiB and a run's count p50
/// moved by 20% between seeds; at 10⁴ it holds about 170 MiB and fits
/// twice the requests.
const N: usize = 10_000;

fn count_params() -> ListParams {
    ListParams::new(GRAPH, "E1", "desc", "adaptive")
}

/// One reader window: `(from, to, triangles)` as the wire returned them.
type Window = (u64, u64, Vec<(u32, u32, u32)>);

/// What the reader measured.
#[derive(Default)]
struct Reads {
    samples: Vec<Sample>,
    windows: Vec<Window>,
    /// Operations of each replayed delta run (traced runs only).
    delta_ops: Vec<f64>,
    spans: Vec<trace::Span>,
}

/// The edits sent so far and the stream edges they leave in the graph.
#[derive(Default)]
struct Log {
    edits: Vec<Edit>,
    stream_edges: u64,
}

struct Shared<'a> {
    addr: &'a str,
    store: Arc<GraphStore>,
    origin: Instant,
    base_m: u64,
    /// Latest epoch the writer has seen acknowledged.
    acked: AtomicU64,
    /// End of the reader's last window.
    read_to: AtomicU64,
    stop: AtomicBool,
    /// Every edit sent, in epoch order (edit `i` creates epoch `i + 1`).
    log: Mutex<Log>,
    failed: AtomicU64,
    mismatches: Mutex<Vec<String>>,
}

impl Shared<'_> {
    fn fail(&self, what: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut m = self.mismatches.lock().expect("mismatch list");
        if m.len() < 20 {
            m.push(what);
        }
    }
}

/// Writer: streams edits until stopped; returns its samples and spans.
fn writer(
    sh: &Shared,
    stream: &mut inputs::EditStream,
    traced: bool,
    ids: &AtomicU64,
) -> (Vec<Sample>, Vec<trace::Span>) {
    let mut client = Client::connect(sh.addr).expect("connect writer");
    let mut tr = if traced {
        Tracer::on(sh.origin)
    } else {
        Tracer::off()
    };
    let mut samples = Vec::new();
    while !sh.stop.load(Ordering::Relaxed) {
        let edit = stream.next_edit();
        let (kind, req) = match &edit {
            Edit::Add(b) => (
                "add_edges",
                Request::AddEdges {
                    graph: GRAPH.into(),
                    edges: b.clone(),
                },
            ),
            Edit::Remove(b) => (
                "remove_edges",
                Request::RemoveEdges {
                    graph: GRAPH.into(),
                    edges: b.clone(),
                },
            ),
        };
        let id = ids.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let resp = client.call(&req);
        let rtt_s = t0.elapsed().as_secs_f64();
        if traced {
            replay_edit(&mut tr, id, sh.store.as_ref(), &edit);
        }
        let mut log = sh.log.lock().expect("edit log");
        match &edit {
            Edit::Add(b) => log.stream_edges += b.len() as u64,
            Edit::Remove(b) => log.stream_edges -= b.len() as u64,
        }
        log.edits.push(edit);
        let (epoch, m) = (log.edits.len() as u64, sh.base_m + log.stream_edges);
        drop(log);
        match resp {
            Ok(Response::EditResult(info)) if info.epoch == epoch && info.m == m => {
                let frame_bytes = if traced {
                    wire::replay_codec(&mut tr, id, kind, &req, &Response::EditResult(info))
                } else {
                    0
                };
                samples.push(Sample {
                    kind,
                    id,
                    rtt_s,
                    frame_bytes,
                });
                sh.acked.store(epoch, Ordering::SeqCst);
            }
            other => {
                sh.fail(format!(
                    "edit {epoch}: expected epoch {epoch} and m = {m}, got {other:?}"
                ));
                // the server's epochs no longer match the log: stop editing
                sh.stop.store(true, Ordering::SeqCst);
            }
        }
    }
    (samples, tr.into_spans())
}

/// Replays one edit on the benchmark's store, and times the
/// re-materialization the store performs inside it.
fn replay_edit(tr: &mut Tracer, id: u64, store: &GraphStore, edit: &Edit) {
    let current = store.graph(GRAPH).expect("replay graph");
    let (edges, insert) = match edit {
        Edit::Add(b) => (b, true),
        Edit::Remove(b) => (b, false),
    };
    tr.time("extra.materialize", None, id, || {
        let present = |u, v| current.has_edge(u, v);
        let run = if insert {
            trilist_core::DeltaRun::insert_batch(current.n(), edges, present)
        } else {
            trilist_core::DeltaRun::remove_batch(current.n(), edges, present)
        }
        .expect("stream edits are valid");
        trilist_core::materialize(&current, std::iter::once(&run))
    });
    tr.time(&format!("{STEP}edit"), None, id, || {
        if insert {
            store.add_edges(GRAPH, edges)
        } else {
            store.remove_edges(GRAPH, edges)
        }
        .expect("replay edit applies")
    });
}

/// Reader: windows since the last read, then a count at the latest epoch.
fn reader(sh: &Shared, traced: bool, ids: &AtomicU64) -> Reads {
    let mut client = Client::connect(sh.addr).expect("connect reader");
    let mut tr = if traced {
        Tracer::on(sh.origin)
    } else {
        Tracer::off()
    };
    let mut out = Reads::default();
    let mut last = sh.read_to.load(Ordering::SeqCst);
    while !sh.stop.load(Ordering::Relaxed) {
        if sh.acked.load(Ordering::SeqCst) == last {
            // nothing new since the last window
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let id = ids.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let window = client.list_new(DeltaParams::new(GRAPH, last, DeltaParams::LATEST));
        let rtt_s = t0.elapsed().as_secs_f64();
        match window {
            // no deadline is set, so a window completes in one request
            Ok(w) if w.result.complete => {
                let to = w.to_epoch;
                let frame_bytes = if traced && replay_caught_up(sh.store.as_ref(), to) {
                    let params = DeltaParams::new(GRAPH, last, to);
                    let (bytes, ops) = replay_delta(&mut tr, id, sh.store.as_ref(), &params, &w);
                    out.delta_ops.push(ops as f64);
                    bytes
                } else {
                    0
                };
                out.samples.push(Sample {
                    kind: "list_new",
                    id,
                    rtt_s,
                    frame_bytes,
                });
                out.windows.push((last, to, w.result.triangles));
                last = to;
            }
            other => sh.fail(format!("window from {last}: {other:?}")),
        }

        let id = ids.fetch_add(1, Ordering::Relaxed);
        let req = Request::Count(count_params());
        let t0 = Instant::now();
        let resp = client.call(&req);
        let rtt_s = t0.elapsed().as_secs_f64();
        match resp {
            Ok(Response::CountResult(r)) if r.complete => {
                let frame_bytes = if traced {
                    replay_count(&mut tr, id, sh.store.as_ref());
                    wire::replay_codec(&mut tr, id, "count", &req, &Response::CountResult(r))
                } else {
                    0
                };
                out.samples.push(Sample {
                    kind: "count",
                    id,
                    rtt_s,
                    frame_bytes,
                });
            }
            other => sh.fail(format!("count after window ..{last}: {other:?}")),
        }
    }
    sh.read_to.store(last, Ordering::SeqCst);
    out.spans = tr.into_spans();
    out
}

/// Waits (up to a second) until the replay store holds `epoch`; the
/// writer replays each edit after the server acknowledged it.
fn replay_caught_up(store: &GraphStore, epoch: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    while store.latest_epoch(GRAPH).expect("replay graph") < epoch {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Replays the server's `ListNewTriangles` steps for window `params`;
/// returns the frame bytes and the delta run's operations.
fn replay_delta(
    tr: &mut Tracer,
    id: u64,
    store: &GraphStore,
    params: &DeltaParams,
    wire_result: &DeltaRunResult,
) -> (u64, u64) {
    let (from, to) = (params.from_epoch, params.to_epoch);
    let (net_new, _) = tr.time(&format!("{STEP}delta_edges"), None, id, || {
        store.delta_edges(GRAPH, from, to).expect("replay window")
    });
    let ordering = OrderingKind::Family(OrderFamily::Descending);
    let prepared = wire::replay_prepare(tr, id, store, GRAPH, ordering, Some(to));
    // the relabel and orient a prepare miss runs, timed on their own
    let graph = store.graph_at(GRAPH, Some(to)).expect("replay epoch");
    let relabeling = tr.time("extra.relabel", None, id, || {
        OrderFamily::Descending.relabeling(&graph, &mut StdRng::seed_from_u64(0))
    });
    tr.time("extra.orient", None, id, || {
        DirectedGraph::orient(&graph, &relabeling)
    });

    let mut forward = vec![0u32; prepared.inverse.len()];
    for (label, &orig) in prepared.inverse.iter().enumerate() {
        forward[orig as usize] = label as u32;
    }
    let mut label_edges: Vec<(u32, u32)> = net_new
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (forward[u as usize], forward[v as usize]);
            (a.min(b), a.max(b))
        })
        .collect();
    label_edges.sort_unstable();
    tr.time(&format!("{STEP}price"), None, id, || {
        trilist_model::price_delta(&prepared.degrees_by_label, &label_edges)
    });
    let opts = DeltaOpts {
        threads: ServeConfig::default().workers,
        ..DeltaOpts::default()
    };
    let outcome = tr.time(&format!("{STEP}delta"), None, id, || {
        list_new_triangles_src(
            GraphSource::Plain(&prepared.dg),
            &prepared.kernels,
            &label_edges,
            &opts,
        )
    });
    let req = Request::ListNewTriangles(params.clone());
    let resp = Response::NewTrianglesResult(wire_result.clone());
    let bytes = wire::replay_codec(tr, id, "list_new", &req, &resp);
    (bytes, outcome.cost().operations())
}

/// Replays the server's steps for the reader's `Count` at the latest epoch.
fn replay_count(tr: &mut Tracer, id: u64, store: &GraphStore) {
    let ordering = OrderingKind::Family(OrderFamily::Descending);
    let prepared = wire::replay_prepare(tr, id, store, GRAPH, ordering, None);
    let method = Method::E1;
    tr.time(&format!("{STEP}price"), None, id, || {
        trilist_model::price_request(method, &prepared.degrees_by_label)
    });
    let opts = wire::server_opts(method, KernelPolicy::adaptive(), &prepared, store.gauge());
    let outcome = tr.time(&format!("{STEP}list"), None, id, || {
        trilist_core::list_resilient_src(GraphSource::Plain(&prepared.dg), method, &opts)
            .expect("fundamental method")
    });
    std::hint::black_box(wire::run_result(&prepared, outcome, false));
}

/// One load phase: the writer and the reader for `seconds`.
struct Phase {
    edits: Vec<Sample>,
    reads: Reads,
    spans: Vec<trace::Span>,
    elapsed: f64,
}

fn phase(
    sh: &Shared,
    stream: &mut inputs::EditStream,
    seconds: f64,
    traced: bool,
    ids: &AtomicU64,
) -> Phase {
    sh.stop.store(false, Ordering::SeqCst);
    let start = Instant::now();
    let (edits, reads) = std::thread::scope(|scope| {
        let w = scope.spawn(|| writer(sh, stream, traced, ids));
        let r = scope.spawn(|| reader(sh, traced, ids));
        let end = start + Duration::from_secs_f64(seconds);
        while Instant::now() < end && !sh.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        sh.stop.store(true, Ordering::SeqCst);
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    let elapsed = start.elapsed().as_secs_f64();
    let ((edits, writer_spans), mut reads) = (edits, reads);
    let spans = trace::merge(vec![writer_spans, std::mem::take(&mut reads.spans)]);
    Phase {
        edits,
        reads,
        spans,
        elapsed,
    }
}

pub fn run(cfg: &Cfg) -> Results {
    let mut res = Results::default();
    let (mut setup, mut gen, mut register) = (Vec::new(), Vec::new(), Vec::new());
    let mut live = None;
    for i in 0..crate::SETUPS {
        let t0 = if i == 0 { cfg.start } else { Instant::now() };
        let tg = Instant::now();
        let g = inputs::pareto_graph(N, Truncation::Root, cfg.seed);
        gen.push(tg.elapsed().as_secs_f64());
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let stream = inputs::EditStream::new(&g, cfg.seed);
        let mut served = wire::serve(GRAPH, g.n(), &edges);
        register.push(served.register_s);
        // warm-up: the reader's count prepares epoch 0
        let resp = served
            .admin
            .call(&Request::Count(count_params()))
            .expect("warm-up count");
        assert!(
            matches!(resp, Response::CountResult(_)),
            "warm-up count answered {resp:?}"
        );
        setup.push(t0.elapsed().as_secs_f64());
        if let Some((old, _, _, _)) = live.replace((served, g, edges, stream)) {
            wire::Served::stop(old);
        }
    }
    let (mut served, g, edges, mut stream) = live.expect("at least one set-up");
    res.note(format!(
        "graph: n = {}, m = {}, max degree = {}",
        g.n(),
        g.m(),
        g.max_degree()
    ));

    let addr = served.addr.clone();
    let sh = Shared {
        addr: &addr,
        store: wire::replay_store(GRAPH, g.n(), &edges),
        origin: cfg.start,
        base_m: g.m() as u64,
        acked: AtomicU64::new(0),
        read_to: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        log: Mutex::new(Log::default()),
        failed: AtomicU64::new(0),
        mismatches: Mutex::new(Vec::new()),
    };
    let ids = AtomicU64::new(0);
    let before = served.stats();
    // A traced run traces its first half (the replay store must see every
    // edit from epoch 0) and times the second as the overhead baseline.
    let (timed, traced) = if cfg.trace {
        let traced = phase(&sh, &mut stream, cfg.seconds / 2.0, true, &ids);
        (
            phase(&sh, &mut stream, cfg.seconds / 2.0, false, &ids),
            Some(traced),
        )
    } else {
        (phase(&sh, &mut stream, cfg.seconds, false, &ids), None)
    };
    let after = served.stats();

    // every window against the edge-set model
    let edits = std::mem::take(&mut sh.log.lock().expect("edit log").edits);
    let phases: Vec<&Phase> = traced.iter().chain([&timed]).collect();
    for p in &phases {
        for (a, b, got) in &p.reads.windows {
            let mut got = got.clone();
            got.sort_unstable();
            let want = inputs::new_triangles(&g, &edits, *a as usize, *b as usize);
            let ok = res.check(got == want, || {
                format!(
                    "window {a}..{b}: wire {} triangles, model {}",
                    got.len(),
                    want.len()
                )
            });
            res.op(ok);
        }
    }
    let requests: u64 = phases
        .iter()
        .map(|p| (p.edits.len() + p.reads.samples.len()) as u64)
        .sum();
    let failed = sh.failed.load(Ordering::Relaxed);
    res.attempted += requests + failed;
    res.failed += failed;
    res.mismatches
        .extend(sh.mismatches.lock().expect("mismatch list").drain(..));

    let kind = |p: &Phase, k: &str| -> Latencies {
        let all = p.edits.iter().chain(&p.reads.samples);
        Latencies::new(
            all.filter(|s| k.contains(s.kind))
                .map(|s| s.rtt_s)
                .collect(),
        )
    };
    let edit = kind(&timed, "add_edges remove_edges");
    let delta = kind(&timed, "list_new");
    let read = kind(&timed, "count");
    res.put("setup_s", median(setup), "s");
    res.put(
        "rps",
        (timed.edits.len() + timed.reads.samples.len()) as f64 / timed.elapsed,
        "req/s",
    );
    res.put("edit_p50_ms", edit.ms(0.5), "ms");
    res.put("edit_p90_ms", edit.ms(0.9), "ms");
    res.put("delta_p50_ms", delta.ms(0.5), "ms");
    res.put("delta_p90_ms", delta.ms(0.9), "ms");
    res.put("read_p50_ms", read.ms(0.5), "ms");
    res.note(format!(
        "edits: {}, p90 {}",
        edit.len(),
        edit.tail_note(0.9)
    ));
    res.note(format!(
        "windows: {}, p90 {}",
        delta.len(),
        delta.tail_note(0.9)
    ));
    res.note(format!("reads: {}", read.len()));
    let triangles: usize = timed.reads.windows.iter().map(|w| w.2.len()).sum();
    res.note(format!(
        "new triangles per window: {:.1}",
        triangles as f64 / delta.len().max(1) as f64
    ));

    if let Some(traced) = traced {
        let spans = &traced.spans;
        res.put("graph.gen_s", median(gen), "s");
        res.put("graph.register_s", median(register), "s");
        res.put(
            "graph.materialize_s",
            trace::median_span_seconds(spans, "extra.materialize"),
            "s",
        );
        res.put(
            "order.relabel_s",
            trace::median_span_seconds(spans, "extra.relabel"),
            "s",
        );
        res.put(
            "order.orient_s",
            trace::median_span_seconds(spans, "extra.orient"),
            "s",
        );
        res.put(
            "core.delta_s",
            trace::median_span_seconds(spans, &format!("{STEP}delta")),
            "s",
        );
        res.put(
            "core.delta_ops",
            median(traced.reads.delta_ops.clone()),
            "count",
        );
        res.put(
            "model.price_s",
            trace::median_span_seconds(spans, &format!("{STEP}price")),
            "s",
        );
        for (metric, step) in [
            ("serve.store.prepare_hit_s", "prepare_hit"),
            ("serve.store.prepare_miss_s", "prepare_miss"),
            ("serve.store.edit_s", "edit"),
        ] {
            res.put(
                metric,
                trace::median_span_seconds(spans, &format!("{STEP}{step}")),
                "s",
            );
        }
        let samples: Vec<Sample> = traced
            .edits
            .into_iter()
            .chain(traced.reads.samples)
            .collect();
        wire::per_kind(&mut res, spans, &samples);
        wire::stats_layers(&mut res, &before, &after);
        let traced_edit = Latencies::new(
            samples
                .iter()
                .filter(|s| s.kind.ends_with("_edges"))
                .map(|s| s.rtt_s)
                .collect(),
        );
        res.put(
            "trace.overhead",
            traced_edit.median() / edit.median(),
            "ratio",
        );
        res.spans = traced.spans;
    }
    served.stop();
    res
}
