//! Property suite for the dynamic-graph layer (raised by the weekly
//! `PROPTEST_CASES` run):
//!
//! 1. **Per-batch order independence** — a [`DeltaRun`] normalizes its
//!    batch to canonical bytes, so any input ordering of the same edges
//!    produces identical runs, identical net windows, and identical
//!    materialized graphs — through insert, delete, and reinsert churn.
//! 2. **Epoch pins never leak** — the store's pin refcount gauge reads
//!    exactly the live guards and returns to zero when they drop, and the
//!    resting memory gauge equals the sum of the cache's own accounting
//!    (prepared bytes + plan bytes + delta bytes + segment bytes) — no
//!    charge survives its owner.
//! 3. **Compaction is observationally invisible** — a reader pinned to an
//!    epoch sees byte-identical graphs and byte-identical prepared
//!    artifacts before and after a forced compaction, even though the
//!    segment serving that epoch may have changed underneath.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use trilist::core::{materialize, net_changes, DeltaRun, MemoryGauge};
use trilist::graph::Graph;
use trilist::order::OrderFamily;
use trilist::serve::{GraphStore, StoreConfig};

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A reproducible G(n, p) edge list.
fn gnp_edges(n: u32, p: f64, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// `k` edges absent from `present`, in deterministic discovery order.
fn absent_edges(n: u32, present: &BTreeSet<(u32, u32)>, k: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    'outer: for u in 0..n {
        for v in (u + 1)..n {
            if !present.contains(&(u, v)) {
                out.push((u, v));
                if out.len() == k {
                    break 'outer;
                }
            }
        }
    }
    out
}

/// Three edit batches over `base` — insert, remove (half the inserts plus
/// base edges), reinsert (the removed base edges) — with every batch's
/// edge list permuted by `shuffle_seed` before validation. Returns the
/// runs plus the membership mirror after all three.
type Churn = (Vec<DeltaRun>, BTreeSet<(u32, u32)>);

fn churn_batches(base: &Graph, shuffle_seed: u64) -> Option<Churn> {
    let n = base.n();
    let mut present: BTreeSet<(u32, u32)> = base.edges().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);

    let fresh = absent_edges(n as u32, &present, 6);
    let base_victims: Vec<(u32, u32)> = present.iter().take(3).copied().collect();
    if fresh.len() < 2 || base_victims.is_empty() {
        return None; // dense or empty corner; nothing to churn
    }

    let mut runs = Vec::new();
    let mut batch = fresh.clone();
    batch.shuffle(&mut rng);
    let run = DeltaRun::insert_batch(n, &batch, |u, v| present.contains(&(u, v))).unwrap();
    present.extend(fresh.iter().copied());
    runs.push(run);

    let mut removal: Vec<(u32, u32)> = fresh[..fresh.len() / 2].to_vec();
    removal.extend(base_victims.iter().copied());
    removal.shuffle(&mut rng);
    let run = DeltaRun::remove_batch(n, &removal, |u, v| present.contains(&(u, v))).unwrap();
    for e in &removal {
        present.remove(e);
    }
    runs.push(run);

    let mut reinsert = base_victims.clone();
    reinsert.shuffle(&mut rng);
    let run = DeltaRun::insert_batch(n, &reinsert, |u, v| present.contains(&(u, v))).unwrap();
    present.extend(reinsert.iter().copied());
    runs.push(run);

    Some((runs, present))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    // Any two permutations of the same edit sequence produce identical
    // runs, identical net windows, and identical materialized graphs.
    #[test]
    fn per_batch_edit_order_is_irrelevant(
        n in 6u32..24,
        graph_seed in 0u64..1 << 48,
        shuffle_a in 0u64..1 << 48,
        shuffle_b in 0u64..1 << 48,
    ) {
        let base = Graph::from_edges(n as usize, &gnp_edges(n, 0.3, graph_seed)).unwrap();
        let (Some((runs_a, mirror_a)), Some((runs_b, mirror_b))) =
            (churn_batches(&base, shuffle_a), churn_batches(&base, shuffle_b))
        else {
            return Ok(());
        };
        // Normalization makes the runs byte-identical, not merely
        // equivalent.
        prop_assert_eq!(&runs_a, &runs_b);
        prop_assert_eq!(net_changes(runs_a.iter()), net_changes(runs_b.iter()));
        let mat_a: BTreeSet<(u32, u32)> = materialize(&base, runs_a.iter()).edges().collect();
        let mat_b: BTreeSet<(u32, u32)> = materialize(&base, runs_b.iter()).edges().collect();
        prop_assert_eq!(&mat_a, &mat_b);
        // And the materialization matches the membership mirror exactly.
        prop_assert_eq!(&mat_a, &mirror_a);
        prop_assert_eq!(&mat_b, &mirror_b);
    }

    // The linear materialize (merged lists streamed straight into CSR)
    // equals the edge-list path it replaced — `Graph::from_edges` of the
    // overlay's edge set — byte for byte after every run of a random
    // insert/remove sequence, including edges toggled more than once, and
    // so does walking back from the latest graph with inverted runs.
    #[test]
    fn materialize_equals_from_edges_of_the_overlay(
        n in 2u32..40,
        density in 0.0f64..0.6,
        graph_seed in 0u64..1 << 48,
        edit_seed in 0u64..1 << 48,
        runs in 1usize..10,
    ) {
        let base = Graph::from_edges(n as usize, &gnp_edges(n, density, graph_seed)).unwrap();
        let mut present: BTreeSet<(u32, u32)> = base.edges().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(edit_seed);
        let mut history = Vec::new();
        let mut epochs = vec![base.clone()];
        for _ in 0..runs {
            let insert = rng.gen_bool(0.5);
            let mut pool: Vec<(u32, u32)> = (0..n)
                .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
                .filter(|e| present.contains(e) != insert)
                .collect();
            if pool.is_empty() {
                continue;
            }
            pool.shuffle(&mut rng);
            pool.truncate(rng.gen_range(1..=pool.len().min(8)));
            let member = |u: u32, v: u32| present.contains(&(u.min(v), u.max(v)));
            let run = if insert {
                DeltaRun::insert_batch(n as usize, &pool, member)
            } else {
                DeltaRun::remove_batch(n as usize, &pool, member)
            }
            .unwrap();
            for e in &pool {
                if insert {
                    present.insert(*e);
                } else {
                    present.remove(e);
                }
            }
            history.push(run);
            let edges: Vec<(u32, u32)> = present.iter().copied().collect();
            let want = Graph::from_edges(n as usize, &edges).unwrap();
            prop_assert_eq!(materialize(&base, history.iter()), want.clone());
            epochs.push(want);
        }
        // Undoing the runs newest first walks the latest graph back
        // through every earlier epoch.
        let latest = epochs.last().expect("epoch 0 is the base");
        for (k, want) in epochs.iter().enumerate() {
            let undo: Vec<DeltaRun> = history[k..].iter().rev().map(DeltaRun::inverse).collect();
            prop_assert_eq!(&materialize(latest, undo.iter()), want);
        }
    }

    // Pin refcounts read exactly the live guards; once every guard (and
    // the store's own caches) is dropped, the resting gauge equals the
    // store's own accounting — nothing leaks.
    #[test]
    fn epoch_pins_and_gauge_charges_never_leak(
        n in 8u32..20,
        graph_seed in 0u64..1 << 48,
        pin_pattern in proptest::collection::vec(0u8..4, 1..6),
        compact_mid in 0u8..2,
    ) {
        let gauge = MemoryGauge::new();
        let store = GraphStore::new(StoreConfig::default(), gauge.clone());
        store.register("g", n, &gnp_edges(n, 0.3, graph_seed)).unwrap();
        let base: BTreeSet<(u32, u32)> = store.graph("g").unwrap().edges().collect();
        let adds = absent_edges(n, &base, 4);
        prop_assume!(adds.len() == 4);
        store.add_edges("g", &adds[..2]).unwrap();
        store.add_edges("g", &adds[2..]).unwrap();
        let victim = *base.iter().next().unwrap();
        store.remove_edges("g", &[victim]).unwrap();
        let latest = store.latest_epoch("g").unwrap();
        prop_assert_eq!(latest, 3);

        let pins: Vec<_> = pin_pattern
            .iter()
            .map(|&e| store.pin("g", Some(e as u64 % (latest + 1))).unwrap())
            .collect();
        prop_assert_eq!(store.stats().epoch_pins, pins.len() as u64);
        if compact_mid == 1 {
            store.compact_now("g").unwrap();
        }
        // A prepared entry and (under the default fixed mode) its plan
        // both charge the gauge; the invariant must hold with them live.
        store.prepare_at("g", OrderFamily::Descending, Some(1)).unwrap();
        prop_assert_eq!(store.stats().epoch_pins, pins.len() as u64);
        drop(pins);

        let stats = store.stats();
        prop_assert_eq!(stats.epoch_pins, 0);
        prop_assert_eq!(
            gauge.used(),
            stats.bytes + stats.plan_bytes + stats.delta_bytes + stats.segment_bytes
        );
    }

    // A pinned reader observes byte-identical artifacts across a forced
    // compaction: same materialized graph, same relabeling, same degree
    // table — the segment swap underneath is invisible.
    #[test]
    fn compaction_is_invisible_to_pinned_readers(
        n in 8u32..20,
        graph_seed in 0u64..1 << 48,
        pinned_epoch in 0u64..3,
    ) {
        // One cache slot, so the intervening prepare below evicts the
        // pinned-epoch entry and the post-compaction compare is against a
        // genuine rebuild, not a cache hit.
        let cfg = StoreConfig {
            max_entries: 1,
            ..StoreConfig::default()
        };
        let store = GraphStore::new(cfg, MemoryGauge::new());
        store.register("g", n, &gnp_edges(n, 0.3, graph_seed)).unwrap();
        let base: BTreeSet<(u32, u32)> = store.graph("g").unwrap().edges().collect();
        let adds = absent_edges(n, &base, 4);
        prop_assume!(adds.len() == 4 && base.len() >= 2);
        store.add_edges("g", &adds[..2]).unwrap();
        let victim = *base.iter().next().unwrap();
        store.remove_edges("g", &[victim]).unwrap();
        store.add_edges("g", &adds[2..]).unwrap();

        let _pin = store.pin("g", Some(pinned_epoch)).unwrap();
        let graph_before: BTreeSet<(u32, u32)> =
            store.graph_at("g", Some(pinned_epoch)).unwrap().edges().collect();
        let (prep_before, _, epoch) = store
            .prepare_at("g", OrderFamily::Descending, Some(pinned_epoch))
            .unwrap();
        prop_assert_eq!(epoch, pinned_epoch);

        let report = store.compact_now("g").unwrap();
        prop_assert!(report.compacted);

        let graph_after: BTreeSet<(u32, u32)> =
            store.graph_at("g", Some(pinned_epoch)).unwrap().edges().collect();
        prop_assert_eq!(&graph_before, &graph_after);
        // Flush the single cache slot, then rebuild at the pinned epoch
        // of the now-compacted store: the epoch-mixed prepare seed makes
        // the artifacts byte-identical no matter which segment served
        // the materialization.
        store.prepare_at("g", OrderFamily::Descending, None).unwrap();
        let (prep_after, hit, _) = store
            .prepare_at("g", OrderFamily::Descending, Some(pinned_epoch))
            .unwrap();
        prop_assert!(!hit, "the compare must exercise a rebuild");
        prop_assert_eq!(&prep_before.inverse, &prep_after.inverse);
        prop_assert_eq!(&prep_before.degrees_by_label, &prep_after.degrees_by_label);
        prop_assert_eq!(prep_before.plan, prep_after.plan);
    }
}
