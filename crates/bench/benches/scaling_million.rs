//! Scaling study — million-scale enumeration (DESIGN.md §15).
//!
//! The point of the compact arena, bitmap frontiers, and recycled scratch
//! buffers is that graph size stops being the limiting factor: a 10⁶-person
//! SNB graph (3 × 10⁶ nodes, 7 × 10⁶ edges) must stream into a CSR, and the
//! lazy PMR must enumerate over it at a throughput independent of the node
//! count. Four families, each at 10⁵ and 10⁶ persons:
//!
//! * `stream_knows_csr` — [`pathalg_graph::generator::snb::snb_label_csr`]:
//!   generator → CSR with no intermediate property graph;
//! * `walk2_count100k` — lazy PMR drain of the first 10⁵ bounded walks
//!   (compact arena + recycled level buffers, no path reconstruction);
//! * `shortest2_count100k` — the same drain under Shortest (adds the bitmap
//!   visited set and the lazily-built distance table per source);
//! * `likes_creator_count100k` — the 2-hop `Likes/Has_creator` join
//!   expansion (per-parent boundary buffers of the join machinery).
//!
//! The count drains are capped at 10⁵ emits: enumeration work is bounded by
//! the cap, so the ids measure steady-state per-path cost while the graph
//! behind them scales 10×. The full graphs are built once per size outside
//! the timing loops; `PATHALG_BENCH_MAX_MS` caps each measurement window
//! (a routine slower than the window still reports its single iteration).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathalg_bench::snb_csr;
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_graph::csr::CsrGraph;
use pathalg_pmr::Pmr;
use std::sync::Arc;
use std::time::Duration;

const SIZES: [usize; 2] = [100_000, 1_000_000];
const DRAIN: usize = 100_000;

fn two_hop() -> RecursionConfig {
    RecursionConfig {
        max_length: Some(2),
        max_paths: None,
    }
}

fn count_csr(csr: &Arc<[CsrGraph]>, semantics: PathSemantics) -> usize {
    let mut pmr = Pmr::from_hops(Arc::clone(csr), semantics, two_hop());
    pmr.count_batch(DRAIN).unwrap()
}

fn bench_stream_csr(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_million/stream_knows_csr");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(50));
    for n in SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| snb_csr(n, "Knows").edge_count())
        });
    }
    group.finish();
}

fn bench_lazy_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_million/lazy_count");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(50));
    for n in SIZES {
        let knows: Arc<[CsrGraph]> = Arc::from(vec![snb_csr(n, "Knows")]);
        group.bench_with_input(BenchmarkId::new("walk2_count100k", n), &knows, |b, csr| {
            b.iter(|| count_csr(csr, PathSemantics::Walk))
        });
        group.bench_with_input(
            BenchmarkId::new("shortest2_count100k", n),
            &knows,
            |b, csr| b.iter(|| count_csr(csr, PathSemantics::Shortest)),
        );
    }
    group.finish();
}

fn bench_join_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_million/join_count");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(50));
    for n in SIZES {
        let hops: Arc<[CsrGraph]> = vec![snb_csr(n, "Likes"), snb_csr(n, "Has_creator")].into();
        group.bench_with_input(
            BenchmarkId::new("likes_creator_count100k", n),
            &hops,
            |b, hops| {
                b.iter(|| {
                    let mut pmr = Pmr::from_hops(Arc::clone(hops), PathSemantics::Walk, two_hop());
                    pmr.count_batch(DRAIN).unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_stream_csr,
    bench_lazy_counts,
    bench_join_counts
);
criterion_main!(benches);
