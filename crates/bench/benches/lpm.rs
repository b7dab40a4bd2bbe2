//! FIB lookup throughput: the compiled DIR-24-8 table (scalar and
//! batched, as the ingress path issues it) vs binary trie vs the
//! linear reference, on a synthetic Internet-like table.
//! This is the LFE's hot path — and the cost a remote lookup (REQ_L)
//! adds is one of these plus two control packets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dra_net::addr::Ipv4Addr;
use dra_net::fib::{synthetic_routes, Dir248Fib, Fib, LinearFib, TrieFib};

fn build<F: Fib + Default>(routes: &[(dra_net::addr::Ipv4Prefix, u16)]) -> F {
    let mut fib = F::default();
    for &(p, nh) in routes {
        fib.insert(p, nh);
    }
    fib
}

fn probes(n: usize) -> Vec<Ipv4Addr> {
    let mut s = 0xBEEF_u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            Ipv4Addr(s as u32)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("lpm");
    let routes = synthetic_routes(10_000, 16, 42);
    let addrs = probes(1024);

    let trie: TrieFib = build(&routes);
    let linear: LinearFib = build(&routes);
    let dir: Dir248Fib = build(&routes);

    g.bench_function(BenchmarkId::new("lookup_1k", "dir248"), |b| {
        b.iter(|| {
            addrs
                .iter()
                .filter_map(|&a| dir.lookup(a))
                .map(u64::from)
                .sum::<u64>()
        })
    });
    let mut out = vec![None; addrs.len()];
    g.bench_function(BenchmarkId::new("lookup_1k", "dir248_batched"), |b| {
        b.iter(|| {
            dir.lookup_batch(&addrs, &mut out);
            out.iter().flatten().copied().map(u64::from).sum::<u64>()
        })
    });
    g.bench_function(BenchmarkId::new("lookup_1k", "trie"), |b| {
        b.iter(|| {
            addrs
                .iter()
                .filter_map(|&a| trie.lookup(a))
                .map(u64::from)
                .sum::<u64>()
        })
    });
    // The linear scan is O(routes); bench on fewer probes.
    let few = &addrs[..16];
    g.bench_function(BenchmarkId::new("lookup_16", "linear"), |b| {
        b.iter(|| {
            few.iter()
                .filter_map(|&a| linear.lookup(a))
                .map(u64::from)
                .sum::<u64>()
        })
    });

    g.bench_function("trie_build_10k", |b| {
        b.iter(|| build::<TrieFib>(&routes).len())
    });
    g.bench_function("dir248_build_10k", |b| {
        b.iter(|| build::<Dir248Fib>(&routes).len())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
