//! Host-time microbenchmarks of the building blocks (these measure real
//! wall time of the implementation, not simulated time): RNG, Zipfian
//! sampling, R-MAT generation, slab allocation, entry packing, and the
//! simulator's scheduling primitives.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use darray_kvs::{Entry, SlabAllocator};
use dsim::{Mailbox, Sim, SimConfig};
use workloads::{Rng, Zipfian};

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    g.bench_function("rng/next_u64", |b| {
        let mut r = Rng::new(1);
        b.iter(|| black_box(r.next_u64()));
    });

    g.bench_function("zipf/next_theta_0.99", |b| {
        let z = Zipfian::new(1 << 20);
        let mut r = Rng::new(2);
        b.iter(|| black_box(z.next(&mut r)));
    });

    g.bench_function("zipf/next_scrambled", |b| {
        let z = Zipfian::new(1 << 20);
        let mut r = Rng::new(3);
        b.iter(|| black_box(z.next_scrambled(&mut r)));
    });

    g.bench_function("rmat/scale12_ef4", |b| {
        b.iter(|| black_box(darray_graph::rmat(12, 4, 7).edges.len()));
    });

    g.bench_function("slab/alloc_free", |b| {
        let mut s = SlabAllocator::new(0, 1 << 24);
        b.iter(|| {
            let off = s.alloc(100).unwrap().offset;
            s.free(off, 100);
            black_box(off)
        });
    });

    g.bench_function("kvs/entry_pack_unpack", |b| {
        b.iter(|| {
            let e = Entry::pack(black_box(0xAB), black_box(512), black_box(123_456));
            black_box((e.tag(), e.size(), e.offset()))
        });
    });

    g.bench_function("dsim/spawn_join", |b| {
        b.iter(|| {
            Sim::new(SimConfig::default()).run(|ctx| {
                let h = ctx.spawn("w", |c| c.charge(100));
                h.join(ctx);
                black_box(ctx.now())
            })
        });
    });

    g.bench_function("dsim/mailbox_roundtrip", |b| {
        b.iter(|| {
            Sim::new(SimConfig::default()).run(|ctx| {
                let mb: Mailbox<u64> = Mailbox::new("b");
                let tx = mb.clone();
                let h = ctx.spawn("tx", move |c| {
                    for i in 0..16 {
                        tx.send(c, i, 100);
                    }
                });
                let mut sum = 0;
                for _ in 0..16 {
                    sum += mb.recv(ctx);
                }
                h.join(ctx);
                black_box(sum)
            })
        });
    });

    g.finish();
}

criterion_group! {
    name = benches;
    // Deterministic virtual-time samples have zero variance, which breaks
    // criterion's plot generation; disable plots.
    config = Criterion::default().without_plots();
    targets = bench_primitives
}
criterion_main!(benches);
