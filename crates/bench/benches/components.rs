//! Component micro-benchmarks: the substrates' hot paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use adapt_core::{
    Configuration, Objective, PerfDb, PerfRecord, PredictMode, Preference, PreferenceList,
    QosReport, ResourceKey, ResourceScheduler, ResourceVector,
};
use wavelet::image::plasma;
use wavelet::{Pyramid, Rect};

fn bench_wavelet(c: &mut Criterion) {
    let img = plasma(256, 256, 7);
    let mut g = c.benchmark_group("wavelet");
    g.throughput(Throughput::Bytes((256 * 256) as u64));
    g.bench_function("pyramid_build_256", |b| {
        b.iter(|| Pyramid::build(&img, 4));
    });
    let pyr = Pyramid::build(&img, 4);
    g.bench_function("reconstruct_full_256", |b| {
        b.iter(|| pyr.reconstruct(4));
    });
    g.bench_function("region_chunks_256", |b| {
        b.iter(|| pyr.chunks_for_region(Rect::new(64, 64, 128, 128), 4, None));
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let img = plasma(128, 128, 9);
    let pyr = Pyramid::build(&img, 3);
    let chunks = pyr.chunks_for_region(Rect::new(0, 0, 128, 128), 3, None);
    let raw = wavelet::encode_chunks(&chunks);
    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Bytes(raw.len() as u64));
    g.bench_function("lzw_compress", |b| b.iter(|| compress::Method::Lzw.compress(&raw)));
    g.bench_function("bzip_compress", |b| b.iter(|| compress::Method::Bzip.compress(&raw)));
    let lz = compress::Method::Lzw.compress(&raw);
    let bz = compress::Method::Bzip.compress(&raw);
    g.bench_function("lzw_decompress", |b| {
        b.iter(|| compress::Method::Lzw.decompress(&lz).unwrap())
    });
    g.bench_function("bzip_decompress", |b| {
        b.iter(|| compress::Method::Bzip.decompress(&bz).unwrap())
    });
    // One full `DEFAULT_BLOCK` of the same kind of bytes: the rotation
    // sort at the size the store's large payloads present it with.
    let chunks = Pyramid::build(&plasma(512, 512, 9), 4).chunks_for_region(
        Rect::new(0, 0, 512, 512),
        4,
        None,
    );
    let mut block = wavelet::encode_chunks(&chunks);
    block.truncate(compress::bzip::DEFAULT_BLOCK);
    assert_eq!(block.len(), compress::bzip::DEFAULT_BLOCK);
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("bzip_compress_100k", |b| b.iter(|| compress::Method::Bzip.compress(&block)));
    g.finish();
}

fn bench_simnet(c: &mut Criterion) {
    use simnet::{Actor, ActorId, Ctx, Message, Sim};
    /// Ping-pong pair that exchanges `n` messages.
    struct Ping {
        peer: Option<ActorId>,
        remaining: u32,
    }
    impl Actor for Ping {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(p) = self.peer {
                ctx.send(p, Message::signal(0, 100));
            }
        }
        fn on_message(&mut self, from: ActorId, _m: Message, ctx: &mut Ctx<'_>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.compute(10.0);
                ctx.send(from, Message::signal(0, 100));
            }
        }
    }
    c.bench_function("simnet_pingpong_10k_msgs", |b| {
        b.iter_batched(
            || {
                let mut sim = Sim::new();
                let h1 = sim.add_host("a", 1.0, 1 << 30);
                let h2 = sim.add_host("b", 1.0, 1 << 30);
                sim.set_link(h1, h2, 12_500_000.0, 50);
                let pong = sim.spawn(h2, Box::new(Ping { peer: None, remaining: 5000 }));
                sim.spawn(h1, Box::new(Ping { peer: Some(pong), remaining: 5000 }));
                sim
            },
            |mut sim| sim.run_until_idle(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_perfdb(c: &mut Criterion) {
    let cpu = ResourceKey::cpu("client");
    let net = ResourceKey::net("client");
    let mut db = PerfDb::new();
    for ci in 0..12i64 {
        for s in 1..=10 {
            for bw in [25_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0, 800_000.0] {
                let share = s as f64 / 10.0;
                db.add(PerfRecord {
                    config: Configuration::new(&[("c", ci)]),
                    resources: ResourceVector::new(&[(cpu.clone(), share), (net.clone(), bw)]),
                    input: "img".into(),
                    metrics: QosReport::new(&[("transmit_time", 1.0 / share + 1e6 / bw)]),
                });
            }
        }
    }
    let q = ResourceVector::new(&[(cpu.clone(), 0.55), (net.clone(), 140_000.0)]);
    let cfg = Configuration::new(&[("c", 5)]);
    c.bench_function("perfdb_interpolate", |b| {
        b.iter(|| db.predict(&cfg, "img", &q, PredictMode::Interpolate).unwrap())
    });
    c.bench_function("perfdb_nearest", |b| {
        b.iter(|| db.predict(&cfg, "img", &q, PredictMode::Nearest).unwrap())
    });
    // The indexed lattice path against the pre-index reference scan.
    let mut g = c.benchmark_group("predict_indexed_vs_scan");
    g.bench_function("indexed", |b| {
        b.iter(|| db.predict(&cfg, "img", &q, PredictMode::Interpolate).unwrap())
    });
    g.bench_function("scan", |b| {
        b.iter(|| db.predict_scan(&cfg, "img", &q, PredictMode::Interpolate).unwrap())
    });
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    // The acceptance-criteria database: 4 configs x 2 axes x 9 samples.
    let cpu = ResourceKey::cpu("client");
    let net = ResourceKey::net("client");
    let mut db = PerfDb::new();
    for ci in 0..4i64 {
        for s in 1..=9 {
            for n in 1..=9 {
                let share = s as f64 / 9.0;
                let bw = n as f64 * 100_000.0;
                db.add(PerfRecord {
                    config: Configuration::new(&[("c", ci)]),
                    resources: ResourceVector::new(&[(cpu.clone(), share), (net.clone(), bw)]),
                    input: "img".into(),
                    metrics: QosReport::new(&[(
                        "transmit_time",
                        (ci + 1) as f64 / share + 2e6 / ((ci + 1) as f64 * bw),
                    )]),
                });
            }
        }
    }
    let prefs =
        PreferenceList::single(Preference::new(vec![], Objective::minimize("transmit_time")));
    let sched = ResourceScheduler::new(db, prefs, "img");
    let q = ResourceVector::new(&[(cpu.clone(), 0.62), (net.clone(), 350_000.0)]);
    c.bench_function("scheduler_choose", |b| b.iter(|| sched.choose(&q).unwrap()));
    let d = sched.choose(&q).unwrap();
    c.bench_function("validity_region", |b| {
        b.iter(|| sched.validity_region(&d.config, &sched.prefs().prefs[0], &q))
    });
}

criterion_group!(
    benches,
    bench_wavelet,
    bench_compress,
    bench_simnet,
    bench_perfdb,
    bench_scheduler
);
criterion_main!(benches);
