//! Microbenchmarks of the replay-buffer primitives.
//!
//! These are the per-sample bookkeeping operations that run on-device for
//! every stream element; they must stay trivially cheap compared to the
//! network passes they accompany.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use chameleon_replay::{ClassBalancedBuffer, ReservoirBuffer, RingBuffer, StoredSample};
use chameleon_tensor::Prng;

const LATENT_DIM: usize = 64;

fn sample(rng: &mut Prng, class: usize) -> StoredSample {
    StoredSample::latent((0..LATENT_DIM).map(|_| rng.randn()).collect(), class)
}

fn filled_reservoir(capacity: usize) -> (ReservoirBuffer, Prng) {
    let mut rng = Prng::new(1);
    let mut buffer = ReservoirBuffer::new(capacity);
    for i in 0..capacity * 2 {
        let s = sample(&mut rng, i % 50);
        buffer.offer(s, &mut rng);
    }
    (buffer, rng)
}

fn bench_reservoir(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservoir");
    for capacity in [100usize, 1500] {
        group.bench_function(format!("offer/{capacity}"), |b| {
            let (buffer, rng) = filled_reservoir(capacity);
            b.iter_batched(
                || (buffer.clone(), rng.clone()),
                |(mut buffer, mut rng)| {
                    let s = sample(&mut rng, 7);
                    black_box(buffer.offer(s, &mut rng));
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_function(format!("sample_batch10/{capacity}"), |b| {
            let (mut buffer, mut rng) = filled_reservoir(capacity);
            b.iter(|| black_box(buffer.sample_batch(10, &mut rng)));
        });
    }
    group.finish();
}

fn bench_class_balanced(c: &mut Criterion) {
    let mut group = c.benchmark_group("class_balanced");
    for capacity in [100usize, 1500] {
        group.bench_function(format!("insert/{capacity}"), |b| {
            let mut rng = Prng::new(2);
            let mut buffer = ClassBalancedBuffer::new(capacity);
            for i in 0..capacity * 2 {
                let s = sample(&mut rng, i % 50);
                buffer.insert(s, &mut rng);
            }
            b.iter_batched(
                || (buffer.clone(), rng.clone()),
                |(mut buffer, mut rng)| {
                    let s = sample(&mut rng, 3);
                    black_box(buffer.insert(s, &mut rng));
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_ring(c: &mut Criterion) {
    c.bench_function("ring/replace_random+read_all10", |b| {
        let mut rng = Prng::new(3);
        let mut buffer = RingBuffer::new(10);
        for i in 0..10 {
            buffer.push(sample(&mut rng, i));
        }
        b.iter(|| {
            let s = sample(&mut rng, 1);
            buffer.replace_random(s, &mut rng);
            black_box(buffer.read_all().len())
        });
    });
}

criterion_group!(benches, bench_reservoir, bench_class_balanced, bench_ring);
criterion_main!(benches);
