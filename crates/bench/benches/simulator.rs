//! Bench target for the cycle-level simulator, including the **§III-B vs
//! §IV-C utilization** comparison (experiment E10): regenerates the
//! utilization numbers, then times both dataflows.

use fuseconv_bench::banner;
use fuseconv_bench::micro::{BenchmarkId, Micro};
use fuseconv_systolic::{conv1d, gemm, ArrayConfig, Dataflow};
use fuseconv_tensor::Tensor;
use std::hint::black_box;

fn print_utilization() {
    banner("E10: array utilization, im2col single-column vs FuSe broadcast");
    let array = ArrayConfig::square(16).expect("16").with_broadcast(true);
    // 16 channels of 3-tap filtering over 16 outputs each.
    let patches = Tensor::full(&[16, 9], 1.0).expect("patches");
    let kernel = Tensor::full(&[9, 1], 0.5).expect("kernel");
    let one = gemm::simulate(&array, &patches, &kernel).expect("sim");
    let im2col_cycles = one.cycles() * 16;
    let im2col_util = one.utilization(); // identical per channel

    let work: Vec<conv1d::ChannelLines> = (0..16)
        .map(|_| conv1d::ChannelLines {
            kernel: vec![0.5, 1.0, 0.5],
            lines: vec![vec![1.0; 18]],
        })
        .collect();
    let fuse = conv1d::simulate_packed(&array, &work).expect("sim");
    println!(
        "im2col : {} cycles, utilization {:5.1}%",
        im2col_cycles,
        im2col_util * 100.0
    );
    println!(
        "fuse   : {} cycles, utilization {:5.1}%  (speed-up {:.1}x)",
        fuse.cycles(),
        fuse.utilization() * 100.0,
        im2col_cycles as f64 / fuse.cycles() as f64
    );
}

fn bench_simulator(c: &mut Micro) {
    print_utilization();

    let mut group = c.benchmark_group("simulator/os_gemm");
    for s in [8usize, 16, 32] {
        let array = ArrayConfig::square(s).expect("nonzero");
        let a = Tensor::full(&[2 * s, 24], 1.0).expect("a");
        let b_mat = Tensor::full(&[24, 2 * s], 1.0).expect("b");
        group.bench_with_input(BenchmarkId::from_parameter(s), &array, |bench, array| {
            bench.iter(|| gemm::simulate(array, black_box(&a), black_box(&b_mat)).expect("sim"))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("simulator/broadcast_conv1d");
    for channels in [8usize, 32, 128] {
        let array = ArrayConfig::square(16).expect("16").with_broadcast(true);
        let work: Vec<conv1d::ChannelLines> = (0..channels)
            .map(|_| conv1d::ChannelLines {
                kernel: vec![0.25, 0.5, 0.25],
                lines: (0..8).map(|_| vec![1.0; 18]).collect(),
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(channels),
            &work,
            |bench, work| {
                bench.iter(|| conv1d::simulate_packed(&array, black_box(work)).expect("sim"))
            },
        );
    }
    group.finish();

    // The analytic forms the latency model relies on (must stay cheap:
    // Table I evaluates thousands of them).
    c.bench_function("simulator/analytic_gemm_cycles", |b| {
        let array = ArrayConfig::square(64).expect("64");
        b.iter(|| Dataflow::OutputStationary.analytic_cycles(&array, black_box(12544), 64, 128))
    });
    c.bench_function("simulator/analytic_packed_cycles", |b| {
        let array = ArrayConfig::square(64).expect("64").with_broadcast(true);
        b.iter(|| conv1d::analytic_cycles_packed(&array, black_box(512), 14, 14, 3))
    });
}

fn main() {
    let mut c = Micro::from_env();
    bench_simulator(&mut c);
}
