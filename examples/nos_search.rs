//! Neural Operator Search (the paper's §VI future work): compute the exact
//! latency/capacity Pareto frontier over per-block operator choices for
//! MobileNet-V2, and compare it with the paper's five fixed variants.
//!
//! ```text
//! cargo run --release --example nos_search
//! ```

use fuseconv::core::nos;
use fuseconv::models::zoo;
use fuseconv::systolic::ArrayConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let array = ArrayConfig::square(64)?.with_broadcast(true);
    let net = zoo::mobilenet_v2();

    let frontier = nos::pareto_frontier(&net, &array)?;
    println!(
        "MobileNet-V2 on 64x64: {} Pareto-optimal operator assignments\n",
        frontier.len()
    );
    println!(
        "{:>12} {:>10}  assignment (per separable block)",
        "cycles", "params"
    );
    let stride = (frontier.len() / 16).max(1);
    for point in frontier.iter().step_by(stride) {
        let asg: String = point.assignment.iter().map(|c| c.letter()).collect();
        println!("{:>12} {:>10}  {asg}", point.latency, point.params);
    }

    println!("\nfixed Table I variants for comparison:");
    for (variant, latency, params) in nos::fixed_variant_points(&net, &array)? {
        println!("{:>12} {:>10}  {variant}", latency, params);
    }

    // Operating point: keep baseline capacity, minimize latency.
    let floor = net.params();
    if let Some(found) = nos::search_under_params(&net, &array, floor)? {
        println!(
            "\nNOS @ baseline capacity: {} cycles ({:.2}x speed-up) with {} params \
             (baseline has {})",
            found.point.latency, found.speedup, found.point.params, floor
        );
    }

    // Operating point: 6x faster than baseline, maximize capacity.
    let model = fuseconv::latency::LatencyModel::new(array);
    let base = fuseconv::latency::estimate_network(&model, &net)?.total_cycles;
    if let Some(found) = nos::search_under_latency(&net, &array, base / 6)? {
        println!(
            "NOS @ 6x-faster budget: {} params at {} cycles ({:.2}x)",
            found.point.params, found.point.latency, found.speedup
        );
    }
    Ok(())
}
