//! A full distributed deployment: admission control, per-tenant policing,
//! a shared network link, server-side monitoring reports, and a lossy
//! link with retransmission — every §5/§6 mechanism in one scene.
//!
//! ```text
//! cargo run --release --example distributed_deployment
//! ```

use adaptive_framework::prelude::*;

fn main() {
    // --- Admission: two viewers ask for reservations on one workstation.
    let mut vmm = HostVmm::new(12_500_000.0, 1 << 30);
    let ask = Reservation { cpu_share: 0.45, net_bps: 30_000.0, mem_bytes: 64 << 20 };
    vmm.admit("viewer-a", ask).expect("first viewer admitted");
    vmm.admit("viewer-b", ask).expect("second viewer admitted");
    match vmm.admit("viewer-c", ask) {
        Err(e) => println!("admission control rejected viewer-c: {e}"),
        Ok(()) => unreachable!("threshold is 95%"),
    }

    // --- Deployment: both admitted viewers run concurrently, policed to
    // their reservations, over one narrow shared link that also loses
    // 8% of messages (retransmission recovers).
    let sc = Scenario {
        n_images: 4,
        img_size: 128,
        levels: 3,
        link_bps: 60_000.0,
        fault_plan: Some(FaultPlan::new(7).with_loss(CLIENT_HOST, SERVER_HOST, 0.08)),
        request_timeout_us: Some(800_000),
        ..Scenario::default()
    };
    let store = sc.build_store();
    let cfg = VizConfig { dr: 32, level: 3, method: Method::Lzw };
    let limits = Limits::cpu(0.45);
    println!("\nrunning two policed viewers over a lossy shared link ...");
    let stats = run_competing(&sc, &store, &[(cfg, limits), (cfg, limits)]);
    for (i, s) in stats.iter().enumerate() {
        println!(
            "  viewer-{}: {} images in {:.2}s, avg transmit {:.2}s, retries {}",
            (b'a' + i as u8) as char,
            s.images.len(),
            s.finished_at.expect("finished").as_secs_f64(),
            s.avg_transmit_secs(),
            s.retries,
        );
        assert_eq!(s.images.len(), sc.n_images);
    }
    let ends: Vec<f64> = stats.iter().map(|s| s.finished_at.unwrap().as_secs_f64()).collect();
    let spread = (ends[0] - ends[1]).abs() / ends[0].max(ends[1]);
    println!(
        "  finish-time spread {:.1}% (FIFO link order plus per-tenant retransmission luck)",
        spread * 100.0
    );

    // --- Counterfactual: the same workload alone on the machine. Loss
    // would make the comparison retransmission luck, so the lone viewer
    // and a sharing pair both run on a loss-free twin of the scene.
    let clean = Scenario { fault_plan: None, ..sc.clone() };
    let finished = |s: &RunStats| s.finished_at.expect("finished").as_secs_f64();
    let shared = run_competing(&clean, &store, &[(cfg, limits), (cfg, limits)]);
    let slower_sharer = shared.iter().map(finished).fold(0.0, f64::max);
    let alone = finished(&run_static(&clean, &store, cfg, limits, None).stats);
    println!(
        "\nwithout loss, a viewer takes {alone:.2}s alone and {slower_sharer:.2}s sharing \
         (the slower of two)"
    );
    assert!(alone <= slower_sharer, "a lone viewer must finish no later than a sharing one");
    println!("\ndistributed deployment complete.");
}
