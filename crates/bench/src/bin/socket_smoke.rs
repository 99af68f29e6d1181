//! CI socket smoke: one adaptive bandwidth-collapse session run twice —
//! pure simnet, then with every message round-tripped through a real
//! loopback TCP socket (and UDS where available) — asserting the two
//! runs make *exactly* the same adaptive decisions.
//!
//! The kernel owns virtual time, so the only way the wired run can
//! diverge is codec or framing infidelity in the `adapt-transport`
//! socket backend; decision-sequence equality is therefore a bit-level
//! correctness check for the real-socket path. The listener binds port 0
//! (OS-assigned); a UDS bind failure downgrades that backend to a
//! skip, never a failure.
//!
//! Exit status: 0 with the FNV digest of the decision sequence on
//! stdout, 1 on divergence.

use adapt_bench::socket::{decision_digest, smoke_session};
use visapp::{decision_sequence, socket_mirror_hook, MirrorBackend};

fn main() {
    let stock = smoke_session(None);
    let reference = decision_sequence(&stock.stats);

    let mut failed = false;
    for backend in [MirrorBackend::Tcp, MirrorBackend::Uds] {
        let (hook, handle) = match socket_mirror_hook(backend) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("socket_smoke: {} skipped ({e})", backend.name());
                continue;
            }
        };
        let wired = smoke_session(Some(hook));
        let report = handle.finish();
        let wired_seq = decision_sequence(&wired.stats);
        if wired_seq != reference || wired.end != stock.end {
            failed = true;
            eprintln!(
                "socket_smoke: {} DIVERGED from simnet\n  simnet: {:?}\n  wired:  {:?}",
                backend.name(),
                reference,
                wired_seq
            );
            continue;
        }
        eprintln!(
            "socket_smoke: {} ok — {} decisions, {} messages, {} wire bytes, end {:.2}s",
            report.backend,
            wired_seq.len(),
            report.messages,
            report.wire_bytes,
            wired.end.as_secs_f64(),
        );
    }
    if failed {
        std::process::exit(1);
    }
    assert!(reference.len() >= 2, "the scenario must exercise runtime adaptation");
    println!("{:016x}", decision_digest(&reference));
}
