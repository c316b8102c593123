//! Profiling helper: one fig15-style flow-scalability run, sized like the
//! `engine` bench's full-mode case, so a sampling profiler (e.g. gprofng)
//! sees only the simulation hot path. Usage:
//!
//! ```text
//! cargo build --release --example prof_fig15
//! gprofng collect app target/release/examples/prof_fig15 [heap|calendar] [flows]
//! ```

use expresspass::XPassConfig;
use xpass_experiments::harness::Scheme;
use xpass_net::ids::HostId;
use xpass_net::topology::Topology;
use xpass_sim::event::SchedulerKind;
use xpass_sim::run_ctx;
use xpass_sim::time::{Dur, SimTime};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = args
        .get(1)
        .and_then(|s| SchedulerKind::parse(s))
        .unwrap_or(SchedulerKind::Heap);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1024);
    let _sched = run_ctx::enter(run_ctx::current().with_scheduler(kind));
    let link = 10_000_000_000u64;
    let topo = Topology::dumbbell(n, link, Dur::us(8));
    let mut net = Scheme::XPass(XPassConfig::aggressive()).build(topo, link, 1);
    let bytes = (link / 8) * 2;
    for i in 0..n {
        let start = SimTime::ZERO + Dur::us((i as u64 * 37) % 500);
        net.add_flow(HostId(i as u32), HostId((n + i) as u32), bytes, start);
    }
    net.run_until(SimTime::ZERO + Dur::ms(10));
    let r = net.engine_report();
    println!(
        "{} n={n}: {} events in {:.3}s = {:.0} events/sec (peak queue {}, bucket_bits {:?})",
        kind.name(),
        r.events_processed,
        r.wall_secs,
        r.events_processed as f64 / r.wall_secs,
        r.peak_queue_len,
        r.bucket_bits
    );
}
