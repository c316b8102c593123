//! Datacenter flow-completion times: a scaled-down §6.3 experiment.
//!
//! Generates a Poisson web-server workload (Table 2 flow sizes) at 60 %
//! ToR-uplink load on the paper's 192-host, 3:1-oversubscribed fat tree,
//! and compares per-size-bucket FCTs of ExpressPass against DCTCP and RCP.
//!
//! Run with: `cargo run --release --example datacenter_fct`

use xpass::experiments::harness::{fmt_secs, RealisticRun};
use xpass::experiments::{Scheme, SizeBucket};
use xpass::expresspass::XPassConfig;
use xpass::workloads::Workload;

fn main() {
    println!("workload: Web Server (Table 2), 2000 flows, load 0.6, 10G links\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "scheme", "S avg/p99", "M avg/p99", "L avg/p99", "drops"
    );
    for scheme in [
        Scheme::XPass(XPassConfig::default()),
        Scheme::Dctcp,
        Scheme::Rcp,
    ] {
        let r = RealisticRun {
            workload: Workload::WebServer,
            load: 0.6,
            n_flows: 2000,
            link_bps: 10_000_000_000,
            scheme,
            seed: 11,
        }
        .run();
        let mut fct = r.fct.clone();
        let cell = |b: SizeBucket, fct: &mut xpass::experiments::FctBuckets| {
            format!("{}/{}", fmt_secs(fct.avg(b)), fmt_secs(fct.p99(b)))
        };
        println!(
            "{:<12} {:>12} {:>12} {:>12} {:>10}",
            scheme.name(),
            cell(SizeBucket::S, &mut fct),
            cell(SizeBucket::M, &mut fct),
            cell(SizeBucket::L, &mut fct),
            r.counters.data_dropped,
        );
        assert_eq!(r.unfinished, 0, "{}: unfinished flows", scheme.name());
    }
}
