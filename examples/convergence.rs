//! Convergence race: a second flow joins a saturated 10 G link under three
//! schemes, and this example prints each scheme's throughput trace of the
//! joining flow as a sparkline plus the measured time to fair share —
//! the paper's headline "up to 80× faster than DCTCP" demonstration.
//!
//! Run with: `cargo run --release --example convergence`

use xpass::experiments::harness::{convergence_time, Scheme};
use xpass::expresspass::XPassConfig;
use xpass::net::ids::HostId;
use xpass::net::packet::{MAX_FRAME, MSS};
use xpass::net::topology::Topology;
use xpass::sim::time::{Dur, SimTime};

fn main() {
    let link = 10_000_000_000u64;
    let rtt = Dur::us(100);
    for scheme in [
        Scheme::XPass(XPassConfig::aggressive()),
        Scheme::Rcp,
        Scheme::Dctcp,
    ] {
        let topo = Topology::dumbbell(2, link, rtt / 12);
        let mut net = scheme.build(topo, link, 3);
        net.set_sample_interval(rtt);
        let bytes = link / 8;
        net.add_flow(HostId(0), HostId(2), bytes, SimTime::ZERO);
        let join = SimTime::ZERO + Dur::ms(8);
        let late = net.add_flow(HostId(1), HostId(3), bytes, join);
        net.track_flow(late);
        net.run_until(join + Dur::ms(60));

        let eff = match scheme {
            Scheme::XPass(_) => 0.9482 * MSS as f64 / MAX_FRAME as f64,
            _ => MSS as f64 / MAX_FRAME as f64,
        };
        let fair = link as f64 / 2.0 * eff / 1e9;
        let conv = convergence_time(&net, late, join, fair, 0.30, 15);
        let series = net.flow_series(late).unwrap();
        let spark: String = series
            .samples
            .iter()
            .filter(|&&(t, _)| t >= join)
            .step_by(10)
            .map(|&(_, v)| match (v / fair * 3.0) as usize {
                0 => '_',
                1 => '.',
                2 => '-',
                3 => '=',
                _ => '^',
            })
            .collect();
        println!("{:<22} joinee trace: {spark}", scheme.name());
        match conv {
            Some(d) => println!(
                "{:<22} fair share in {} (~{:.0} RTTs)\n",
                "",
                d,
                d.as_secs_f64() / rtt.as_secs_f64()
            ),
            None => println!("{:<22} not converged within the window\n", ""),
        }
    }
}
