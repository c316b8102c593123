//! Structure-aware seeded fuzzing of every parser that consumes external
//! bytes: the JSON parser, the scenario loader, and the `xpass-snap/v9`
//! decoder/restore pipeline. Plain `cargo test` — no external fuzzer. The
//! committed corpus in `tests/corpus/` provides valid seeds; deterministic
//! xoshiro-seeded mutations (truncations, bit flips, splices, overwrites)
//! derive thousands of hostile inputs from them. The contract under test:
//! every input is either accepted or rejected with a path-carrying error —
//! never a panic, never unbounded work.

use std::path::PathBuf;
use xpass::experiments::scenario;
use xpass::expresspass::{xpass_factory, XPassConfig};
use xpass::net::config::NetConfig;
use xpass::net::ids::HostId;
use xpass::net::network::Network;
use xpass::net::topology::Topology;
use xpass::sim::checkpoint;
use xpass::sim::http;
use xpass::sim::ingest;
use xpass::sim::json;
use xpass::sim::metrics;
use xpass::sim::rng::Rng;
use xpass::sim::snap::{self, SnapWriter};
use xpass::sim::time::{Dur, SimTime};
use xpass::sim::ws;

fn corpus(sub: &str) -> Vec<(PathBuf, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(sub);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "empty corpus {}", dir.display());
    files
        .into_iter()
        .map(|p| {
            let data = std::fs::read(&p).unwrap();
            (p, data)
        })
        .collect()
}

/// One deterministic mutation of `data`: truncate, bit-flip, insert, or
/// overwrite a short run. Structure-aware in the sense that every derived
/// input is one small step from a valid seed, so mutations concentrate on
/// the interesting boundaries instead of uniform noise.
fn mutate(data: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut v = data.to_vec();
    match rng.below(4) {
        0 => {
            let n = v.len() as u64;
            v.truncate(if n == 0 { 0 } else { rng.below(n) as usize });
        }
        1 if !v.is_empty() => {
            let i = rng.below(v.len() as u64) as usize;
            v[i] ^= 1 << rng.below(8);
        }
        2 => {
            let i = rng.below(v.len() as u64 + 1) as usize;
            v.insert(i, rng.below(256) as u8);
        }
        _ if !v.is_empty() => {
            let i = rng.below(v.len() as u64) as usize;
            let end = (i + 8).min(v.len());
            for b in &mut v[i..end] {
                *b = rng.below(256) as u8;
            }
        }
        _ => v.push(0),
    }
    v
}

const ROUNDS: usize = 400;

#[test]
fn json_parser_never_panics_on_mutated_corpus() {
    for (path, data) in corpus("json") {
        let src = String::from_utf8(data.clone()).unwrap();
        let parsed = json::parse(&src)
            .unwrap_or_else(|e| panic!("corpus seed {} must parse: {e}", path.display()));
        // The printer must round-trip what the parser accepted.
        let reprinted = json::parse(&parsed.to_string()).expect("reprint parses");
        assert_eq!(
            parsed,
            reprinted,
            "{}: print/parse round trip",
            path.display()
        );

        let mut rng = Rng::new(0xA11CE);
        for _ in 0..ROUNDS {
            let m = mutate(&data, &mut rng);
            // Accept or reject — either is fine; panicking is not.
            if let Ok(j) = json::parse(&String::from_utf8_lossy(&m)) {
                let _ = j.to_string();
            }
        }
    }
}

#[test]
fn scenario_loader_never_panics_on_mutated_corpus() {
    for (path, data) in corpus("scenario") {
        let src = String::from_utf8(data.clone()).unwrap();
        scenario::parse_str(&src)
            .unwrap_or_else(|e| panic!("corpus seed {} must load: {e}", path.display()));

        let mut rng = Rng::new(0xB0B);
        for _ in 0..ROUNDS {
            let m = mutate(&data, &mut rng);
            let _ = scenario::parse_str(&String::from_utf8_lossy(&m));
        }

        // Structure-aware pass: delete each top-level key in turn — the
        // loader must diagnose missing/ill-typed fields, not unwrap them.
        if let Ok(json::Json::Obj(pairs)) = json::parse(&src) {
            for k in pairs.iter().map(|(k, _)| k) {
                let pruned: Vec<_> = pairs.iter().filter(|(n, _)| n != k).cloned().collect();
                let _ = scenario::parse_str(&json::Json::Obj(pruned).to_string());
            }
        }
    }
}

#[test]
fn snapshot_decoder_never_panics_on_mutated_corpus() {
    for (path, data) in corpus("snap") {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let original = snap::decode_file(&data);
        match name.as_str() {
            // Committed hostile seeds: must be *rejected*, with an error
            // that names where and why.
            "bad-version.snap" => {
                let e = original.unwrap_err();
                assert_eq!(e.at, 10, "{e}");
                assert!(e.msg.contains("expected 9, found 99"), "{e}");
            }
            "bad-crc.snap" => {
                let e = original.unwrap_err();
                assert!(e.msg.contains("checksum mismatch"), "{e}");
            }
            "truncated.snap" => {
                assert!(original.unwrap_err().msg.contains("truncated"));
            }
            // Valid envelopes decode; the image-shaped ones parse too.
            "empty-body.snap" => {
                assert!(original.unwrap().is_empty());
            }
            _ => {
                let body = original.unwrap_or_else(|e| panic!("{name} must decode: {e}"));
                let img = checkpoint::parse_image(body)
                    .unwrap_or_else(|e| panic!("{name} must parse as an image: {e}"));
                assert_eq!(img.label.name, "fig01");
                assert_eq!(img.run_call, 1);
            }
        }

        let mut rng = Rng::new(0x5EED);
        for _ in 0..ROUNDS {
            let m = mutate(&data, &mut rng);
            if let Ok(body) = snap::decode_file(&m) {
                // A mutation that survives the CRC is overwhelmingly a
                // no-op; whatever it is, image parsing must stay total.
                let _ = checkpoint::parse_image(body);
            }
        }
    }
}

#[test]
fn http_parser_never_panics_on_mutated_corpus() {
    for (path, data) in corpus("http") {
        let req = http::parse_request(&data)
            .unwrap_or_else(|e| panic!("corpus seed {} must parse: {e}", path.display()));
        assert!(
            req.path.starts_with('/'),
            "{}: parsed path {:?}",
            path.display(),
            req.path
        );
        assert!(
            !req.headers.is_empty(),
            "{}: seed should carry headers",
            path.display()
        );

        let mut rng = Rng::new(0xCAFE);
        for _ in 0..ROUNDS {
            let m = mutate(&data, &mut rng);
            // Accept or reject — either is fine; panicking is not.
            if let Ok(req) = http::parse_request(&m) {
                assert!(req.path.starts_with('/'), "accepted a non-origin target");
                assert!(req.headers.len() <= http::MAX_HEADERS);
            }
        }

        // Bound check: an oversized head must be rejected, not scanned.
        let mut huge = data.clone();
        huge.resize(http::MAX_HEAD_BYTES + 1, b'a');
        assert!(http::parse_request(&huge).is_err());
    }
}

/// Both consumers of externally-produced metrics text: the
/// `xpass-metrics/v1` JSONL series decoder and the Prometheus exposition
/// parse-back. Seed validity is keyed on extension (`.jsonl` vs `.prom`);
/// mutations are fed to *both* decoders regardless, since a scraper can
/// hand either one arbitrary bytes.
#[test]
fn metrics_decoders_never_panic_on_mutated_corpus() {
    for (path, data) in corpus("metrics") {
        let src = String::from_utf8(data.clone()).unwrap();
        match path.extension().and_then(|e| e.to_str()) {
            Some("jsonl") => {
                let dumps = metrics::decode_jsonl(&src)
                    .unwrap_or_else(|e| panic!("corpus seed {} must decode: {e}", path.display()));
                assert!(!dumps.is_empty(), "{}: empty series", path.display());
                // The encoder must round-trip what the decoder accepted.
                for d in &dumps {
                    let redecoded = metrics::decode_jsonl(&metrics::encode_jsonl(d))
                        .expect("re-encoded series decodes");
                    assert_eq!(redecoded.len(), 1, "{}", path.display());
                    assert_eq!(redecoded[0].keys, d.keys, "{}", path.display());
                    assert_eq!(
                        redecoded[0].ticks.len(),
                        d.ticks.len(),
                        "{}",
                        path.display()
                    );
                }
            }
            Some("prom") => {
                let samples = metrics::parse_exposition(&src)
                    .unwrap_or_else(|e| panic!("corpus seed {} must parse: {e}", path.display()));
                assert!(!samples.is_empty(), "{}: empty exposition", path.display());
            }
            other => panic!("{}: unexpected extension {other:?}", path.display()),
        }

        let mut rng = Rng::new(0xD0_5E_ED);
        for _ in 0..ROUNDS {
            let m = mutate(&data, &mut rng);
            let text = String::from_utf8_lossy(&m);
            let _ = metrics::decode_jsonl(&text);
            let _ = metrics::parse_exposition(&text);
        }
    }
}

/// Both `xpass-ingest/v1` decoders: `POST /ingest` bodies
/// ([`ingest::parse_arrivals`]) and the recovery journal
/// ([`ingest::parse_journal`] / [`ingest::read_journal`]). Seeds are
/// keyed on filename prefix (`arrival-*` vs `journal-*`); every mutation
/// is fed to both decoders regardless, since a client can POST journal
/// text and a crashed journal can hold anything.
#[test]
fn ingest_decoders_never_panic_on_mutated_corpus() {
    let tmp = std::env::temp_dir().join(format!("xpass-fuzz-journal-{}", std::process::id()));
    for (path, data) in corpus("ingest") {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = String::from_utf8(data.clone()).unwrap();
        if name.starts_with("arrival-") {
            let batch = ingest::parse_arrivals(&src)
                .unwrap_or_else(|e| panic!("corpus seed {} must parse: {e}", path.display()));
            assert!(!batch.is_empty(), "{}: empty batch", path.display());
            for a in &batch {
                assert_ne!(a.src, a.dst);
                assert!(a.size_bytes >= 1);
            }
        } else {
            let j = ingest::parse_journal(&src)
                .unwrap_or_else(|e| panic!("corpus seed {} must parse: {e}", path.display()));
            assert!(!j.groups.is_empty(), "{}: empty journal", path.display());
            assert_eq!(
                j.end_t_ps.is_some(),
                name.contains("sealed") && !name.contains("unsealed"),
                "{}: seal mismatch",
                path.display()
            );
            // Boundaries are strictly increasing after grouping.
            for w in j.groups.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }

        let mut rng = Rng::new(0x1_6E57);
        for round in 0..ROUNDS {
            let m = mutate(&data, &mut rng);
            let text = String::from_utf8_lossy(&m);
            // Accept or reject — either is fine; panicking is not.
            if let Ok(batch) = ingest::parse_arrivals(&text) {
                assert!(batch.len() <= ingest::MAX_BATCH);
            }
            let _ = ingest::parse_journal(&text);
            // Every 8th mutation also goes through the file-level reader,
            // which layers truncated-tail recovery on the strict parser.
            if round % 8 == 0 {
                std::fs::write(&tmp, &m).unwrap();
                if let Ok((j, _warn)) = ingest::read_journal(&tmp) {
                    let _ = j.arrivals();
                }
            }
        }
    }
    let _ = std::fs::remove_file(&tmp);
}

/// The RFC 6455 frame parser behind `/ws`, fed binary corpus frames and
/// mutations thereof. Accepted frames must respect the payload cap and
/// report `consumed` within the input; everything else must be a clean
/// `Err` or "need more bytes" — never a panic or oversized allocation.
#[test]
fn ws_frame_parser_never_panics_on_mutated_corpus() {
    for (path, data) in corpus("ws") {
        let f = ws::parse_frame(&data)
            .unwrap_or_else(|e| panic!("corpus seed {} must parse: {e}", path.display()))
            .unwrap_or_else(|| panic!("corpus seed {} is a partial frame", path.display()));
        assert_eq!(f.consumed, data.len(), "{}: trailing bytes", path.display());
        // Server-direction re-encode of the payload parses back to the
        // same opcode and payload.
        let re = ws::encode_frame(f.opcode, &f.payload);
        let back = ws::parse_frame(&re).unwrap().unwrap();
        assert_eq!((back.opcode, back.payload), (f.opcode, f.payload));

        let mut rng = Rng::new(0x6455);
        for _ in 0..ROUNDS {
            let m = mutate(&data, &mut rng);
            if let Ok(Some(f)) = ws::parse_frame(&m) {
                assert!(f.payload.len() <= ws::MAX_FRAME_PAYLOAD);
                assert!(f.consumed <= m.len());
            }
        }
    }
    // Length-field hostiles independent of the corpus: 64-bit lengths
    // stepping across the cap must reject before allocating.
    for len in [
        ws::MAX_FRAME_PAYLOAD as u64 + 1,
        u32::MAX as u64,
        u64::MAX / 2,
        u64::MAX,
    ] {
        let mut buf = vec![0x82, 0x7F];
        buf.extend_from_slice(&len.to_be_bytes());
        assert!(ws::parse_frame(&buf).is_err(), "len {len} must be rejected");
    }
}

/// Deepest layer: a real network snapshot body, mutated, fed straight to
/// `Network::restore_from` — below the CRC envelope that normally shields
/// it. Every outcome must be `Ok` or a path-carrying `Err`; never a panic,
/// hang, or unbounded allocation.
#[test]
fn network_restore_never_panics_on_mutated_state() {
    fn build() -> Network {
        let topo = Topology::dumbbell(2, 10_000_000_000, Dur::us(1));
        let cfg = NetConfig::expresspass().with_seed(5);
        let mut net = Network::new(topo, cfg, xpass_factory(XPassConfig::aggressive()));
        for i in 0..2u32 {
            net.add_flow(HostId(i), HostId(2 + i), 500_000, SimTime::ZERO);
        }
        net
    }
    let mut donor = build();
    donor.run_until(SimTime::ZERO + Dur::us(200));
    let mut w = SnapWriter::new();
    donor.snapshot_into(&mut w);
    let body = w.into_body();

    // Sanity: the unmutated body restores into a twin.
    build().restore_from(&body).expect("clean body restores");

    let mut rng = Rng::new(0xF00D);
    for round in 0..ROUNDS {
        let m = mutate(&body, &mut rng);
        let mut twin = build();
        if let Err(e) = twin.restore_from(&m) {
            assert!(!e.path.is_empty(), "round {round}: error must carry a path");
        }
    }
}
