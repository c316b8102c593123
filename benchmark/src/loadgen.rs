//! Load for the live daemon, over loopback, with `std` alone: a minimal
//! HTTP/1.1 client, an open-loop generator with one request in flight,
//! and a WebSocket subscriber.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Instants of one request, as the client saw them.
#[derive(Clone, Copy, Debug)]
pub struct Stamps {
    pub start: Instant,
    pub connected: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

/// One request over a fresh connection (the daemon serves one per
/// connection). `Err` on a failed connect, a failed write or a response
/// without a status line.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Stamps), String> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let connected = Instant::now();
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let written = Instant::now();
    let mut buf = Vec::with_capacity(32 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                first_byte.get_or_insert_with(Instant::now);
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    let last_byte = Instant::now();
    let status = std::str::from_utf8(&buf[..buf.len().min(16)])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or("response has no status line")?;
    Ok((
        status,
        Stamps {
            start,
            connected,
            written,
            first_byte: first_byte.unwrap_or(last_byte),
            last_byte,
        },
    ))
}

/// Time as the open-loop generator sees it, so tests can drive it with a
/// clock of their own.
pub trait Clock {
    /// Seconds since the generator started.
    fn now(&mut self) -> f64;
    /// Block until `now() >= t`.
    fn wait_until(&mut self, t: f64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
    fn wait_until(&mut self, t: f64) {
        // Sleep to within a millisecond, then yield: a late generator
        // taints every latency it reports.
        loop {
            let left = t - self.now();
            if left <= 0.0 {
                return;
            }
            if left > 0.001 {
                std::thread::sleep(Duration::from_secs_f64(left - 0.0005));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// One request of an open-loop schedule, as accounted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Issued {
    /// When the request was due, seconds since the generator started.
    pub due: f64,
    /// How late it was issued: the previous request was still in flight.
    pub lag: f64,
    /// Due time → completion: the wait a stall imposes counts.
    pub latency: f64,
}

/// Open loop, one request in flight: request `i` is due at `due[i]`
/// whatever happened to the ones before it, is issued as soon after that
/// as the connection is free, and is timed **from its due time**.
pub fn open_loop(due: &[f64], clock: &mut dyn Clock, mut issue: impl FnMut(usize)) -> Vec<Issued> {
    due.iter()
        .enumerate()
        .map(|(i, &due)| {
            clock.wait_until(due);
            let start = clock.now();
            issue(i);
            Issued {
                due,
                lag: start - due,
                latency: clock.now() - due,
            }
        })
        .collect()
}

/// What the `/ws` subscriber saw.
#[derive(Clone, Debug, Default)]
pub struct WsReport {
    pub handshake_ms: f64,
    pub frames: u64,
    pub bytes: u64,
    /// The server closed with 1008: the subscriber fell behind.
    pub lag_disconnects: u64,
    pub error: Option<String>,
}

/// Subscribe to `/ws` and read text frames until `stop` is set or the
/// server closes.
pub fn ws_subscribe(addr: &str, stop: &AtomicBool) -> WsReport {
    let mut rep = WsReport::default();
    let run = |rep: &mut WsReport| -> Result<(), String> {
        let t = Instant::now();
        let mut s = TcpStream::connect(addr).map_err(|e| format!("ws connect: {e}"))?;
        s.write_all(
            b"GET /ws HTTP/1.1\r\nHost: bench\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\
              Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\n\r\n",
        )
        .map_err(|e| format!("ws write: {e}"))?;
        s.set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| e.to_string())?;
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        let mut upgraded = false;
        loop {
            match s.read(&mut chunk) {
                Ok(0) => return Ok(()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                }
                Err(e) => return Err(format!("ws read: {e}")),
            }
            if !upgraded {
                let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                    continue;
                };
                if !buf.starts_with(b"HTTP/1.1 101") {
                    return Err(format!(
                        "ws upgrade refused: {}",
                        String::from_utf8_lossy(&buf[..end])
                    ));
                }
                rep.handshake_ms = t.elapsed().as_secs_f64() * 1e3;
                buf.drain(..end + 4);
                upgraded = true;
            }
            while let Some((opcode, payload, used)) = server_frame(&buf) {
                if opcode == 0x8 {
                    if payload.len() >= 2 && u16::from_be_bytes([payload[0], payload[1]]) == 1008 {
                        rep.lag_disconnects += 1;
                    }
                    return Ok(());
                }
                rep.frames += 1;
                rep.bytes += payload.len() as u64;
                buf.drain(..used);
            }
        }
    };
    rep.error = run(&mut rep).err();
    rep
}

/// Parse one unmasked server→client frame: `(opcode, payload, bytes used)`.
fn server_frame(buf: &[u8]) -> Option<(u8, &[u8], usize)> {
    let (&b0, &b1) = (buf.first()?, buf.get(1)?);
    let (len, head): (usize, usize) = match b1 & 0x7f {
        126 => (
            u16::from_be_bytes(buf.get(2..4)?.try_into().ok()?) as usize,
            4,
        ),
        127 => (
            u64::from_be_bytes(buf.get(2..10)?.try_into().ok()?) as usize,
            10,
        ),
        n => (n as usize, 2),
    };
    let payload = buf.get(head..head.checked_add(len)?)?;
    Some((b0 & 0x0f, payload, head + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock the test's `issue` closure advances by each service time.
    struct FakeClock(std::rc::Rc<std::cell::Cell<f64>>);

    impl Clock for FakeClock {
        fn now(&mut self) -> f64 {
            self.0.get()
        }
        fn wait_until(&mut self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn a_stalled_request_charges_its_wait_to_later_requests() {
        let now = std::rc::Rc::new(std::cell::Cell::new(0.0));
        let mut clock = FakeClock(now.clone());
        // Due every 10 ms; the second request stalls for 35 ms.
        let due = [0.0, 0.010, 0.020, 0.030, 0.040, 0.050];
        let service = [0.003, 0.035, 0.003, 0.003, 0.003, 0.003];
        let issued = open_loop(&due, &mut clock, |i| now.set(now.get() + service[i]));
        let ms = |x: f64| (x * 1e6).round() / 1e3;
        let latency: Vec<f64> = issued.iter().map(|r| ms(r.latency)).collect();
        let lag: Vec<f64> = issued.iter().map(|r| ms(r.lag)).collect();
        // Request 2 (due 20) starts at 45 and ends at 48: 28 ms, not 3.
        // Request 3 (due 30) starts at 48: 21 ms. Request 4 (due 40)
        // starts at 51: 14 ms. Request 5 is on time again.
        assert_eq!(latency, [3.0, 35.0, 28.0, 21.0, 14.0, 7.0]);
        assert_eq!(lag, [0.0, 0.0, 25.0, 18.0, 11.0, 4.0]);
        // A closed loop would have reported 3 ms for all but the stall.
    }

    #[test]
    fn parses_server_frames_of_each_length_form() {
        assert_eq!(
            server_frame(&[0x81, 2, b'h', b'i', 0xff]),
            Some((1, &b"hi"[..], 4))
        );
        assert_eq!(server_frame(&[0x81, 2, b'h']), None);
        let mut long = vec![0x81, 126, 0x01, 0x00];
        long.extend(std::iter::repeat_n(b'x', 256));
        let (op, payload, used) = server_frame(&long).unwrap();
        assert_eq!((op, payload.len(), used), (1, 256, 260));
        // Close 1008.
        assert_eq!(
            server_frame(&[0x88, 2, 0x03, 0xf0]).unwrap().1,
            &[0x03, 0xf0]
        );
    }
}
