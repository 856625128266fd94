//! A frame relay between one fleet worker and the coordinator, for the
//! traced `fleet` run only.
//!
//! It forwards the exact bytes it reads, frame by frame, and classifies
//! each frame by decoding a copy with `iris_dist::proto::read_frame`.
//! Every frame becomes a zero-length span named after its type, with
//! the frame's wire size as payload. The first few `Assign`, `Lease` and
//! `ChunkDone` frames are kept so their codec cost can be timed once
//! the run is over.

use crate::spans::{Sink, Span};
use iris_dist::proto::{read_frame, Frame, MAX_FRAME_BYTES};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Frames kept per type for the codec timing.
const CAPTURE_PER_TYPE: usize = 64;

/// Wire frames whose codec cost is timed.
const CODEC_TYPES: [&str; 3] = ["Lease", "ChunkDone", "Assign"];

/// The span name of each frame type the worker connection carries.
fn frame_span_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "dist.frame.Hello",
        Frame::Submit { .. } => "dist.frame.Submit",
        Frame::Assign { .. } => "dist.frame.Assign",
        Frame::Epoch { .. } => "dist.frame.Epoch",
        Frame::Lease { .. } => "dist.frame.Lease",
        Frame::ChunkDone { .. } => "dist.frame.ChunkDone",
        Frame::Heartbeat => "dist.frame.Heartbeat",
        Frame::Progress { .. } => "dist.frame.Progress",
        Frame::JobDone { .. } => "dist.frame.JobDone",
        Frame::Error { .. } => "dist.frame.Error",
    }
}

/// Whole frames (length prefix included) captured for codec timing.
type Captured = Arc<Mutex<Vec<(&'static str, Vec<u8>)>>>;

/// A one-connection relay: accepts the worker, dials the coordinator,
/// and pumps frames both ways until either side closes.
pub struct Relay {
    addr: String,
    accept: Option<JoinHandle<Result<(), String>>>,
    captured: Captured,
}

impl Relay {
    pub fn start(upstream: String, sink: Arc<Sink>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let captured: Captured = Arc::new(Mutex::new(Vec::new()));
        let cap = Arc::clone(&captured);
        let accept = std::thread::spawn(move || {
            let (worker, _) = listener.accept().map_err(|e| e.to_string())?;
            let coordinator = TcpStream::connect(&upstream).map_err(|e| e.to_string())?;
            let _ = worker.set_nodelay(true);
            let _ = coordinator.set_nodelay(true);
            let up = {
                let (from, to) = (clone(&worker)?, clone(&coordinator)?);
                let (sink, cap) = (Arc::clone(&sink), Arc::clone(&cap));
                std::thread::spawn(move || pump(from, to, &sink, &cap))
            };
            let down = pump(clone(&coordinator)?, clone(&worker)?, &sink, &cap);
            let up = up.join().map_err(|_| "relay pump panicked".to_owned())?;
            // A pump ends on the first closed side; both must end
            // cleanly (EOF between frames).
            down.and(up)
        });
        Ok(Self {
            addr,
            accept: Some(accept),
            captured,
        })
    }

    /// Where the worker should connect.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn captured(&self) -> Vec<(&'static str, Vec<u8>)> {
        self.captured
            .lock()
            .expect("capture store poisoned by a panicking pump")
            .clone()
    }

    /// Wait for both pumps to end (the fleet's sockets must be closed
    /// first) and report whether the relay saw a malformed frame.
    pub fn join(mut self) -> Result<(), String> {
        // Wake the accept if the worker never connected; once it has,
        // this connection just waits in the backlog and is dropped.
        let _ = TcpStream::connect(&self.addr);
        match self.accept.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err("relay thread panicked".to_owned()),
            None => Ok(()),
        }
    }
}

fn clone(s: &TcpStream) -> Result<TcpStream, String> {
    s.try_clone().map_err(|e| e.to_string())
}

/// Forward frames from `from` to `to` until `from` closes; then close
/// both directions so the opposite pump ends too.
fn pump(mut from: TcpStream, mut to: TcpStream, sink: &Sink, cap: &Captured) -> Result<(), String> {
    let result = pump_frames(&mut from, &mut to, sink, cap);
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
    result
}

fn pump_frames(
    from: &mut TcpStream,
    to: &mut TcpStream,
    sink: &Sink,
    cap: &Captured,
) -> Result<(), String> {
    loop {
        let mut header = [0u8; 4];
        if from.read_exact(&mut header).is_err() {
            // Closed between frames: the normal end of the connection.
            return Ok(());
        }
        let len = u32::from_le_bytes(header);
        if len > MAX_FRAME_BYTES {
            return Err(format!("relay saw an oversized frame ({len} bytes)"));
        }
        let mut wire = Vec::with_capacity(4 + len as usize);
        wire.extend_from_slice(&header);
        wire.resize(4 + len as usize, 0);
        from.read_exact(&mut wire[4..])
            .map_err(|e| format!("relay lost a frame body: {e}"))?;
        let at = sink.now_ns();
        // Closed mid-forward: the peer went away during shutdown.
        if to.write_all(&wire).and_then(|()| to.flush()).is_err() {
            return Ok(());
        }
        let frame = read_frame(&mut wire.as_slice())
            .map_err(|e| format!("relay could not classify a frame: {e}"))?;
        let name = frame_span_name(&frame);
        let kind = name.trim_start_matches("dist.frame.");
        if CODEC_TYPES.contains(&kind) {
            let mut store = cap
                .lock()
                .expect("capture store poisoned by a panicking pump");
            if store.iter().filter(|(k, _)| *k == kind).count() < CAPTURE_PER_TYPE {
                store.push((kind, wire.clone()));
            }
        }
        sink.push(Span {
            name,
            run: sink.run(),
            start_ns: at,
            end_ns: at,
            bytes: wire.len() as u64,
        });
    }
}
