//! The std-only TCP front-end: [`QueryServer`] serves the
//! [`wire`](crate::wire) protocol over a [`SnapshotHandle`], and
//! [`QueryClient`] is the matching blocking client.
//!
//! ## Server shape
//!
//! One nonblocking accept loop (polling a stop flag between accepts), one
//! thread per connection. Each connection thread answers requests through
//! the [`SnapshotHandle::latest`] path, so any number of
//! connections query concurrently while the ingest thread keeps cutting
//! epochs — the server never touches the service, only the handle.
//!
//! **Epoch consistency per response:** every request pins one
//! [`QueryView`](crate::query::QueryView) and answers entirely from it, so
//! a batched response's estimates all describe the stamp it carries. Across
//! requests the stamp may advance (that's the point).
//!
//! **Malformed peers:** a frame that fails the cap, the decoder, or UTF-8
//! closes that connection — never panics, never affects other connections.
//!
//! **Shutdown:** [`Request::Shutdown`] is acknowledged, then the server's
//! stop flag is set: the accept loop exits and every connection thread
//! winds down at its next idle tick ([`QueryServer::join`] collects them).
//! [`QueryServer::stop`] does the same thing server-side (e.g. on ctrl-C or
//! when the ingest source ends).

use crate::query::{QueryError, SnapshotHandle};
use crate::wire::{write_frame, ErrorCode, Request, Response, WireReport, MAX_FRAME};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection thread blocks in one read before checking the
/// stop flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Idle ticks a connection is allowed to sit mid-frame after the stop flag
/// rises before the server gives up on it (~1 s).
const DRAIN_TICKS: u32 = 20;

/// The TCP query server: accepts connections and answers the wire protocol
/// from the newest published epoch snapshot.
pub struct QueryServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl QueryServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `handle`. Returns as soon as the listener is live;
    /// [`QueryServer::local_addr`] has the resolved address.
    pub fn bind<A: ToSocketAddrs>(addr: A, handle: SnapshotHandle) -> io::Result<QueryServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                while !stop.load(SeqCst) {
                    match listener.accept() {
                        Ok((sock, _)) => {
                            let stop = Arc::clone(&stop);
                            let handle = handle.clone();
                            let t = std::thread::spawn(move || {
                                // A connection error (malformed peer, reset,
                                // stalled drain) closes that connection only.
                                let _ = serve_connection(sock, handle, stop);
                            });
                            let mut conns = conns.lock().expect("connection list poisoned");
                            reap_finished(&mut conns);
                            conns.push(t);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            reap_finished(&mut conns.lock().expect("connection list poisoned"));
                            std::thread::sleep(ACCEPT_TICK);
                        }
                        // Listener died (fd pressure, ...): stop serving.
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(QueryServer {
            local_addr,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (the resolved port when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connection threads currently tracked (live, plus any finished since
    /// the accept loop's last reaping tick). Bounded by the number of
    /// *concurrent* connections the server has seen — finished handles are
    /// joined and discarded on every accept tick, so a long-running server
    /// with short-lived clients does not accumulate them.
    pub fn active_connections(&self) -> usize {
        self.conns.lock().expect("connection list poisoned").len()
    }

    /// Whether shutdown has been requested — by [`QueryServer::stop`] or by
    /// a client's [`Request::Shutdown`]. The ingest loop polls this to know
    /// when to stop feeding the service.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(SeqCst)
    }

    /// Request shutdown: the accept loop exits and connection threads wind
    /// down at their next idle tick.
    pub fn stop(&self) {
        self.stop.store(true, SeqCst);
    }

    /// Stop (if not already stopped) and join the accept loop and every
    /// connection thread — the clean-exit path the serve smoke test pins.
    pub fn join(mut self) {
        self.stop();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection list poisoned"));
        for t in conns {
            let _ = t.join();
        }
    }
}

impl Drop for QueryServer {
    /// Dropping without [`QueryServer::join`] still stops the accept loop;
    /// connection threads exit on their own at the next idle tick.
    fn drop(&mut self) {
        self.stop();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("local_addr", &self.local_addr)
            .field("stop_requested", &self.stop_requested())
            .finish_non_exhaustive()
    }
}

/// Join and discard the connection threads that have already exited. Called
/// with the list lock held on every accept-loop tick, so the list tracks
/// concurrent connections instead of growing by one handle per connection
/// ever served.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Read one frame with the connection's read timeout as the polling tick:
/// between frames, a timeout just rechecks the stop flag; mid-frame, the
/// peer gets [`DRAIN_TICKS`] grace ticks after stop (or stalling) before
/// the read fails. `Ok(false)` = clean close or stop-between-frames.
fn read_frame_ticking(
    sock: &mut TcpStream,
    buf: &mut Vec<u8>,
    stop: &AtomicBool,
) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    let mut idle_after_stop = 0u32;
    while filled < 4 {
        if filled == 0 && stop.load(SeqCst) {
            return Ok(false);
        }
        match sock.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if filled > 0 && stop.load(SeqCst) {
                    idle_after_stop += 1;
                    if idle_after_stop > DRAIN_TICKS {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range (cap {MAX_FRAME})"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    let mut got = 0usize;
    while got < len {
        match sock.read(&mut buf[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if stop.load(SeqCst) {
                    idle_after_stop += 1;
                    if idle_after_stop > DRAIN_TICKS {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// One connection's request/response loop.
fn serve_connection(
    mut sock: TcpStream,
    handle: SnapshotHandle,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    // The listener is nonblocking; this socket must block with a timeout so
    // reads tick against the stop flag instead of spinning.
    sock.set_nonblocking(false)?;
    sock.set_read_timeout(Some(READ_TICK))?;
    sock.set_nodelay(true)?;
    let mut frame = Vec::new();
    let mut payload = Vec::new();
    let mut scratch = Vec::new();
    while read_frame_ticking(&mut sock, &mut frame, &stop)? {
        // A malformed frame closes this connection (clean close, no panic);
        // the error is not answerable — the framing itself is broken.
        let req = match Request::decode(&frame) {
            Ok(req) => req,
            Err(_) => break,
        };
        if matches!(req, Request::Shutdown) {
            Response::ShutdownAck.encode(&mut payload);
            let _ = write_frame(&mut sock, &payload);
            stop.store(true, SeqCst);
            break;
        }
        let resp = answer(&req, &handle, &mut scratch);
        resp.encode(&mut payload);
        write_frame(&mut sock, &payload)?;
    }
    Ok(())
}

/// Answer one request from the newest published snapshot. Every branch
/// pins one view, so multi-value answers are epoch-consistent with the
/// stamp they carry.
fn answer(req: &Request, handle: &SnapshotHandle, scratch: &mut Vec<f64>) -> Response {
    let Some(view) = handle.latest() else {
        return Response::Error {
            code: ErrorCode::NoSnapshot,
            message: "no epoch published yet".into(),
        };
    };
    let engine = view.engine();
    let stamp = engine.stamp();
    let answered = match req {
        Request::Point { item } => engine
            .point(*item)
            .map(|estimate| Response::Point { stamp, estimate }),
        Request::PointBatch { items } => {
            engine
                .point_many(items, scratch)
                .map(|()| Response::Points {
                    stamp,
                    estimates: scratch.clone(),
                })
        }
        Request::Norm => engine
            .norm()
            .map(|estimate| Response::Norm { stamp, estimate }),
        Request::HeavyHitters { threshold } => engine
            .heavy_hitters(*threshold)
            .map(|hitters| Response::HeavyHitters { stamp, hitters }),
        Request::Report => {
            let rep = engine.report();
            Ok(Response::Report(WireReport {
                epoch: rep.epoch as u64,
                total_updates: rep.total_updates as u64,
                total_inserted: rep.total_inserted,
                total_deleted: rep.total_deleted,
                alpha_observed: rep.alpha_observed(),
                space_bits: rep.space_bits(),
                threads: rep.threads as u32,
                total_dropped_updates: rep.total_dropped_updates as u64,
                total_dropped_mass: rep.total_dropped_mass,
                queue_peak: rep.queue_peak as u64,
                blocked_us: rep.blocked.as_micros() as u64,
                wal_records: rep.wal_records as u64,
                wal_bytes: rep.wal_bytes,
            }))
        }
        Request::Shutdown => unreachable!("handled by the connection loop"),
    };
    answered.unwrap_or_else(|e| Response::Error {
        code: match e {
            QueryError::Unsupported(_) => ErrorCode::Unsupported,
            QueryError::UniverseTooLarge(_) => ErrorCode::UniverseTooLarge,
        },
        message: e.to_string(),
    })
}

/// The blocking client: one request frame out, one response frame in.
pub struct QueryClient {
    sock: TcpStream,
    out: Vec<u8>,
    inbound: Vec<u8>,
}

impl QueryClient {
    /// Connect to a [`QueryServer`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<QueryClient> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        Ok(QueryClient {
            sock,
            out: Vec::new(),
            inbound: Vec::new(),
        })
    }

    /// Send one request and read its response. A server that closed the
    /// connection (shutdown, or this client sent something malformed
    /// earlier) surfaces as `ConnectionAborted`; an undecodable response as
    /// `InvalidData`.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        req.encode(&mut self.out);
        write_frame(&mut self.sock, &self.out)?;
        if !crate::wire::read_frame(&mut self.sock, &mut self.inbound)? {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            ));
        }
        Response::decode(&self.inbound).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl std::fmt::Debug for QueryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryClient")
            .field("peer", &self.sock.peer_addr().ok())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergeReport;
    use crate::query::SnapshotHub;
    use crate::service::{EpochReport, Snapshot};
    use crate::space::SpaceReport;
    use crate::spec::{SketchFamily, SketchSpec};
    use crate::vector::FrequencyVector;
    use std::io::Write as _;

    fn hub_with_values(stamp: usize, values: &[(u64, i64)]) -> SnapshotHub {
        let mut fv = FrequencyVector::new(64);
        for &(i, d) in values {
            crate::sketch::Sketch::update(&mut fv, i, d);
        }
        let hub = SnapshotHub::new();
        hub.publish(Arc::new(Snapshot {
            spec: SketchSpec::new(SketchFamily::Exact).with_n(64),
            sketch: Box::new(fv),
            report: EpochReport {
                epoch: 1,
                updates: stamp,
                total_updates: stamp,
                inserted_mass: 0,
                deleted_mass: 0,
                total_inserted: 90,
                total_deleted: 30,
                alpha_configured: 2.0,
                dropped_updates: 0,
                dropped_mass: 0,
                total_dropped_updates: 0,
                total_dropped_mass: 0,
                queue_peak: 0,
                blocked: Duration::ZERO,
                space: SpaceReport::default(),
                elapsed: Duration::ZERO,
                merge_elapsed: Duration::ZERO,
                merge: MergeReport::default(),
                threads: 2,
                wal_records: 0,
                wal_bytes: 0,
            },
        }));
        hub
    }

    #[test]
    fn serves_queries_identical_to_the_direct_engine() {
        let hub = hub_with_values(500, &[(3, 40), (9, -50), (11, 2)]);
        let server = QueryServer::bind("127.0.0.1:0", hub.handle()).unwrap();
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        let engine = hub.handle().latest().unwrap().engine();

        match client.request(&Request::Point { item: 3 }).unwrap() {
            Response::Point { stamp, estimate } => {
                assert_eq!(stamp, 500);
                assert_eq!(estimate.to_bits(), engine.point(3).unwrap().to_bits());
            }
            other => panic!("wrong response: {other:?}"),
        }
        let items: Vec<u64> = (0..32).collect();
        match client
            .request(&Request::PointBatch {
                items: items.clone(),
            })
            .unwrap()
        {
            Response::Points { stamp, estimates } => {
                assert_eq!(stamp, 500);
                let mut direct = Vec::new();
                engine.point_many(&items, &mut direct).unwrap();
                assert_eq!(
                    estimates.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
                    direct.iter().map(|e| e.to_bits()).collect::<Vec<_>>()
                );
            }
            other => panic!("wrong response: {other:?}"),
        }
        match client
            .request(&Request::HeavyHitters { threshold: 10.0 })
            .unwrap()
        {
            Response::HeavyHitters { stamp, hitters } => {
                assert_eq!(stamp, 500);
                assert_eq!(hitters, engine.heavy_hitters(10.0).unwrap());
            }
            other => panic!("wrong response: {other:?}"),
        }
        // FrequencyVector has no norm view: a typed error, connection live.
        match client.request(&Request::Norm).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
            other => panic!("wrong response: {other:?}"),
        }
        match client.request(&Request::Report).unwrap() {
            Response::Report(rep) => {
                assert_eq!(rep.total_updates, 500);
                assert_eq!(rep.epoch, 1);
                assert_eq!((rep.total_inserted, rep.total_deleted), (90, 30));
                assert_eq!(rep.threads, 2);
                assert_eq!(
                    rep.alpha_observed.to_bits(),
                    engine.report().alpha_observed().to_bits()
                );
            }
            other => panic!("wrong response: {other:?}"),
        }
        server.join();
    }

    #[test]
    fn empty_hub_answers_no_snapshot() {
        let hub = SnapshotHub::new();
        let server = QueryServer::bind("127.0.0.1:0", hub.handle()).unwrap();
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        match client.request(&Request::Norm).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSnapshot),
            other => panic!("wrong response: {other:?}"),
        }
        server.join();
    }

    /// The peer closed on us: clean FIN, or RST when our malformed bytes
    /// were still unread at close time. Either way, no data and no panic.
    fn assert_closed(mut sock: TcpStream) {
        let mut sink = Vec::new();
        match sock.read_to_end(&mut sink) {
            Ok(n) => assert_eq!(n, 0, "expected close, got {n} bytes"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                ),
                "expected close, got {e}"
            ),
        }
    }

    #[test]
    fn malformed_frames_close_only_their_connection() {
        let hub = hub_with_values(10, &[(1, 5)]);
        let server = QueryServer::bind("127.0.0.1:0", hub.handle()).unwrap();

        // An oversized length prefix: the server must close, not allocate.
        let mut bad = TcpStream::connect(server.local_addr()).unwrap();
        bad.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        bad.write_all(&[0u8; 16]).unwrap();
        assert_closed(bad);

        // An unknown request kind inside a well-formed frame: same fate.
        let mut bad = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut bad, &[0x7F, 1, 2, 3]).unwrap();
        assert_closed(bad);

        // The server survives both: a fresh connection still gets answers.
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        match client.request(&Request::Point { item: 1 }).unwrap() {
            Response::Point { estimate, .. } => assert_eq!(estimate, 5.0),
            other => panic!("wrong response: {other:?}"),
        }
        server.join();
    }

    #[test]
    fn finished_connections_are_reaped() {
        let hub = hub_with_values(10, &[(1, 5)]);
        let server = QueryServer::bind("127.0.0.1:0", hub.handle()).unwrap();
        // Many sequential short-lived clients: each one's thread finishes
        // when the client disconnects, so the tracked-handle count must stay
        // near the *concurrent* connection count (1), not grow to 32.
        for _ in 0..32 {
            let mut client = QueryClient::connect(server.local_addr()).unwrap();
            match client.request(&Request::Point { item: 1 }).unwrap() {
                Response::Point { estimate, .. } => assert_eq!(estimate, 5.0),
                other => panic!("wrong response: {other:?}"),
            }
            drop(client);
        }
        // Give the last connection thread time to notice the close and the
        // accept loop a few ticks to reap.
        let mut tracked = usize::MAX;
        for _ in 0..100 {
            tracked = server.active_connections();
            if tracked <= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            tracked <= 1,
            "{tracked} finished connection handles were never reaped"
        );
        server.join();
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let hub = hub_with_values(10, &[]);
        let server = QueryServer::bind("127.0.0.1:0", hub.handle()).unwrap();
        assert!(!server.stop_requested());
        let mut client = QueryClient::connect(server.local_addr()).unwrap();
        assert_eq!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShutdownAck
        );
        // The flag is set by the connection thread right after the ack.
        for _ in 0..100 {
            if server.stop_requested() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.stop_requested());
        server.join();
    }
}
