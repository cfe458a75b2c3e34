//! A remote executor served over TCP: the process-boundary proof of the
//! checker's one executor seam.
//!
//! ```text
//! cargo run --release --example remote_executor
//! ```
//!
//! The checker only ever talks to an executor through
//! [`Executor::send`] — one [`CheckerMsg`] in, a batch of
//! [`ExecutorMsg`]s out. This example moves that seam onto a socket using
//! the hand-rolled wire codec (`quickstrom_protocol::wire`): a server
//! thread accepts one TCP connection per session and drives a real
//! [`WebExecutor`] (here the counter application), while the checker side
//! holds a [`RemoteExecutor`] proxy that frames each request and reads
//! back the framed reply batch. Everything the in-process engine relies
//! on — full first snapshot, incremental deltas after it, version-checked
//! stale-action handling, event batching — crosses the wire unchanged,
//! and the report comes out identical to an in-process run of the same
//! seed, which the example asserts. The proxy's `send` blocks on the
//! socket, and a remote executor is where latency hiding pays: with
//! `CheckOptions::multiplex` above one, each worker keeps several
//! sessions (connections) in flight, each proxy blocking on a thread of
//! its own. The proxy sets no timeout, so a hung server blocks its
//! session.

use quickstrom::prelude::*;
use quickstrom::quickstrom_apps::Counter;
use quickstrom::quickstrom_protocol::wire;
use quickstrom::quickstrom_protocol::{CheckerMsg, ExecutorMsg};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

/// The checker-side proxy: an [`Executor`] whose `send` writes one framed
/// [`CheckerMsg`] and reads one framed reply batch. The request/reply
/// discipline is synchronous by construction, so the proxy needs no
/// buffering or reordering logic — ordering is the transport's.
struct RemoteExecutor {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RemoteExecutor {
    /// Opens one session: one TCP connection, one executor on the far
    /// side.
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RemoteExecutor {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }
}

impl Executor for RemoteExecutor {
    fn send(&mut self, msg: CheckerMsg) -> Vec<ExecutorMsg> {
        wire::write_frame(&mut self.writer, &wire::encode_checker_msg(&msg))
            .expect("ship the checker message");
        let payload = wire::read_frame(&mut self.reader)
            .expect("read the reply frame")
            .expect("the server closed mid-session");
        wire::decode_executor_batch(&payload).expect("decode the reply batch")
    }
}

/// One server session: decode framed checker messages, feed them to a
/// fresh in-process [`WebExecutor`], ship each reply batch back framed.
/// `End` (or the peer closing the connection) finishes the session.
fn serve_session(stream: TcpStream) {
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let mut executor = WebExecutor::new(Counter::new);
    while let Some(payload) = wire::read_frame(&mut reader).expect("read a request frame") {
        let msg = wire::decode_checker_msg(&payload).expect("decode the checker message");
        let done = matches!(msg, CheckerMsg::End);
        let replies = executor.send(msg);
        wire::write_frame(&mut writer, &wire::encode_executor_batch(&replies))
            .expect("ship the reply batch");
        if done {
            break;
        }
    }
}

fn main() {
    // Bind an ephemeral port and serve sessions forever; the process
    // exits with main, so the listener thread needs no shutdown path.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let stream = conn.expect("accept a session");
            thread::spawn(move || serve_session(stream));
        }
    });
    println!("serving counter sessions on {addr}");

    let options = CheckOptions::default()
        .with_tests(15)
        .with_max_actions(30)
        .with_default_demand(25)
        .with_seed(1719);

    // The remote run: every session is a TCP connection to the server.
    let spec = specstrom::load(quickstrom::specs::COUNTER).expect("the bundled spec compiles");
    let remote = check_spec(&spec, &options, &move || {
        Box::new(RemoteExecutor::connect(addr).expect("connect a session"))
    })
    .expect("no protocol errors");
    println!("over the wire: {remote}");

    // The oracle: the same seed against the same app, in-process (a fresh
    // spec so shared caches can't blur the comparison).
    let spec = specstrom::load(quickstrom::specs::COUNTER).expect("the bundled spec compiles");
    let local = check_spec(&spec, &options, &|| {
        Box::new(WebExecutor::new(Counter::new))
    })
    .expect("no protocol errors");
    println!("in process:    {local}");

    assert_eq!(
        remote, local,
        "the wire must be invisible: same verdicts, runs, states, actions"
    );
    assert!(remote.passed(), "the counter spec holds");
    println!("reports are identical across the process boundary ✓");
}
