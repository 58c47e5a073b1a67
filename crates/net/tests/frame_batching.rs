//! The server's batched frame I/O over real loopback sockets: request
//! frames that arrive together are parsed from one buffered read and
//! answered in order, bit-identical to [`run_serial`]; a request that
//! trickles in one byte at a time still parses; and the transport
//! counters show fewer socket calls than frames.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fpfpga_fabric::tech::Tech;
use fpfpga_net::wire::{
    append_frame, control_frame, decode_result, encode_spec, read_frame, write_frame,
};
use fpfpga_net::{Frame, FrameError, FrameKind, NetConfig, NetServer, ServerReport};
use fpfpga_serve::{
    run_serial, synth_trace, JobResult, JobSpec, Priority, ServeConfig, TraceConfig,
};

/// The server's idle poll tick (`POLL_TICK` in `server.rs`).
const POLL_TICK: Duration = Duration::from_millis(25);

/// A trace with every job set to complete (normal priority, no
/// deadline), and its serial oracle.
fn trace(seed: u64, jobs: usize) -> (Vec<JobSpec>, Vec<JobResult>) {
    let specs: Vec<JobSpec> = synth_trace(&TraceConfig {
        seed,
        jobs,
        rate_hz: 1e6,
        ..TraceConfig::default()
    })
    .into_iter()
    .map(|ev| JobSpec {
        priority: Priority::Normal,
        deadline: None,
        ..ev.spec
    })
    .collect();
    let want = run_serial(&specs, &Tech::virtex2pro());
    (specs, want)
}

/// Serve one connection on an ephemeral loopback port: `talk` drives
/// the client side, then the server drains and reports.
fn serve_one(jobs: usize, talk: impl FnOnce(TcpStream)) -> ServerReport {
    let config = NetConfig {
        serve: ServeConfig {
            workers: 2,
            queue_capacity: jobs.max(1),
            tech: Tech::virtex2pro(),
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let stop = server.stop_handle();
    let join = std::thread::spawn(move || server.run());
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    talk(stream);
    stop.stop();
    join.join().expect("server thread")
}

fn request(req_id: u64, spec: &JobSpec) -> Frame {
    Frame {
        kind: FrameKind::Request,
        req_id,
        body: encode_spec(spec),
    }
}

/// Read `want.len()` answers and check they come in send order (ids
/// from `first_id`) and equal the oracle.
fn expect_answers(reader: &mut BufReader<TcpStream>, first_id: u64, want: &[JobResult]) {
    for (req_id, want) in (first_id..).zip(want) {
        let frame = read_frame(reader).expect("answer");
        assert_eq!(frame.req_id, req_id, "answers arrive in send order");
        assert_eq!(frame.kind, FrameKind::Response);
        assert_eq!(&decode_result(&frame.body).expect("decodes"), want);
    }
}

#[test]
fn burst_in_one_write_is_answered_in_order_with_fewer_socket_calls() {
    let (specs, want) = trace(17, 48);
    let start = Instant::now();
    let report = serve_one(specs.len(), |mut stream| {
        let mut burst = Vec::new();
        for (req_id, spec) in (1..).zip(&specs) {
            append_frame(&mut burst, &request(req_id, spec)).expect("encode");
        }
        stream.write_all(&burst).expect("send burst");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        expect_answers(&mut reader, 1, &want);
        // Wait for the server to close, so the goodbye is counted.
        write_frame(&mut stream, &control_frame(FrameKind::Goodbye, 0)).expect("goodbye");
        assert!(matches!(read_frame(&mut reader), Err(FrameError::Eof)));
    });
    let elapsed = start.elapsed();
    let net = report.net;
    assert_eq!(net.frames_in, specs.len() as u64 + 1, "requests + goodbye");
    assert_eq!(net.frames_out, specs.len() as u64);
    assert_eq!(net.protocol_errors, 0);
    // Writes coalesce: never more than one per frame. Reads take in
    // the burst at once: every read either delivers frames or is an
    // idle tick (one per POLL_TICK at most, plus the one in progress).
    assert!(
        net.write_calls <= net.frames_out,
        "{} writes for {} frames",
        net.write_calls,
        net.frames_out
    );
    let ticks = (elapsed.as_millis() / POLL_TICK.as_millis()) as u64 + 1;
    assert!(
        net.read_calls <= net.frames_in + ticks,
        "{} reads for {} frames and at most {ticks} idle ticks",
        net.read_calls,
        net.frames_in
    );
}

#[test]
fn request_dripped_one_byte_per_write_is_answered() {
    let (specs, want) = trace(5, 2);
    let report = serve_one(specs.len(), |mut stream| {
        let mut wire = Vec::new();
        append_frame(&mut wire, &request(1, &specs[0])).expect("encode");
        // Gaps well inside one poll tick: the server sees a slow
        // sender, not an idle one, and must not lose sync.
        for byte in &wire {
            stream.write_all(std::slice::from_ref(byte)).expect("drip");
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        expect_answers(&mut reader, 1, &want[..1]);
        // The stream is still in sync for a whole frame after it.
        wire.clear();
        append_frame(&mut wire, &request(2, &specs[1])).expect("encode");
        stream.write_all(&wire).expect("send");
        expect_answers(&mut reader, 2, &want[1..]);
    });
    assert_eq!(report.net.protocol_errors, 0);
    assert_eq!(report.pool.completed, 2);
}
