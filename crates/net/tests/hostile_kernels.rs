//! Payloads that used to panic a worker, over real sockets: a singular
//! LU matrix completes with the divider's IEEE results and no pool
//! failure; a pipe depth outside `1..=MAX_PIPE_STAGES` gets a typed
//! `Invalid` reject.

use fpfpga_matmul::{LuEngine, Matrix};
use fpfpga_net::{ErrorCode, NetClient, NetConfig, NetServer, Response, ServerReport};
use fpfpga_serve::{EltOp, Job, JobResult, JobSpec, Kernel, ServeConfig, MAX_PIPE_STAGES};
use fpfpga_softfp::{FpFormat, RoundMode};

const RM: RoundMode = RoundMode::NearestEven;
const F: FpFormat = FpFormat::DOUBLE;

/// Serve `specs` one at a time on one connection to a one-worker
/// server; returns the responses and the server's final report.
fn serve(specs: &[JobSpec]) -> (Vec<Response>, ServerReport) {
    let config = NetConfig {
        serve: ServeConfig::with_workers(1),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr().unwrap()).expect("connect");
    let stop = server.stop_handle();
    let join = std::thread::spawn(move || server.run());
    let responses = specs
        .iter()
        .map(|s| client.call(s).expect("call"))
        .collect();
    client.goodbye().ok();
    stop.stop();
    (responses, join.join().expect("server thread"))
}

#[test]
fn singular_lu_completes_over_the_wire() {
    let eng = LuEngine::new(F, RM, 8, 6, 2);
    // The last pivot vanishes; a mid pivot vanishes over a 1 (1/0).
    let x_over_0 = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 2.0, 3.0];
    let matrices =
        [(2, &[1.0; 4][..]), (3, &x_over_0[..])].map(|(n, e)| Matrix::from_f64(F, n, n, e));
    let specs = matrices.clone().map(|a| {
        let kernel = Kernel::Lu {
            div_stages: 8,
            mac_stages: 6,
            p: 2,
            a,
        };
        JobSpec::new(Job::uniform(kernel, F, RM))
    });
    let (responses, report) = serve(&specs);
    for (a, resp) in matrices.iter().zip(responses) {
        let (want, batched) = (eng.factor(a), eng.factor_batched(a));
        assert_eq!((&batched.lu, batched.flags), (&want.lu, want.flags));
        match resp {
            Response::Completed(JobResult::Lu { lu, flags, .. }) => {
                assert_eq!((lu, flags), (want.lu, want.flags));
                assert_eq!(flags.div_by_zero, a.rows() == 3);
            }
            other => panic!("singular LU must complete, got {other:?}"),
        }
    }
    assert_eq!((report.pool.completed, report.pool.failed), (2, 0));
}

#[test]
fn out_of_range_pipe_depth_gets_a_typed_invalid_reject() {
    let kernel = Kernel::Eltwise {
        op: EltOp::Add,
        stages: MAX_PIPE_STAGES + 1,
        pairs: vec![(0, 0)],
    };
    let (responses, report) = serve(&[JobSpec::new(Job::uniform(kernel, F, RM))]);
    match &responses[0] {
        Response::Rejected(rej) => {
            assert_eq!(rej.code, ErrorCode::Invalid, "{rej:?}");
            assert!(rej.detail.contains("pipe depth"), "{rej:?}");
        }
        other => panic!("expected an Invalid reject, got {other:?}"),
    }
    assert_eq!(report.net.protocol_errors, 0);
}
