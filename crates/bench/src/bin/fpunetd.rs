//! `fpunetd` — serve the fpfpga pool over TCP.
//!
//! Binds the `fpfpga-net` wire protocol on a socket and feeds decoded
//! [`JobSpec`]s to a [`ServePool`], with the serving hardening the
//! front-end adds: per-tenant token-bucket quotas, connection limits
//! with retry-after backpressure, idle timeouts, optional adaptive
//! coalescing, and drain-on-shutdown (every accepted job is answered
//! before the process exits).
//!
//! ```text
//! fpunetd --addr 127.0.0.1:7070 --workers 4 --adaptive
//! # ... serve until a client sends the Shutdown frame:
//! fpunet --addr 127.0.0.1:7070 --jobs 100 --shutdown
//! ```
//!
//! The process exits when a client sends [`FrameKind::Shutdown`]
//! (`fpunet --shutdown`) or when `--max-seconds` elapses; either way it
//! drains the pool, answers everything in flight, and prints the final
//! report (text, or the JSON report with `--json`).
//!
//! [`FrameKind::Shutdown`]: fpfpga_net::FrameKind::Shutdown

use std::time::Duration;

use fpfpga::prelude::*;
use fpfpga_bench::cli::{bad_flag, parse_num, EXIT_USAGE};
use fpfpga_bench::json::metrics_json;
use fpfpga_net::{
    AdaptiveConfig, NetConfig, NetServer, QuotaConfig, QuotaLimits, ServerReport, ShutdownPolicy,
};
use serde_json::json;

const HELP: &str = "fpunetd — TCP front-end for the fpfpga serving pool

Usage: fpunetd [options]

Transport:
  --addr <host:port>   bind address (default 127.0.0.1:7070; port 0
                       picks an ephemeral port, printed on stdout)
  --max-conns <n>      simultaneous connection limit (default 64)
  --idle-timeout-s <s> close connections idle this long (default 30)
  --max-seconds <s>    stop serving after this long (default: until a
                       Shutdown frame arrives)
  --shutdown-from <p>  who may drain the server with a Shutdown frame:
                       loopback (default) | any | none — excluded
                       peers get a typed Denied reject

Pool:
  --workers <n>        worker (= shard) count (default 4)
  --queue <n>          per-shard queue capacity (default 256)
  --window <n>         initial coalesce window (default 16)
  --adaptive           drive the coalesce window from the live
                       batch-occupancy metric

Quotas (token buckets; burst = one second's refill):
  --quota-ops <r>      default per-tenant request rate (req/s)
  --quota-bytes <r>    default per-tenant payload byte rate (bytes/s)
  --tenant-quota <t=ops[:bytes]>
                       per-tenant override, repeatable
                       (e.g. --tenant-quota noisy=100:1e6)

Report:
  --json               emit the final report as JSON
  -h, --help           print this help and exit

Exit codes: 0 clean drain, 1 runtime failure, 2 usage";

const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--max-conns",
    "--idle-timeout-s",
    "--max-seconds",
    "--shutdown-from",
    "--workers",
    "--queue",
    "--window",
    "--quota-ops",
    "--quota-bytes",
    "--tenant-quota",
];

/// Parse `t=ops[:bytes]` into a tenant name and its limits.
fn parse_tenant_quota(value: &str) -> (String, QuotaLimits) {
    let Some((tenant, rest)) = value.split_once('=') else {
        bad_flag("--tenant-quota", value, "tenant=ops or tenant=ops:bytes");
    };
    let (ops, bytes) = match rest.split_once(':') {
        Some((o, b)) => (o, Some(b)),
        None => (rest, None),
    };
    let ops: f64 = parse_num("--tenant-quota", ops, "an ops/s rate");
    let bytes = bytes.map(|b| parse_num("--tenant-quota", b, "a bytes/s rate"));
    (
        tenant.to_string(),
        QuotaLimits {
            ops_per_s: Some(ops),
            bytes_per_s: bytes,
        },
    )
}

fn report_text(r: &ServerReport) {
    let n = &r.net;
    println!("fpunetd — drained clean");
    println!(
        "  connections: {} accepted, {} refused at the limit",
        n.accepted, n.refused_conns
    );
    println!(
        "  frames: {} in / {} out — {} requests, {} responses, {} rejects, {} protocol errors",
        n.frames_in, n.frames_out, n.requests, n.responses, n.rejects, n.protocol_errors
    );
    println!(
        "  socket calls: {} reads / {} writes (for {} frames in / {} out)",
        n.read_calls, n.write_calls, n.frames_in, n.frames_out
    );
    let m = &r.pool;
    let q = |p: f64| {
        m.latency_quantile_us(p)
            .map_or("-".to_string(), |us| format!("{us} µs"))
    };
    println!(
        "  pool: {} completed, {} rejected, {} timed out, {} shed; p50 ≤ {}, p99 ≤ {}",
        m.completed,
        m.rejected,
        m.timed_out,
        m.shed,
        q(0.50),
        q(0.99)
    );
    for (tenant, u) in &r.tenants {
        let name = if tenant.is_empty() { "(anon)" } else { tenant };
        println!(
            "  tenant {name}: {} ops / {} bytes admitted, {} + {} refused (ops/bytes)",
            u.ops, u.bytes, u.rejected_ops, u.rejected_bytes
        );
    }
    if r.evicted_tenants > 0 {
        println!(
            "  {} idle tenant meters evicted at the tracking cap",
            r.evicted_tenants
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--adaptive" || a == "--json" {
            i += 1;
        } else if VALUE_FLAGS.contains(&a) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => {
                    eprintln!("error: {a} requires a value");
                    std::process::exit(EXIT_USAGE);
                }
            }
        } else {
            eprintln!(
                "error: unrecognized argument '{a}' (flags: {} , --adaptive --json -h)",
                VALUE_FLAGS.join(" ")
            );
            std::process::exit(EXIT_USAGE);
        }
    }
    let get = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let as_json = args.iter().any(|a| a == "--json");

    let addr = get("--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let workers: usize =
        get("--workers").map_or(4, |v| parse_num("--workers", &v, "a worker count"));
    let queue: usize = get("--queue").map_or(256, |v| parse_num("--queue", &v, "a queue capacity"));
    let window: usize =
        get("--window").map_or(16, |v| parse_num("--window", &v, "a coalesce window size"));
    let max_conns: usize =
        get("--max-conns").map_or(64, |v| parse_num("--max-conns", &v, "a connection limit"));
    let idle_s: f64 = get("--idle-timeout-s").map_or(30.0, |v| {
        parse_num("--idle-timeout-s", &v, "an idle timeout in seconds")
    });
    let max_seconds: Option<f64> = get("--max-seconds")
        .map(|v| parse_num("--max-seconds", &v, "a serving duration in seconds"));
    let shutdown_policy = match get("--shutdown-from").as_deref().unwrap_or("loopback") {
        "loopback" => ShutdownPolicy::LoopbackOnly,
        "any" => ShutdownPolicy::Any,
        "none" => ShutdownPolicy::Deny,
        other => bad_flag("--shutdown-from", other, "loopback, any or none"),
    };

    let mut quotas = QuotaConfig::unlimited().with_default(QuotaLimits {
        ops_per_s: get("--quota-ops").map(|v| parse_num("--quota-ops", &v, "an ops/s rate")),
        bytes_per_s: get("--quota-bytes").map(|v| parse_num("--quota-bytes", &v, "a bytes/s rate")),
    });
    for (i, a) in args.iter().enumerate() {
        if a == "--tenant-quota" {
            let (tenant, limits) = parse_tenant_quota(&args[i + 1]);
            quotas = quotas.with_tenant(tenant, limits);
        }
    }

    let config = NetConfig {
        serve: ServeConfig {
            workers,
            queue_capacity: queue,
            coalesce_window: window,
            tech: Tech::virtex2pro(),
            ..ServeConfig::default()
        },
        quotas,
        max_connections: max_conns,
        idle_timeout: Duration::from_secs_f64(idle_s),
        adaptive: args
            .iter()
            .any(|a| a == "--adaptive")
            .then(AdaptiveConfig::default),
        shutdown_policy,
    };

    let server = match NetServer::bind(&addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let local = server.local_addr().expect("bound address");
    // Scripts parse this line (ephemeral ports with --addr host:0).
    println!("fpunetd listening on {local}");
    use std::io::Write;
    std::io::stdout().flush().ok();

    if let Some(secs) = max_seconds {
        let stop = server.stop_handle();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.stop();
        });
    }
    let report = server.run();

    if as_json {
        let doc = json!({
            "tool": "fpunetd",
            "addr": local.to_string(),
            "workers": workers,
            "net": json!({
                "accepted": report.net.accepted,
                "refused_conns": report.net.refused_conns,
                "frames_in": report.net.frames_in,
                "frames_out": report.net.frames_out,
                "read_calls": report.net.read_calls,
                "write_calls": report.net.write_calls,
                "requests": report.net.requests,
                "responses": report.net.responses,
                "rejects": report.net.rejects,
                "protocol_errors": report.net.protocol_errors,
            }),
            "pool": metrics_json(&report.pool),
            "tenants": report.tenants.iter().map(|(t, u)| json!({
                "tenant": t,
                "ops": u.ops,
                "bytes": u.bytes,
                "rejected_ops": u.rejected_ops,
                "rejected_bytes": u.rejected_bytes,
            })).collect::<Vec<_>>(),
            "evicted_tenants": report.evicted_tenants,
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
    } else {
        report_text(&report);
    }
}
