//! A minimal embedded HTTP/1.1 scrape surface over std's `TcpListener`:
//! `GET /metrics` (Prometheus exposition), `GET /healthz` (JSON verdict),
//! `GET /series` (the ring time-series as JSON: an index of series names
//! without a query, one ring with `?metric=NAME`) and `GET /profile`
//! (the per-role resource profile joined with the latest sample rates).
//!
//! This is deliberately not a web framework: one readiness-driven accept
//! loop, one short-lived thread per connection, `Connection: close` on
//! every response. It exists so an edge deployment can be scraped and
//! probed without pulling an HTTP stack into the dependency tree.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use frame_telemetry::{render_prometheus, PromWriter, Telemetry};
use polling::{Event, Events, Poller};
use serde::Value;

use crate::health::HealthReport;
use crate::sampler::SharedSampler;

/// Largest request head we will buffer before giving up.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Key under which the listener is registered with the poller.
const LISTENER_KEY: usize = 0;

/// The embedded observability endpoint.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    thread: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` and starts serving `/metrics`, `/healthz` and
    /// `/series` from `telemetry` and the shared sampler.
    pub fn bind(
        addr: impl ToSocketAddrs,
        telemetry: Telemetry,
        sampler: SharedSampler,
    ) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // The accept loop parks on readiness instead of sleep-polling: a
        // scrape is served the moment the connection arrives, and an idle
        // endpoint costs no periodic wake-ups.
        let poller = Arc::new(Poller::new()?);
        poller.add(&listener, Event::readable(LISTENER_KEY))?;
        let thread = {
            let stop = stop.clone();
            let poller = poller.clone();
            std::thread::Builder::new()
                .name("frame-obs-http".into())
                .spawn(move || accept_loop(listener, poller, telemetry, sampler, stop))?
        };
        Ok(ObsServer {
            addr,
            stop,
            poller,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.poller.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    poller: Arc<Poller>,
    telemetry: Telemetry,
    sampler: SharedSampler,
    stop: Arc<AtomicBool>,
) {
    frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Obs, 0);
    let mut events = Events::new();
    while !stop.load(Ordering::Acquire) {
        // Park until the listener is readable or `shutdown` notifies; the
        // timeout is a safety net against a missed wake-up, not a poll.
        events.clear();
        let _ = poller.wait(&mut events, Some(std::time::Duration::from_secs(1)));
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Drain the accept backlog (oneshot: no event fires again until
        // re-armed below).
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let telemetry = telemetry.clone();
                    let sampler = sampler.clone();
                    let _ = std::thread::Builder::new()
                        .name("frame-obs-conn".into())
                        .spawn(move || {
                            frame_telemetry::register_thread_role(
                                frame_telemetry::RoleKind::Obs,
                                0,
                            );
                            let _ = handle_connection(stream, &telemetry, &sampler);
                            frame_telemetry::stamp_thread_cpu();
                        });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return,
            }
        }
        let _ = poller.modify(&listener, Event::readable(LISTENER_KEY));
    }
}

fn handle_connection(
    mut stream: TcpStream,
    telemetry: &Telemetry,
    sampler: &SharedSampler,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head; the routes take no body.
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > MAX_REQUEST_BYTES {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let response = route(method, target, telemetry, sampler);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Dispatches one request to its handler and renders the raw response.
fn route(method: &str, target: &str, telemetry: &Telemetry, sampler: &SharedSampler) -> String {
    if method != "GET" {
        return respond(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => respond(
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &metrics_body(telemetry, sampler),
        ),
        "/healthz" => {
            let health = latest_health(sampler);
            let body = Value::Object(vec![
                (
                    "status".to_string(),
                    Value::Str(health.verdict.name().to_string()),
                ),
                (
                    "reasons".to_string(),
                    Value::Array(health.reasons.iter().cloned().map(Value::Str).collect()),
                ),
            ]);
            let (code, text) = if health.verdict == crate::health::HealthVerdict::Unhealthy {
                (503, "Service Unavailable")
            } else {
                (200, "OK")
            };
            respond(code, text, "application/json", &json_line(&body))
        }
        "/series" => series_body(query, sampler),
        "/profile" => respond(
            200,
            "OK",
            "application/json",
            &profile_body(telemetry, sampler),
        ),
        _ => respond(
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /metrics, /healthz, /series (index; ?metric=NAME for one ring) \
             or /profile\n",
        ),
    }
}

/// The Prometheus exposition: everything `render_prometheus` exports,
/// plus the sampler's own health gauge and series bookkeeping.
fn metrics_body(telemetry: &Telemetry, sampler: &SharedSampler) -> String {
    let mut body = render_prometheus(&telemetry.snapshot());
    let (severity, series, dropped) = match sampler.lock() {
        Ok(s) => (
            s.latest().map_or(0, |p| p.health.verdict.severity()),
            s.store().len(),
            s.store().dropped(),
        ),
        Err(_) => (0, 0, 0),
    };
    let mut w = PromWriter::new();
    w.fixed(&[
        (
            "frame_health_status",
            "gauge",
            "Health verdict severity (0 healthy, 1 degraded, 2 unhealthy).",
            &[(&[], u64::from(severity))],
        ),
        (
            "frame_obs_series",
            "gauge",
            "Distinct ring time-series currently retained by the sampler.",
            &[(&[], series as u64)],
        ),
        (
            "frame_obs_series_dropped_total",
            "counter",
            "Samples dropped by the series cardinality guard.",
            &[(&[], dropped)],
        ),
    ]);
    body.push_str(&w.finish());
    body
}

/// The most recent health report, or an optimistic default before the
/// first sample lands.
fn latest_health(sampler: &SharedSampler) -> HealthReport {
    sampler
        .lock()
        .ok()
        .and_then(|s| s.latest().map(|p| p.health.clone()))
        .unwrap_or_else(HealthReport::healthy)
}

fn series_body(query: &str, sampler: &SharedSampler) -> String {
    // `?metric=` with an empty value is the same ask as no query at all:
    // serve the index instead of a guaranteed-404 lookup of "".
    let metric = query
        .split('&')
        .find_map(|kv| {
            kv.strip_prefix("metric=")
                .map(|v| v.replace("%2F", "/").replace('+', " "))
        })
        .filter(|name| !name.is_empty());
    let guard = match sampler.lock() {
        Ok(g) => g,
        Err(_) => {
            return respond(
                500,
                "Internal Server Error",
                "text/plain; charset=utf-8",
                "sampler poisoned\n",
            )
        }
    };
    match metric {
        None => {
            let names = guard
                .store()
                .names()
                .into_iter()
                .map(|n| Value::Str(n.to_string()))
                .collect();
            let body = Value::Object(vec![
                ("series".to_string(), Value::Array(names)),
                ("dropped".to_string(), Value::U64(guard.store().dropped())),
            ]);
            respond(200, "OK", "application/json", &json_line(&body))
        }
        Some(name) => match guard.store().get(&name) {
            Some(ring) => {
                let opt = |v: Option<f64>| v.map(Value::F64).unwrap_or(Value::Null);
                let points = ring
                    .points()
                    .map(|&(t, v)| Value::Array(vec![Value::U64(t), Value::F64(v)]))
                    .collect();
                let body = Value::Object(vec![
                    ("metric".to_string(), Value::Str(name)),
                    ("points".to_string(), Value::Array(points)),
                    ("min".to_string(), opt(ring.min())),
                    ("max".to_string(), opt(ring.max())),
                    ("last".to_string(), opt(ring.last())),
                    ("count".to_string(), Value::U64(ring.count())),
                ]);
                respond(200, "OK", "application/json", &json_line(&body))
            }
            None => {
                let body = Value::Object(vec![
                    (
                        "error".to_string(),
                        Value::Str("unknown metric".to_string()),
                    ),
                    ("metric".to_string(), Value::Str(name)),
                ]);
                respond(404, "Not Found", "application/json", &json_line(&body))
            }
        },
    }
}

/// The per-role resource profile: cumulative counters from the live
/// snapshot joined with the latest sample's interval rates (CPU
/// utilization, allocations-per-second, allocations-per-message).
fn profile_body(telemetry: &Telemetry, sampler: &SharedSampler) -> String {
    let snap = telemetry.snapshot();
    let opt_f64 = |v: Option<f64>| v.map(Value::F64).unwrap_or(Value::Null);
    let (latest_roles, allocs_per_msg, dt_ns) = match sampler.lock() {
        Ok(s) => match s.latest() {
            Some(p) => (p.roles.clone(), p.allocs_per_message(), p.dt_ns),
            None => (Vec::new(), None, 0),
        },
        Err(_) => (Vec::new(), None, 0),
    };
    let roles = snap
        .roles
        .iter()
        .map(|r| {
            let rate = latest_roles.iter().find(|lr| lr.role == r.role);
            Value::Object(vec![
                ("role".to_string(), Value::Str(r.role.clone())),
                ("hot_path".to_string(), Value::Bool(r.hot_path)),
                ("cpu_ns".to_string(), Value::U64(r.cpu_ns)),
                (
                    "cpu_util".to_string(),
                    opt_f64(rate.map(|lr| lr.cpu_utilization(dt_ns))),
                ),
                ("allocs".to_string(), Value::U64(r.allocs)),
                ("deallocs".to_string(), Value::U64(r.deallocs)),
                (
                    "allocs_per_sec".to_string(),
                    opt_f64(rate.map(|lr| lr.allocs_delta as f64 / (dt_ns.max(1) as f64 / 1e9))),
                ),
                ("alloc_bytes".to_string(), Value::U64(r.alloc_bytes)),
                ("current_bytes".to_string(), Value::U64(r.current_bytes)),
                ("peak_bytes".to_string(), Value::U64(r.peak_bytes)),
                ("read_syscalls".to_string(), Value::U64(r.read_syscalls)),
                ("write_syscalls".to_string(), Value::U64(r.write_syscalls)),
            ])
        })
        .collect();
    let loops = snap
        .reactor_loops
        .iter()
        .map(|l| {
            let wall = l.busy_ns + l.parked_ns;
            Value::Object(vec![
                ("loop".to_string(), Value::U64(l.loop_index)),
                ("busy_ns".to_string(), Value::U64(l.busy_ns)),
                ("parked_ns".to_string(), Value::U64(l.parked_ns)),
                (
                    "busy_ratio".to_string(),
                    if wall > 0 {
                        Value::F64(l.busy_ns as f64 / wall as f64)
                    } else {
                        Value::Null
                    },
                ),
                (
                    "write_queue_drops".to_string(),
                    Value::U64(l.write_queue_drops),
                ),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        (
            "alloc_profiling".to_string(),
            Value::Bool(frame_telemetry::alloc_profiling_enabled()),
        ),
        ("interval_ns".to_string(), Value::U64(dt_ns)),
        ("allocs_per_message".to_string(), opt_f64(allocs_per_msg)),
        ("roles".to_string(), Value::Array(roles)),
        ("reactor_loops".to_string(), Value::Array(loops)),
    ]);
    json_line(&body)
}

/// Renders a JSON value as a newline-terminated body.
fn json_line(value: &Value) -> String {
    let mut body = serde_json::to_string(value).expect("json body serializes");
    body.push('\n');
    body
}

fn respond(code: u16, text: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {code} {text}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{Sampler, SamplerConfig};
    use frame_telemetry::check_prometheus_conformance;
    use frame_types::{Duration, SeqNo, Time, TopicId};
    use std::sync::Mutex;

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let code: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    fn serve() -> (ObsServer, Telemetry, SharedSampler) {
        let telemetry = Telemetry::new();
        telemetry.set_topic_slo(TopicId(1), Duration::from_millis(100), Some(0));
        telemetry.record_admit();
        telemetry.record_delivery(
            TopicId(1),
            SeqNo(0),
            Time::from_millis(0),
            Time::from_millis(10),
            None,
        );
        let sampler: SharedSampler = Arc::new(Mutex::new(Sampler::new(SamplerConfig::default())));
        sampler
            .lock()
            .unwrap()
            .observe(&telemetry.snapshot(), Time::from_millis(100));
        let server =
            ObsServer::bind("127.0.0.1:0", telemetry.clone(), sampler.clone()).expect("bind");
        (server, telemetry, sampler)
    }

    #[test]
    fn metrics_endpoint_serves_conformant_exposition() {
        let (mut server, _telemetry, _sampler) = serve();
        let (code, body) = get(server.local_addr(), "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("frame_admitted_total 1"));
        assert!(body.contains("frame_health_status 0"));
        check_prometheus_conformance(&body).expect("conformant exposition");
        server.shutdown();
    }

    #[test]
    fn healthz_reports_verdict_and_reasons() {
        let (mut server, _telemetry, _sampler) = serve();
        let (code, body) = get(server.local_addr(), "/healthz");
        assert_eq!(code, 200);
        let parsed = serde_json::parse_value(&body).expect("json");
        assert_eq!(
            parsed.get("status").and_then(Value::as_str),
            Some("healthy")
        );
        assert_eq!(parsed.get("reasons"), Some(&Value::Array(Vec::new())));
        server.shutdown();
    }

    #[test]
    fn series_endpoint_lists_and_serves_rings() {
        let (mut server, _telemetry, _sampler) = serve();
        let (code, body) = get(server.local_addr(), "/series");
        assert_eq!(code, 200);
        let parsed = serde_json::parse_value(&body).expect("json");
        match parsed.get("series").expect("series key") {
            Value::Array(names) => {
                assert!(names.iter().any(|n| n.as_str() == Some("rate.deliver")))
            }
            other => panic!("series is not an array: {other:?}"),
        }

        let (code, body) = get(server.local_addr(), "/series?metric=rate.deliver");
        assert_eq!(code, 200);
        let parsed = serde_json::parse_value(&body).expect("json");
        assert_eq!(
            parsed.get("metric").and_then(Value::as_str),
            Some("rate.deliver")
        );
        assert_eq!(parsed.get("count"), Some(&Value::U64(1)));

        let (code, _) = get(server.local_addr(), "/series?metric=nope");
        assert_eq!(code, 404);

        // An empty metric value is an index request, not a 404.
        let (code, body) = get(server.local_addr(), "/series?metric=");
        assert_eq!(code, 200);
        let parsed = serde_json::parse_value(&body).expect("json");
        assert!(matches!(parsed.get("series"), Some(Value::Array(_))));
        server.shutdown();
    }

    #[test]
    fn profile_endpoint_reports_roles_and_rates() {
        frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Other, 51);
        frame_telemetry::stamp_thread_cpu();
        let (mut server, telemetry, sampler) = serve();
        // A second observation gives the sampler a real interval to rate.
        telemetry.record_delivery(
            TopicId(1),
            SeqNo(1),
            Time::from_millis(100),
            Time::from_millis(110),
            None,
        );
        sampler
            .lock()
            .unwrap()
            .observe(&telemetry.snapshot(), Time::from_millis(200));
        let (code, body) = get(server.local_addr(), "/profile");
        assert_eq!(code, 200);
        let parsed = serde_json::parse_value(&body).expect("json");
        let roles = match parsed.get("roles").expect("roles key") {
            Value::Array(roles) => roles,
            other => panic!("roles is not an array: {other:?}"),
        };
        assert!(!roles.is_empty(), "profile reports no roles");
        for role in roles {
            assert!(role.get("role").and_then(Value::as_str).is_some());
            assert!(role.get("cpu_ns").is_some());
            assert!(role.get("allocs").is_some());
        }
        assert!(parsed.get("allocs_per_message").is_some());
        assert!(parsed.get("reactor_loops").is_some());
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let (mut server, _telemetry, _sampler) = serve();
        let (code, _) = get(server.local_addr(), "/nope");
        assert_eq!(code, 404);

        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 405"));
        server.shutdown();
    }
}
