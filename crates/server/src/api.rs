//! Request routing and response shaping for the `ucp-api/2` surface.
//!
//! Every JSON response carries the `"api":"ucp-api/2"` tag; every error
//! is the `{"api":…,"error":{"code":…,"message":…}}` envelope with the
//! HTTP status canonically derived from the wire code
//! (`WireCode::http_status` — one table, no per-route status picking).

use crate::http::{write_response, ChunkedWriter, Request};
use crate::jobs::parse_wire_id;
use crate::{ServerState, SubmitVerdict};
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use ucp_core::wire::{SubmitBody, WireCode, WireError, WIRE_API};
use ucp_telemetry::JsonObj;

const JSON: &str = "application/json";
const NDJSON: &str = "application/x-ndjson";

/// Dispatches one parsed request.
pub(crate) fn handle(
    state: &Arc<ServerState>,
    req: &Request,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => submit(state, req, stream),
        ("GET", ["v1", "jobs", id]) => poll(state, id, stream),
        ("DELETE", ["v1", "jobs", id]) => cancel(state, id, stream),
        ("GET", ["v1", "jobs", id, "trace"]) => trace(state, id, stream),
        ("GET", ["v1", "stats"]) => stats(state, stream),
        ("GET", ["metrics"]) => metrics(state, stream),
        (_, ["v1", "jobs"]) | (_, ["v1", "jobs", ..]) | (_, ["metrics"]) | (_, ["v1", "stats"]) => {
            let err = WireError::new(
                WireCode::BadRequest,
                format!("method {} not allowed here", req.method),
            );
            respond_json(stream, 405, &error_body(&err), &[])
        }
        _ => respond_error(
            stream,
            &WireError::new(WireCode::NotFound, format!("no route {:?}", req.path)),
            &[],
        ),
    }
}

fn submit(state: &Arc<ServerState>, req: &Request, stream: &mut TcpStream) -> io::Result<()> {
    let body = match std::str::from_utf8(&req.body)
        .map_err(|_| WireError::new(WireCode::BadRequest, "body is not UTF-8"))
        .and_then(SubmitBody::parse)
    {
        Ok(body) => body,
        Err(err) => {
            state.metrics().rejected_invalid.inc();
            return respond_error(stream, &err, &[]);
        }
    };
    match state.submit(body, req.header("x-ucp-tenant")) {
        SubmitVerdict::Accepted(status) => {
            let location = format!("/v1/jobs/{}", status.id);
            respond_json(
                stream,
                201,
                &status.to_json(),
                &[("Location", location.as_str())],
            )
        }
        SubmitVerdict::Refused { error, retry_after } => {
            let retry = retry_after.map(|s| s.to_string());
            let mut headers: Vec<(&str, &str)> = Vec::new();
            if let Some(retry) = &retry {
                headers.push(("Retry-After", retry.as_str()));
            }
            respond_error(stream, &error, &headers)
        }
    }
}

fn poll(state: &Arc<ServerState>, id: &str, stream: &mut TcpStream) -> io::Result<()> {
    let status = parse_wire_id(id).and_then(|id| state.table().poll(id));
    match status {
        Some(status) => respond_json(stream, 200, &status.to_json(), &[]),
        None => respond_error(stream, &unknown_job(id), &[]),
    }
}

fn cancel(state: &Arc<ServerState>, id: &str, stream: &mut TcpStream) -> io::Result<()> {
    let status = parse_wire_id(id).and_then(|id| state.table().cancel(id));
    match status {
        Some(status) => respond_json(stream, 200, &status.to_json(), &[]),
        None => respond_error(stream, &unknown_job(id), &[]),
    }
}

/// Streams the job's `ucp-trace/1` JSONL live: whatever is buffered is
/// sent immediately, then chunks follow the solve until the stream is
/// sealed by the terminal `job_result` line.
fn trace(state: &Arc<ServerState>, id: &str, stream: &mut TcpStream) -> io::Result<()> {
    let Some(numeric) = parse_wire_id(id) else {
        return respond_error(stream, &unknown_job(id), &[]);
    };
    let buf = match state.table().trace(numeric) {
        None => return respond_error(stream, &unknown_job(id), &[]),
        Some(None) => {
            return respond_error(
                stream,
                &WireError::new(
                    WireCode::NotFound,
                    format!("job {id:?} was not submitted with \"trace\": true"),
                ),
                &[],
            )
        }
        Some(Some(buf)) => buf,
    };
    state.metrics().trace_streams.inc();
    let mut writer = ChunkedWriter::begin(stream, 200, NDJSON)?;
    let mut offset = 0usize;
    loop {
        // Polling the table drives the job's terminal transition (and
        // the closing trace line) even if no one else is watching.
        state.table().poll(numeric);
        let (chunk, eof) = buf.read_from(offset, Duration::from_millis(50));
        offset += chunk.len();
        writer.chunk(&chunk)?;
        if eof {
            return writer.finish();
        }
    }
}

fn stats(state: &Arc<ServerState>, stream: &mut TcpStream) -> io::Result<()> {
    let engine = state.engine().stats();
    let mut e = JsonObj::new();
    e.field_u64("submitted", engine.submitted);
    e.field_u64("completed", engine.completed);
    e.field_u64("cancelled", engine.cancelled);
    e.field_u64("expired", engine.expired);
    e.field_u64("panicked", engine.panicked);
    e.field_u64("aborted", engine.aborted);
    e.field_u64("queued", engine.queued);
    e.field_u64("running", engine.running);
    e.field_u64("resumed", engine.resumed);
    let mut o = JsonObj::new();
    o.field_str("api", WIRE_API);
    o.field_f64("uptime_seconds", state.uptime_seconds());
    o.field_u64("jobs_tracked", state.table().len() as u64);
    o.field_u64("jobs_accepted", state.metrics().accepted.get());
    o.field_u64("jobs_shed", state.metrics().shed.get());
    o.field_u64("jobs_recovered", state.metrics().recovered.get());
    o.field_raw("engine", &e.finish());
    respond_json(stream, 200, &o.finish(), &[])
}

fn metrics(state: &Arc<ServerState>, stream: &mut TcpStream) -> io::Result<()> {
    state.metrics().jobs_tracked.set(state.table().len() as f64);
    // metrics_snapshot refreshes the engine's derived gauges; the
    // exposition itself renders from the registry.
    state.engine().metrics_snapshot();
    let text = state.engine().registry().render_prometheus();
    write_response(
        stream,
        200,
        "text/plain; version=0.0.4",
        &[],
        text.as_bytes(),
    )
}

fn unknown_job(id: &str) -> WireError {
    WireError::new(WireCode::NotFound, format!("no job {id:?}"))
}

fn error_body(err: &WireError) -> String {
    let mut o = JsonObj::new();
    o.field_str("api", WIRE_API);
    o.field_raw("error", &err.to_json());
    o.finish()
}

/// Writes the canonical error envelope with the code's own HTTP status.
pub(crate) fn respond_error(
    stream: &mut TcpStream,
    err: &WireError,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    respond_json(
        stream,
        err.code.http_status(),
        &error_body(err),
        extra_headers,
    )
}

fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    write_response(stream, status, JSON, extra_headers, body.as_bytes())
}
