//! A small blocking `ucp-api/2` client over one keep-alive connection —
//! shared by the load generator and the integration tests, so every
//! consumer exercises the same wire path.

use crate::http::read_chunked;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use ucp_core::wire::{JobStatusDto, SubmitBody, WireError};

/// One HTTP response, body fully read (chunked bodies are decoded).
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// A blocking HTTP/1.1 client pinned to one server address. Reuses its
/// connection across requests (keep-alive) and transparently reconnects
/// once if the server closed it in between.
pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<Conn>,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }
}

impl HttpClient {
    /// Resolves `addr` (e.g. `"127.0.0.1:8080"`) and connects lazily on
    /// the first request.
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        Ok(HttpClient { addr, conn: None })
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, &[], b"")
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request("POST", path, &[("Content-Type", "application/json")], body)
    }

    pub fn delete(&mut self, path: &str) -> io::Result<Response> {
        self.request("DELETE", path, &[], b"")
    }

    /// Sends one request and reads the full response. A send or
    /// response-read failure on a *reused* connection retries once on a
    /// fresh one (the server may have reaped an idle keep-alive).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.request_once(method, path, headers, body) {
            Ok(resp) => Ok(resp),
            Err(e) if reused => {
                self.conn = None;
                self.request_once(method, path, headers, body)
                    .map_err(|_| e)
            }
            Err(e) => Err(e),
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Response> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(self.addr)?);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: ucp\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        conn.writer.write_all(head.as_bytes())?;
        conn.writer.write_all(body)?;
        conn.writer.flush()?;
        let resp = read_response(&mut conn.reader);
        match &resp {
            // A response that closes the connection (413, shutdown)
            // leaves nothing to reuse.
            Ok(r)
                if r.header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close")) =>
            {
                self.conn = None;
            }
            Err(_) => self.conn = None,
            _ => {}
        }
        resp
    }

    /// Submits a job body; returns the parsed pending status on 201 and
    /// the (status, wire error) pair otherwise.
    pub fn submit(
        &mut self,
        body: &SubmitBody,
    ) -> io::Result<Result<JobStatusDto, (u16, WireError)>> {
        let resp = self.post("/v1/jobs", body.to_json().as_bytes())?;
        Ok(sort_status(&resp))
    }

    /// Polls one job by wire id (`"j-12"`).
    pub fn poll(&mut self, id: &str) -> io::Result<Result<JobStatusDto, (u16, WireError)>> {
        let resp = self.get(&format!("/v1/jobs/{id}"))?;
        Ok(sort_status(&resp))
    }
}

fn sort_status(resp: &Response) -> Result<JobStatusDto, (u16, WireError)> {
    match parse_wire_error(resp) {
        Some(err) => Err((resp.status, err)),
        None => JobStatusDto::parse(resp.body_str()).map_err(|e| (resp.status, e)),
    }
}

/// Extracts the `{"error":{...}}` envelope from a non-2xx response.
pub fn parse_wire_error(resp: &Response) -> Option<WireError> {
    if resp.status < 400 {
        return None;
    }
    let v = ucp_telemetry::trace::parse_json(resp.body_str()).ok()?;
    WireError::from_json_value(v.get("error")?).ok()
}

fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<Response> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked(reader)?
    } else {
        let len = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        body
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}
