//! A minimal keep-alive HTTP/1.1 client. The benchmark owns it, so a
//! change to the server crate's own client cannot move the numbers.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response: status and raw body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One persistent connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by earlier responses.
    pos: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
        })
    }

    /// Sends one request and reads its whole response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: wcbench\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        if body.len() <= 16 * 1024 {
            let mut msg = Vec::with_capacity(head.len() + body.len());
            msg.extend_from_slice(head.as_bytes());
            msg.extend_from_slice(body);
            self.stream.write_all(&msg)?;
        } else {
            self.stream.write_all(head.as_bytes())?;
            self.stream.write_all(body)?;
        }
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let len = self.buf.len();
        self.buf.resize(len + 64 * 1024, 0);
        let n = self.stream.read(&mut self.buf[len..])?;
        self.buf.truncate(len + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// Index just past the next CRLF at or after `from`, filling as needed.
    fn line_end(&mut self, from: usize) -> io::Result<usize> {
        loop {
            if let Some(i) = self.buf[from..].windows(2).position(|w| w == b"\r\n") {
                return Ok(from + i + 2);
            }
            self.fill()?;
        }
    }

    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() - self.pos < n {
            self.fill()?;
        }
        let out = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }

    fn read_response(&mut self) -> io::Result<Response> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
        let end = self.line_end(self.pos)?;
        let status_line = String::from_utf8_lossy(&self.buf[self.pos..end - 2]).into_owned();
        self.pos = end;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length: Option<usize> = None;
        let mut chunked = false;
        loop {
            let end = self.line_end(self.pos)?;
            let line = String::from_utf8_lossy(&self.buf[self.pos..end - 2]).into_owned();
            self.pos = end;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
                } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                    chunked = true;
                }
            }
        }
        let body = if chunked {
            let mut body = Vec::new();
            loop {
                let end = self.line_end(self.pos)?;
                let size_text = String::from_utf8_lossy(&self.buf[self.pos..end - 2]).into_owned();
                self.pos = end;
                let size =
                    usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
                        .map_err(|_| bad("bad chunk size"))?;
                let chunk = self.take(size + 2)?;
                if size == 0 {
                    break;
                }
                body.extend_from_slice(&chunk[..size]);
            }
            body
        } else {
            self.take(length.ok_or_else(|| bad("response without a length"))?)?
        };
        Ok(Response { status, body })
    }
}
