//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, `Content-Length` bodies only (all the server sends).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            out: Vec::with_capacity(1 << 14),
        })
    }

    /// Sends one request and reads its whole reply.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body.as_bytes());
        self.stream.write_all(&self.out)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(invalid)?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("status line"))?;
        let len = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| invalid("missing Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body =
            String::from_utf8(self.buf[head_end..head_end + len].to_vec()).map_err(invalid)?;
        Ok(Reply { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16384];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
