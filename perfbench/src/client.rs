//! The load generator's own NDJSON client.
//!
//! It deliberately does not use `skyup_serve::Client`: each request goes
//! out in one `write` on a `TCP_NODELAY` socket, so any stall between a
//! request and its response is the server's, and a change to the
//! program's client cannot change what the benchmark measures.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            buf: Vec::with_capacity(256),
        })
    }

    pub fn nodelay(&self) -> bool {
        self.stream.nodelay().unwrap_or(false)
    }

    /// Sends `line` plus its newline in a single write.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.stream.write_all(&self.buf)
    }

    /// Reads one response line (without its newline).
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(line)
    }

    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}
