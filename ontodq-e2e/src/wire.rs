//! The line protocol as a client sees it: one request line per `write`, then
//! read to the status line (`ok …` / `err: …`).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// `true` for the line that ends a response.  Data lines of every verb start
/// with something else: `(` for answers, `#`/`ontodq_` for `!metrics`,
/// `rule=`, `diag`, `slow`, or `!help`'s usage text.
pub fn is_status_line(line: &str) -> bool {
    let line = line.trim_end_matches(['\r', '\n']);
    line == "ok" || line.starts_with("ok ") || line.starts_with("err:")
}

/// The value of `key=` in a status line.
pub fn field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .split_ascii_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

pub fn field_u64(status: &str, key: &str) -> Option<u64> {
    field(status, key)?.parse().ok()
}

/// One complete response.
#[derive(Debug, Default)]
pub struct Reply {
    /// The status line, without its newline.
    pub status: String,
    /// Data lines before the status line.
    pub rows: usize,
    /// The data lines themselves, when the caller asked to keep them.
    pub data: Vec<String>,
    /// Response bytes, status line included.
    pub bytes: usize,
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("ok")
    }
}

/// Read one response from `reader` into `reply` (reusing its buffers).
pub fn read_reply(reader: &mut impl BufRead, keep: bool, reply: &mut Reply) -> io::Result<()> {
    reply.rows = 0;
    reply.bytes = 0;
    reply.data.clear();
    loop {
        reply.status.clear();
        let n = reader.read_line(&mut reply.status)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        reply.bytes += n;
        if is_status_line(&reply.status) {
            let trimmed = reply.status.trim_end_matches(['\r', '\n']).len();
            reply.status.truncate(trimmed);
            return Ok(());
        }
        reply.rows += 1;
        if keep {
            reply
                .data
                .push(reply.status.trim_end_matches(['\r', '\n']).to_string());
        }
    }
}

/// The client end of one protocol session: TCP to the real server, or one
/// half of a socket pair to a session served in this process.
pub struct Conn<S = TcpStream> {
    stream: S,
    reader: BufReader<S>,
}

impl Conn {
    /// Connect, set `TCP_NODELAY` on the client side (the server never does
    /// on its own) and consume the greeting.
    pub fn connect(port: u16) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        let mut conn = Conn::over(stream.try_clone()?, stream);
        let mut greeting = Reply::default();
        read_reply(&mut conn.reader, false, &mut greeting)?;
        if !greeting.is_ok() {
            return Err(io::Error::other(format!(
                "unexpected greeting: {}",
                greeting.status
            )));
        }
        Ok(conn)
    }
}

impl<S: Read + Write> Conn<S> {
    /// A session over two handles of one stream.
    pub fn over(read_half: S, write_half: S) -> Conn<S> {
        Conn {
            reader: BufReader::with_capacity(64 * 1024, read_half),
            stream: write_half,
        }
    }

    /// Send one newline-terminated line in one `write` and read the whole
    /// response into `reply`.
    pub fn exchange(&mut self, line: &str, keep: bool, reply: &mut Reply) -> io::Result<()> {
        debug_assert!(line.ends_with('\n'));
        self.stream.write_all(line.as_bytes())?;
        read_reply(&mut self.reader, keep, reply)
    }

    /// [`Conn::exchange`] for the occasional control request.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        let mut reply = Reply::default();
        self.exchange(&format!("{line}\n"), true, &mut reply)?;
        Ok(reply)
    }

    /// Like [`Conn::request`], but an `err:` status is an error.
    pub fn expect_ok(&mut self, line: &str) -> io::Result<Reply> {
        let reply = self.request(line)?;
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(io::Error::other(format!("{line}: {}", reply.status)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_end_multi_line_responses() {
        let wire = "(Sep/5-12:10, Tom Waits, 38.2)\n\
                    (Sep/6-11:50, Tom Waits, 37.1)\n\
                    ok answers=2 version=3 cached=false\n\
                    # HELP ontodq_x okay counter\n\
                    ontodq_x 1\n\
                    ok\n\
                    err: parse error: unexpected token\r\n\
                    okay is data\n\
                    ok staged=1\n";
        let mut reader = io::Cursor::new(wire);
        let mut reply = Reply::default();

        read_reply(&mut reader, true, &mut reply).unwrap();
        assert_eq!(reply.status, "ok answers=2 version=3 cached=false");
        assert_eq!(reply.rows, 2);
        assert_eq!(reply.data[1], "(Sep/6-11:50, Tom Waits, 37.1)");
        assert_eq!(field_u64(&reply.status, "answers"), Some(2));
        assert_eq!(field(&reply.status, "cached"), Some("false"));
        assert_eq!(field(&reply.status, "ver"), None);

        read_reply(&mut reader, false, &mut reply).unwrap();
        assert_eq!((reply.status.as_str(), reply.rows), ("ok", 2));
        assert!(reply.data.is_empty(), "data is kept only on request");

        read_reply(&mut reader, true, &mut reply).unwrap();
        assert!(!reply.is_ok());
        assert_eq!(reply.status, "err: parse error: unexpected token");

        read_reply(&mut reader, true, &mut reply).unwrap();
        assert_eq!(reply.data, vec!["okay is data"]);
        assert_eq!(reply.bytes, "okay is data\nok staged=1\n".len());

        let eof = read_reply(&mut reader, true, &mut reply).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }
}
