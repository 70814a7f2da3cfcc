//! The per-socket half of both readiness loops.
//!
//! [`crate::OdeServer`] and [`crate::OdeRouter`] each drive many
//! nonblocking sockets from one `epoll` loop. What one socket needs is
//! the same in both, and lives here once:
//!
//! - **handshake** — a socket accepted from a client owes the 4-byte
//!   magic; [`Wire::fill`] checks it as it arrives and queues the echo.
//!   A socket the router dialed did the client side of the handshake
//!   already ([`handshake`], blocking, on a dialer thread).
//! - **frame reassembly** — readable bytes feed a [`FrameBuffer`];
//!   partial reads leave a partial frame buffered.
//! - **partial writes** — outgoing frames append to an [`Outbox`],
//!   flushed as far as the socket takes them; the rest waits for
//!   writable readiness.
//! - **re-arming interest** — [`Wire::arm`] tells the poller what the
//!   owner can consume now: reads when it asks for them, writes while
//!   the outbox holds a backlog. Level-triggered, so a handler may take
//!   less than the socket offers and be woken again.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};

use polling::{Event, Poller};

use crate::protocol::{write_frame, FrameBuffer, MAGIC};
use crate::{NetError, Result};

/// The dialing side of the handshake on a blocking socket: send the
/// magic, expect it echoed back.
pub(crate) fn handshake(stream: &TcpStream) -> Result<()> {
    let mut stream = stream;
    stream.write_all(&MAGIC)?;
    let mut echo = [0u8; 4];
    stream.read_exact(&mut echo)?;
    if echo != MAGIC {
        return Err(NetError::Protocol(
            "server did not echo the handshake magic".into(),
        ));
    }
    Ok(())
}

/// Encoded frames waiting for the socket (`pos` = bytes already on the
/// wire).
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    buf: Vec<u8>,
    pos: usize,
    /// The socket's write side failed: frames are discarded from here
    /// on.
    pub(crate) dead: bool,
}

impl Outbox {
    /// Bytes queued but not yet written.
    pub(crate) fn backlog(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends one frame; returns its size on the wire (0 once dead).
    pub(crate) fn queue(&mut self, payload: &[u8]) -> u64 {
        if self.dead {
            return 0;
        }
        // Compact lazily once the sent prefix dominates.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        write_frame(&mut self.buf, payload).expect("Vec write is infallible")
    }
}

/// One nonblocking socket registered with a loop's poller.
pub(crate) struct Wire {
    stream: TcpStream,
    /// The poller key the socket is registered under.
    pub(crate) key: usize,
    /// Handshake progress: magic bytes received so far (below 4 the
    /// socket is still handshaking).
    magic_got: usize,
    /// Inbound bytes, yielding complete frames.
    pub(crate) rbuf: FrameBuffer,
    pub(crate) out: Outbox,
    /// The peer sent EOF (or reset): nothing more will arrive.
    pub(crate) peer_closed: bool,
    /// Interest currently armed, to skip no-op `modify` calls.
    armed: (bool, bool),
}

impl Wire {
    /// Make `stream` nonblocking and register it for reads under `key`.
    /// `handshaken` is false for an accepted socket, which must first
    /// deliver the magic; `out` may already hold frames.
    pub(crate) fn open(
        stream: TcpStream,
        key: usize,
        poller: &Poller,
        handshaken: bool,
        out: Outbox,
    ) -> io::Result<Wire> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        poller.add(&stream, Event::readable(key))?;
        Ok(Wire {
            stream,
            key,
            magic_got: if handshaken { MAGIC.len() } else { 0 },
            rbuf: FrameBuffer::new(),
            out,
            peer_closed: false,
            armed: (true, false),
        })
    }

    /// Read once — at most `scratch.len()` bytes — into `rbuf`,
    /// completing the handshake on the way. One read per readiness
    /// event: level-triggered polling brings the loop back for the
    /// rest, so a peer that writes as fast as it is read can neither
    /// hold the loop nor grow `rbuf` past what its owner consumes.
    /// Returns false when the peer's magic was wrong; the socket is
    /// then dead both ways.
    pub(crate) fn fill(&mut self, scratch: &mut [u8]) -> bool {
        if self.peer_closed {
            return true;
        }
        let n = loop {
            match self.stream.read(scratch) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(_) => {
                    // Reset mid-stream: nothing more arrives and
                    // nothing can be delivered.
                    self.peer_closed = true;
                    self.out.dead = true;
                    return true;
                }
            }
        };
        if n == 0 {
            self.peer_closed = true;
            return true;
        }
        let mut bytes = &scratch[..n];
        if self.magic_got < MAGIC.len() {
            let take = bytes.len().min(MAGIC.len() - self.magic_got);
            let (magic, rest) = bytes.split_at(take);
            if magic != &MAGIC[self.magic_got..self.magic_got + take] {
                self.peer_closed = true;
                self.out.dead = true;
                return false;
            }
            self.magic_got += take;
            bytes = rest;
            if self.magic_got == MAGIC.len() && !self.out.dead {
                // The echo is raw bytes, not a frame, and nothing can
                // be queued ahead of it.
                self.out.buf.extend_from_slice(&MAGIC);
            }
        }
        self.rbuf.extend(bytes);
        true
    }

    /// Write as much of the outbox as the socket takes. A write error
    /// marks the outbox dead and drops its backlog.
    pub(crate) fn flush(&mut self) {
        let out = &mut self.out;
        while out.pos < out.buf.len() && !out.dead {
            match self.stream.write(&out.buf[out.pos..]) {
                Ok(0) => out.dead = true,
                Ok(n) => out.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => out.dead = true,
            }
        }
        if out.dead {
            out.buf.clear();
            out.pos = 0;
        }
    }

    /// Arm read interest as asked, and write interest while a backlog
    /// waits.
    pub(crate) fn arm(&mut self, poller: &Poller, read: bool) -> io::Result<()> {
        let want = (read, self.out.backlog() > 0 && !self.out.dead);
        if want != self.armed {
            let ev = Event {
                key: self.key,
                readable: want.0,
                writable: want.1,
            };
            poller.modify(&self.stream, ev)?;
            self.armed = want;
        }
        Ok(())
    }

    /// Deregister and shut the socket down both ways. Whatever is still
    /// queued is dropped; flush first to try to deliver it.
    pub(crate) fn close(self, poller: &Poller) {
        let _ = poller.delete(&self.stream);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn fill_takes_one_read_per_call() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let poller = Poller::new().unwrap();
        let mut wire = Wire::open(stream, 1, &poller, true, Outbox::default()).unwrap();
        // Many reads' worth is waiting (and fits the socket buffers).
        peer.write_all(&[0u8; 64 << 10]).unwrap();
        let mut scratch = vec![0u8; 4096];
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(wire.fill(&mut scratch));
        // A peer writing as fast as it is read must not grow `rbuf`
        // past what the owner takes per wakeup.
        assert!((1..=4096).contains(&wire.rbuf.pending()));
    }
}
