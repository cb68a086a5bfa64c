package net

import (
	"io"
	"net"
	"sync"
	"time"
)

// memLinkBuf bounds the bytes one direction of an in-memory link holds
// before Write blocks — the stand-in for a socket buffer, so a reader
// that stops draining pushes back on its writer as a TCP peer would.
const memLinkBuf = 256 << 10

// memPipe is one direction of an in-memory link: a bounded byte buffer
// with a write side that can be shut (the reader drains, then sees EOF)
// and a read side that can be closed (both ends fail from then on).
type memPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	eof  bool // writer half-closed
	shut bool // reader closed
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && !p.eof && !p.shut {
		p.cond.Wait()
	}
	if p.shut {
		return 0, net.ErrClosed
	}
	if len(p.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	if len(p.buf) == 0 {
		p.buf = p.buf[:0:0] // release the drained backing array
	}
	p.cond.Broadcast()
	return n, nil
}

func (p *memPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) >= memLinkBuf && !p.eof && !p.shut {
		p.cond.Wait()
	}
	if p.eof || p.shut {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *memPipe) set(flag *bool) {
	p.mu.Lock()
	*flag = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// memConn is one end of an in-memory link: a net.Conn that the node's
// readLoop, writeLoop, fault writer and graceful Close drive exactly as
// they drive a TCP connection, half-close included. Deadlines are not
// needed on a link that is wired before the node starts, so they are
// accepted and ignored.
type memConn struct {
	in, out *memPipe
}

// memLinkPair returns the two ends of one in-memory link.
func memLinkPair() (net.Conn, net.Conn) {
	ab, ba := newMemPipe(), newMemPipe()
	return &memConn{in: ba, out: ab}, &memConn{in: ab, out: ba}
}

func (c *memConn) Read(b []byte) (int, error)  { return c.in.read(b) }
func (c *memConn) Write(b []byte) (int, error) { return c.out.write(b) }

// CloseWrite half-closes the link: the peer reads what was written,
// then EOF.
func (c *memConn) CloseWrite() error {
	c.out.set(&c.out.eof)
	return nil
}

// Close shuts both directions: local reads fail and so do the peer's
// writes; the peer reads what was already written, then EOF.
func (c *memConn) Close() error {
	c.out.set(&c.out.eof)
	c.in.set(&c.in.shut)
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
