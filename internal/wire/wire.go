// Package wire is the binary fast path for the hot service endpoints:
// a length-prefixed, CRC-framed protocol over persistent TCP
// connections, replacing per-request HTTP/JSON overhead with one frame
// round trip on a pooled connection.
//
// The protocol is deliberately tiny. A connection opens with a
// symmetric hello exchange:
//
//	magic "BUMPWIR\x00" (8) | format version u16 LE (2) | flags u16 LE (2)
//
// and then carries frames in both directions:
//
//	type u8 | body len u32 LE | CRC32-IEEE(body) u32 LE | body
//
// Frame types and body encodings belong to the layer above
// (internal/service encodes bodies with the snapshot canonical codec);
// this package only moves validated frames. A version mismatch at
// hello time is a typed *VersionError so clients can permanently fall
// back to the HTTP/JSON slow path for that server.
//
// Decoding is hostile-input safe: body length is capped, buffers grow
// incrementally against the actual stream (a lying length prefix
// cannot force a huge allocation), CRC mismatches and truncation are
// errors, and no input can panic the decoder (see FuzzWireFrame).
package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// FormatVersion is the wire protocol version, exchanged in the hello.
// Bump it on any incompatible change to the hello, the frame layout, or
// the body encodings layered on top (which reuse the snapshot codec:
// a snapshot.FormatVersion bump implies a wire bump too). Peers with
// different versions refuse the connection at hello time and fall back
// to HTTP/JSON, so mixed-version fleets degrade instead of corrupting.
//
// History: v1 had no hello flags; v2 added the flags word and the
// trace-context field in job-carrying bodies (the snapshot codec is
// positional, so the extra JobSpec field alone forces the bump); v3
// dropped the JobSpec workers field; v4 follows snapshot format 3
// (cache lines without PC and core); v5 follows snapshot format 4 (the
// profiler section only in profiled snapshots); v6 follows snapshot
// format 5 (the container's node-metadata block is gone; frames carry
// bare bodies, so no wire byte changes); v7 follows snapshot format 6
// (a distribution encodes as per-value counts; no wire byte changes);
// v8 follows snapshot format 7 (one LRU recency word per set instead of
// a stamp per entry; no wire byte changes).
const FormatVersion = 8

// Hello flag bits, advertised symmetrically in the hello's flags word.
const (
	// HelloFlagTraceContext advertises that this peer reads and
	// propagates the JobSpec trace-context field. A client clears
	// outbound trace IDs when the server lacks the flag.
	HelloFlagTraceContext uint16 = 1 << 0
)

// HelloFlags is what this build advertises.
const HelloFlags = HelloFlagTraceContext

// MaxBody bounds a frame body, mirroring the 64MB HTTP response cap in
// service.Client.
const MaxBody = 64 << 20

const magic = "BUMPWIR\x00"

const (
	helloLen    = len(magic) + 2 + 2
	frameHdrLen = 1 + 4 + 4
)

// VersionError reports a hello whose format version differs from ours.
type VersionError struct {
	Got uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: format version %d, want %d", e.Got, FormatVersion)
}

func errf(format string, args ...any) error {
	return fmt.Errorf("wire: "+format, args...)
}

// WriteHello writes our hello (magic + format version + flags).
func WriteHello(w io.Writer) error {
	var h [helloLen]byte
	copy(h[:], magic)
	binary.LittleEndian.PutUint16(h[len(magic):], FormatVersion)
	binary.LittleEndian.PutUint16(h[len(magic)+2:], HelloFlags)
	_, err := w.Write(h[:])
	return err
}

// ReadHello reads and validates the peer's hello, returning its flags
// word. A recognizable hello with a different format version is a
// *VersionError. The version is validated before the flags are read:
// a v1 peer's hello is two bytes shorter, and reading its flags would
// steal the first frame's bytes — but v1 is rejected on the version
// word alone, and the connection is dropped, so the short read never
// corrupts framing.
func ReadHello(r io.Reader) (uint16, error) {
	var h [len(magic) + 2]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, errf("short hello: %v", err)
	}
	if string(h[:len(magic)]) != magic {
		return 0, errf("bad hello magic")
	}
	if v := binary.LittleEndian.Uint16(h[len(magic):]); v != FormatVersion {
		return 0, &VersionError{Got: v}
	}
	var fl [2]byte
	if _, err := io.ReadFull(r, fl[:]); err != nil {
		return 0, errf("short hello flags: %v", err)
	}
	return binary.LittleEndian.Uint16(fl[:]), nil
}

// WriteFrame writes one frame: type, length, body CRC, body.
func WriteFrame(w io.Writer, typ byte, body []byte) error {
	if len(body) > MaxBody {
		return errf("frame body %d bytes exceeds cap %d", len(body), MaxBody)
	}
	var hdr [frameHdrLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[5:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads and validates one frame, returning its type and body.
// The body buffer is freshly allocated and owned by the caller.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, errf("short frame header: %v", err)
	}
	typ := hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	wantCRC := binary.LittleEndian.Uint32(hdr[5:])
	if n > MaxBody {
		return 0, nil, errf("frame body %d bytes exceeds cap %d", n, MaxBody)
	}
	// Grow against the actual stream so a lying length prefix on a
	// truncated input cannot force a giant allocation.
	var buf bytes.Buffer
	if n < 1<<20 {
		buf.Grow(int(n))
	} else {
		buf.Grow(1 << 20)
	}
	copied, err := io.Copy(&buf, io.LimitReader(r, int64(n)))
	if err != nil {
		return 0, nil, errf("frame body: %v", err)
	}
	if copied != int64(n) {
		return 0, nil, errf("truncated frame body: %d of %d bytes", copied, n)
	}
	body := buf.Bytes()
	if crc32.ChecksumIEEE(body) != wantCRC {
		return 0, nil, errf("frame CRC mismatch")
	}
	return typ, body, nil
}

// ---- Conn -------------------------------------------------------------

// Conn is one framed connection: a net.Conn with buffered IO and the
// hello already exchanged (after Handshake).
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// peerFlags is the peer's hello flags word (valid after Handshake).
	peerFlags uint16
}

// NewConn wraps a net connection; call Handshake before framing.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

// Handshake exchanges hellos symmetrically (write ours, read theirs)
// within timeout. Both sides write first, so neither blocks the other.
func (c *Conn) Handshake(timeout time.Duration) error {
	if timeout > 0 {
		c.nc.SetDeadline(time.Now().Add(timeout))
		defer c.nc.SetDeadline(time.Time{})
	}
	if err := WriteHello(c.bw); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	flags, err := ReadHello(c.br)
	if err != nil {
		return err
	}
	c.peerFlags = flags
	return nil
}

// PeerFlags returns the peer's hello flags word (zero before
// Handshake).
func (c *Conn) PeerFlags() uint16 { return c.peerFlags }

// TraceContext reports whether the peer advertised trace-context
// support in its hello.
func (c *Conn) TraceContext() bool { return c.peerFlags&HelloFlagTraceContext != 0 }

// WriteFrame writes and flushes one frame.
func (c *Conn) WriteFrame(typ byte, body []byte) error {
	if err := WriteFrame(c.bw, typ, body); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadFrame reads one frame.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	return ReadFrame(c.br)
}

// SetDeadline bounds both directions of the next IO operations.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// SetReadDeadline bounds the next reads.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// RemoteAddr names the peer.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// ---- Client pool ------------------------------------------------------

// PoolStats counts connection reuse on a client pool.
type PoolStats struct {
	Dials  uint64 `json:"dials"`
	Reuses uint64 `json:"reuses"`
}

// Pool is a client-side freelist of framed connections to one address.
// Get pops an idle connection or dials a new one; Put returns a healthy
// connection for reuse; Discard drops a broken one.
type Pool struct {
	addr        string
	dialTimeout time.Duration
	maxIdle     int

	mu     sync.Mutex
	idle   []*Conn
	closed bool
	stats  PoolStats
}

// NewPool returns a pool dialing addr ("host:port").
func NewPool(addr string) *Pool {
	return &Pool{addr: addr, dialTimeout: 10 * time.Second, maxIdle: 4}
}

// Get returns a ready connection and whether it was reused from the
// idle list (false = freshly dialed and handshaken).
func (p *Pool) Get(ctx context.Context) (*Conn, bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errf("pool closed")
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.stats.Reuses++
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()

	d := net.Dialer{Timeout: p.dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, false, err
	}
	c := NewConn(nc)
	if err := c.Handshake(p.dialTimeout); err != nil {
		c.Close()
		return nil, false, err
	}
	p.mu.Lock()
	p.stats.Dials++
	p.mu.Unlock()
	return c, false, nil
}

// Put returns a healthy connection to the idle list (closed if the
// pool is full or closed).
func (p *Pool) Put(c *Conn) {
	c.SetDeadline(time.Time{})
	p.mu.Lock()
	if p.closed || len(p.idle) >= p.maxIdle {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// Discard closes a connection whose state is no longer trustworthy.
func (p *Pool) Discard(c *Conn) { c.Close() }

// Stats returns cumulative dial/reuse counts.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close closes every idle connection and rejects further Gets.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// ---- Server -----------------------------------------------------------

// Server accepts framed connections and runs a handler per connection.
// The handler owns the connection until it returns; the server closes
// it afterwards and on shutdown.
type Server struct {
	l       net.Listener
	handler func(*Conn)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts accepting on l. Each connection is handshaken (and
// dropped on version skew) before handler runs on its own goroutine.
func Serve(l net.Listener, handler func(*Conn)) *Server {
	s := &Server{l: l, handler: handler, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr is the listen address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, nc)
				s.mu.Unlock()
				nc.Close()
			}()
			c := NewConn(nc)
			if err := c.Handshake(10 * time.Second); err != nil {
				return
			}
			s.handler(c)
		}()
	}
}

// Close stops accepting, severs every live connection, and waits for
// handlers to return.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	s.l.Close()
	for _, nc := range conns {
		nc.Close()
	}
	s.wg.Wait()
}
