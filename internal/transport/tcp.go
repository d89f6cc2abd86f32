package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"netmax/internal/codec"
)

// The TCP transport speaks the persistent binary wire protocol of wire.go:
// clients dial once and exchange length-prefixed frames (message kind +
// codec id + payload) over the same connection for the life of the run,
// instead of the seed's gob-encoded dial-per-call scheme. Model payloads go
// through a pluggable codec (internal/codec), and every pull reports its
// encoded byte size so the monitor and the caller can account for real
// bytes-on-wire.

// listenerGroup is the shared server chassis: it owns the listener, tracks
// live connections so Close can unblock handler reads, and waits for every
// goroutine on shutdown.
type listenerGroup struct {
	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newListenerGroup(ln net.Listener) *listenerGroup {
	return &listenerGroup{ln: ln, conns: make(map[net.Conn]struct{})}
}

// serve runs the accept loop, invoking handle for each connection in its
// own goroutine. It returns when the listener is closed.
func (g *listenerGroup) serve(handle func(net.Conn)) {
	defer g.wg.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			// Accept fails permanently once the listener closes (and
			// transiently under fd exhaustion); either way, stop if Close
			// ran, otherwise back off briefly and keep accepting — a bare
			// retry would spin a core exactly when fds are scarce.
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if !g.track(conn) {
			conn.Close() // lost the race with Close
			continue
		}
		g.wg.Add(1)
		go func(c net.Conn) {
			defer g.wg.Done()
			defer g.untrack(c)
			defer c.Close()
			handle(c)
		}(conn)
	}
}

func (g *listenerGroup) track(c net.Conn) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.conns[c] = struct{}{}
	return true
}

func (g *listenerGroup) untrack(c net.Conn) {
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
}

// dropConns force-closes every live connection without touching the
// listener: existing peers see their exchanges fail as if the process
// died, while new connections are still accepted (and can be rejected at
// the protocol layer). Used for crash injection.
func (g *listenerGroup) dropConns() {
	g.mu.Lock()
	for c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
}

// close shuts the listener, force-closes every live connection (unblocking
// handler reads), and waits for the accept loop and all handlers to return.
func (g *listenerGroup) close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return nil
	}
	g.closed = true
	err := g.ln.Close()
	for c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	g.wg.Wait()
	return err
}

// --- worker server ---

// TCPWorkerServer answers model pulls for one worker over persistent
// connections, encoding responses with its configured codec (raw until
// SetCodec is called).
type TCPWorkerServer struct {
	grp *listenerGroup
	src ModelSource

	codecMu sync.RWMutex
	codec   codec.Codec
	down    bool
}

// ServeWorker starts answering pulls on addr (e.g. "127.0.0.1:0") and
// returns the server; its Addr method reports the bound address.
func ServeWorker(addr string, src ModelSource) (*TCPWorkerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPWorkerServer{grp: newListenerGroup(ln), src: src, codec: codec.Raw{}}
	s.grp.wg.Add(1)
	go s.grp.serve(s.handle)
	return s, nil
}

// SetCodec switches the codec used for subsequent pull responses.
func (s *TCPWorkerServer) SetCodec(c codec.Codec) {
	if c == nil {
		c = codec.Raw{}
	}
	s.codecMu.Lock()
	s.codec = c
	s.codecMu.Unlock()
}

// SetDown injects a crash (or recovery) for this worker's endpoint: while
// down, live connections are torn down and incoming pulls are dropped
// without a response, so clients fail fast with ErrPeerDown. The listener
// stays open — recovery is just SetDown(false), like a process restart on
// the same port.
func (s *TCPWorkerServer) SetDown(down bool) {
	s.codecMu.Lock()
	s.down = down
	s.codecMu.Unlock()
	if down {
		s.grp.dropConns()
	}
}

// Addr returns the listener's address.
func (s *TCPWorkerServer) Addr() string { return s.grp.ln.Addr().String() }

// Close stops the server: it unblocks the accept loop, tears down live
// connections, and waits for every handler goroutine to exit.
func (s *TCPWorkerServer) Close() error { return s.grp.close() }

// handle serves one persistent connection: pull frames in, model frames out,
// until the peer hangs up or Close tears the connection down.
func (s *TCPWorkerServer) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var rbuf, wbuf []byte
	for {
		kind, _, body, err := readFrame(r, &rbuf)
		if err != nil {
			return
		}
		if kind != msgPull {
			return // protocol violation; drop the connection
		}
		if _, err := parsePullReq(body); err != nil {
			return
		}
		s.codecMu.RLock()
		c := s.codec
		down := s.down
		s.codecMu.RUnlock()
		if down {
			return // crashed: drop the connection without answering
		}
		wbuf = appendPullResp(wbuf[:0], s.src(), c)
		if err := writeFrame(w, msgPullResp, c.ID(), wbuf); err != nil {
			return
		}
	}
}

// --- persistent client connection ---

// persistentConn is the shared client chassis: one lazily dialed
// connection plus the frame request/response exchange with its retry
// policy. Owners serialize access with their own mutex.
type persistentConn struct {
	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	rbuf  []byte
	armed bool // a deadline is currently set on conn
}

// roundTrip sends one request frame to addr and reads the response. A dead
// connection is redialed and the request retried once; every request is
// idempotent, so a retry after a lost response is safe. A positive timeout
// bounds every step — dial, write, response read — so a hung (not closed)
// peer costs at most one deadline instead of blocking the caller forever.
// The returned body aliases the connection's read buffer and is valid
// until the next call.
func (pc *persistentConn) roundTrip(addr string, timeout time.Duration, reqKind uint8, reqBody []byte, wantKind uint8) ([]byte, uint8, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := pc.ensure(addr, timeout); err != nil {
			return nil, 0, err
		}
		if timeout > 0 {
			pc.conn.SetDeadline(time.Now().Add(timeout))
			pc.armed = true
		} else if pc.armed {
			// The timeout was disabled after a deadline was armed on this
			// connection; a stale expired deadline would fail a healthy
			// peer.
			pc.conn.SetDeadline(time.Time{})
			pc.armed = false
		}
		if err := writeFrame(pc.w, reqKind, 0, reqBody); err != nil {
			pc.drop()
			lastErr = err
			if isTimeout(err) {
				// Deadline expired: the peer is hung, not restarted. A
				// retry would redial the still-listening socket and wait
				// out a second full deadline — doubling the documented
				// one-deadline cost of a hung peer.
				return nil, 0, fmt.Errorf("transport: %s: %w", addr, err)
			}
			continue
		}
		kind, codecID, body, err := readFrame(pc.r, &pc.rbuf)
		if err != nil {
			pc.drop()
			lastErr = err
			if isTimeout(err) {
				return nil, 0, fmt.Errorf("transport: %s: %w", addr, err)
			}
			continue
		}
		if kind != wantKind {
			pc.drop()
			return nil, 0, fmt.Errorf("%w: unexpected frame kind %d, want %d", errProtocol, kind, wantKind)
		}
		return body, codecID, nil
	}
	return nil, 0, fmt.Errorf("transport: %s: %w", addr, lastErr)
}

func (pc *persistentConn) ensure(addr string, timeout time.Duration) error {
	if pc.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	pc.conn = conn
	pc.r = bufio.NewReader(conn)
	pc.w = bufio.NewWriter(conn)
	return nil
}

// isTimeout reports whether err is (or wraps) a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// errProtocol marks wire-protocol violations (wrong frame kind, corrupt
// payloads): evidence of version skew or a framing bug, not of a dead
// peer. Pull failures carrying it must NOT classify as ErrPeerDown —
// masking a healthy peer would turn a hard bug into silent degradation.
var errProtocol = errors.New("transport: protocol violation")

func (pc *persistentConn) drop() error {
	if pc.conn == nil {
		return nil
	}
	err := pc.conn.Close()
	pc.conn, pc.r, pc.w = nil, nil, nil
	pc.armed = false
	return err
}

// --- worker client ---

// TCPPeer pulls models from a remote worker address over one persistent
// connection, redialing transparently if the connection drops. The zero
// value with Addr set is ready to use; it is safe for concurrent use.
// A positive Timeout bounds every pull (dial + request + response): a
// hung or dead peer then fails with an error wrapping ErrPeerDown instead
// of blocking the worker forever.
type TCPPeer struct {
	From    int
	Addr    string
	Timeout time.Duration

	mu   sync.Mutex
	pc   persistentConn
	wbuf []byte
}

// SetTimeout changes the per-call deadline for subsequent pulls.
func (p *TCPPeer) SetTimeout(d time.Duration) {
	p.mu.Lock()
	p.Timeout = d
	p.mu.Unlock()
}

// PullModel requests the peer's freshest parameter vector, returned
// undecoded (the caller decodes at blend time with its current vector).
// Transport-level failures — refused or dropped connections, deadline
// expiry — classify as ErrPeerDown: the peer is gone or unresponsive, and
// the caller should mask it until the monitor reacts.
func (p *TCPPeer) PullModel() (*Pull, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wbuf = appendPullReq(p.wbuf[:0], p.From)
	// Pulls are read-only on the server, so lost responses retry safely.
	body, codecID, err := p.pc.roundTrip(p.Addr, p.Timeout, msgPull, p.wbuf, msgPullResp)
	if err != nil {
		if errors.Is(err, errProtocol) {
			return nil, err // version skew / framing bug — peer is not down
		}
		return nil, fmt.Errorf("%w: %w", ErrPeerDown, err)
	}
	dim, payload, err := parsePullRespHeader(body)
	if err != nil {
		p.pc.drop()
		return nil, err
	}
	c, err := codec.ByID(codecID)
	if err != nil {
		p.pc.drop()
		return nil, err
	}
	// The body aliases the connection's read buffer; the Pull outlives
	// this call, so it takes a private copy.
	owned := make([]byte, len(payload))
	copy(owned, payload)
	return NewPull(c, dim, owned), nil
}

// priorFor returns prior only when it matches the advertised dimension;
// a stale prior (e.g. after a model resize) must not poison sparse decodes.
func priorFor(prior []float64, dim int) []float64 {
	if len(prior) == dim {
		return prior
	}
	return nil
}

// Close tears down the persistent connection, if any.
func (p *TCPPeer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pc.drop()
}

// --- monitor server ---

// TCPMonitorServer hosts the Network Monitor endpoint over persistent
// connections.
type TCPMonitorServer struct {
	grp    *listenerGroup
	report func(from, to int, secs float64, bytes int64)

	policyMu sync.RWMutex
	p        [][]float64
	rho      float64
	version  int
}

// ServeMonitor starts the monitor endpoint on addr; onReport receives every
// time report together with the reported transfer's encoded byte size.
func ServeMonitor(addr string, onReport func(from, to int, secs float64, bytes int64)) (*TCPMonitorServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPMonitorServer{grp: newListenerGroup(ln), report: onReport}
	s.grp.wg.Add(1)
	go s.grp.serve(s.handle)
	return s, nil
}

// Addr returns the listener's address.
func (s *TCPMonitorServer) Addr() string { return s.grp.ln.Addr().String() }

// SetPolicy publishes a new policy to pollers.
func (s *TCPMonitorServer) SetPolicy(p [][]float64, rho float64) {
	s.policyMu.Lock()
	defer s.policyMu.Unlock()
	s.p = p
	s.rho = rho
	s.version++
}

// Close stops the endpoint, tearing down live connections and waiting for
// every handler goroutine.
func (s *TCPMonitorServer) Close() error { return s.grp.close() }

func (s *TCPMonitorServer) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var rbuf, wbuf []byte
	for {
		kind, _, body, err := readFrame(r, &rbuf)
		if err != nil {
			return
		}
		switch kind {
		case msgReport:
			from, to, secs, bytes, err := parseReport(body)
			if err != nil {
				return
			}
			if s.report != nil {
				s.report(from, to, secs, bytes)
			}
			if err := writeFrame(w, msgReportAck, 0, nil); err != nil {
				return
			}
		case msgPolicy:
			s.policyMu.RLock()
			wbuf = appendPolicyResp(wbuf[:0], s.p, s.rho, s.version)
			s.policyMu.RUnlock()
			if err := writeFrame(w, msgPolicyResp, 0, wbuf); err != nil {
				return
			}
		default:
			return // protocol violation; drop the connection
		}
	}
}

// --- monitor client ---

// TCPMonitorClient is a worker's persistent-connection client to the
// monitor. The zero value with Addr set is ready to use; it is safe for
// concurrent use (calls serialize on one connection). A positive Timeout
// bounds each call the same way TCPPeer.Timeout bounds pulls.
type TCPMonitorClient struct {
	Addr    string
	Timeout time.Duration

	mu   sync.Mutex
	pc   persistentConn
	wbuf []byte
}

// SetTimeout changes the per-call deadline for subsequent monitor calls.
func (c *TCPMonitorClient) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.Timeout = d
	c.mu.Unlock()
}

// ReportTime sends one iteration-time observation along with the encoded
// byte size of the transfer it measured. A report is idempotent — the
// monitor keeps only the latest time per link — so one whose ack is lost
// is retried like a pull.
func (c *TCPMonitorClient) ReportTime(from, to int, secs float64, bytes int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendReport(c.wbuf[:0], from, to, secs, bytes)
	body, _, err := c.pc.roundTrip(c.Addr, c.Timeout, msgReport, c.wbuf, msgReportAck)
	if err != nil {
		return err
	}
	if len(body) != 0 {
		return fmt.Errorf("transport: report ack carried %d unexpected bytes", len(body))
	}
	return nil
}

// FetchPolicy retrieves the latest policy.
func (c *TCPMonitorClient) FetchPolicy() ([][]float64, float64, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, _, err := c.pc.roundTrip(c.Addr, c.Timeout, msgPolicy, c.wbuf[:0], msgPolicyResp)
	if err != nil {
		return nil, 0, 0, err
	}
	return parsePolicyResp(body)
}

// Close tears down the persistent connection, if any.
func (c *TCPMonitorClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pc.drop()
}
