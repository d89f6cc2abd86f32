package transport

import (
	"fmt"
	"sync"
	"time"

	"netmax/internal/codec"
)

// TCPHub wires a whole NetMax process group over loopback TCP: one
// TCPWorkerServer per registered worker plus one TCPMonitorServer. It
// implements the same surface as LocalNet, so internal/live can run
// unchanged over real sockets (a live manifest with "transport": "tcp",
// run by cmd/netmax-scenario). Peer and monitor handles are cached, so
// every (from, to) pair reuses one persistent connection for the life of
// the hub.
type TCPHub struct {
	mu          sync.RWMutex
	workers     map[int]*TCPWorkerServer
	addrs       map[int]string
	peers       map[[2]int]*TCPPeer
	clients     []*TCPMonitorClient
	codec       codec.Codec
	pullTimeout time.Duration
	mon         *TCPMonitorServer
	monAddr     string

	reportMu sync.RWMutex
	report   func(from, to int, secs float64, bytes int64)
}

// NewTCPHub starts the monitor endpoint and returns an empty hub. Close
// must be called to release listeners and connections.
func NewTCPHub() (*TCPHub, error) {
	h := &TCPHub{
		workers: make(map[int]*TCPWorkerServer),
		addrs:   make(map[int]string),
		peers:   make(map[[2]int]*TCPPeer),
		codec:   codec.Raw{},
	}
	mon, err := ServeMonitor("127.0.0.1:0", func(from, to int, secs float64, bytes int64) {
		h.reportMu.RLock()
		f := h.report
		h.reportMu.RUnlock()
		if f != nil {
			f(from, to, secs, bytes)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("transport: start monitor: %w", err)
	}
	h.mon = mon
	h.monAddr = mon.Addr()
	return h, nil
}

// Register starts a TCP server answering pulls for worker id, encoding
// responses with the hub's current codec.
func (h *TCPHub) Register(id int, src ModelSource) {
	srv, err := ServeWorker("127.0.0.1:0", src)
	if err != nil {
		// Registration failures surface on the first pull; a hub on
		// loopback with ephemeral ports only fails under fd exhaustion.
		return
	}
	h.mu.Lock()
	srv.SetCodec(h.codec)
	h.workers[id] = srv
	h.addrs[id] = srv.Addr()
	h.mu.Unlock()
}

// SetCodec switches the codec on every registered worker server (and on
// workers registered afterwards).
func (h *TCPHub) SetCodec(c codec.Codec) {
	if c == nil {
		c = codec.Raw{}
	}
	h.mu.Lock()
	h.codec = c
	for _, srv := range h.workers {
		srv.SetCodec(c)
	}
	h.mu.Unlock()
}

// SetPullTimeout installs the per-call deadline on every cached peer and
// monitor handle and on handles created afterwards. Zero disables
// deadlines.
func (h *TCPHub) SetPullTimeout(d time.Duration) {
	h.mu.Lock()
	h.pullTimeout = d
	for _, p := range h.peers {
		p.SetTimeout(d)
	}
	for _, c := range h.clients {
		c.SetTimeout(d)
	}
	h.mu.Unlock()
}

// SetWorkerDown injects a crash (or recovery) for worker id's endpoint:
// while down, its server tears down live connections and drops incoming
// pulls, so peers fail fast with ErrPeerDown. Unknown ids are ignored.
func (h *TCPHub) SetWorkerDown(id int, down bool) {
	h.mu.RLock()
	srv := h.workers[id]
	h.mu.RUnlock()
	if srv != nil {
		srv.SetDown(down)
	}
}

// Peer returns the persistent TCP pull handle from worker `from` to worker
// `to`, creating it on first use. Before `to` registers, the returned
// handle has no address (pulls fail) and is not cached, so a later call
// picks up the registered address.
func (h *TCPHub) Peer(from, to int) Peer {
	key := [2]int{from, to}
	h.mu.RLock()
	p, ok := h.peers[key]
	h.mu.RUnlock()
	if ok {
		return p
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.peers[key]; ok {
		return p
	}
	addr, registered := h.addrs[to]
	p = &TCPPeer{From: from, Addr: addr, Timeout: h.pullTimeout}
	if registered {
		h.peers[key] = p
	}
	return p
}

// Monitor returns a worker-side monitor client on its own persistent
// connection; the hub closes it on Close.
func (h *TCPHub) Monitor() MonitorClient {
	h.mu.Lock()
	c := &TCPMonitorClient{Addr: h.monAddr, Timeout: h.pullTimeout}
	h.clients = append(h.clients, c)
	h.mu.Unlock()
	return c
}

// SetPolicy publishes a policy through the monitor endpoint.
func (h *TCPHub) SetPolicy(p [][]float64, rho float64) {
	h.mon.SetPolicy(p, rho)
}

// OnReport installs the monitor-side sink for time reports.
func (h *TCPHub) OnReport(f func(from, to int, secs float64, bytes int64)) {
	h.reportMu.Lock()
	h.report = f
	h.reportMu.Unlock()
}

// Close stops every listener and tears down every cached client
// connection, waiting for all server goroutines to exit.
func (h *TCPHub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var first error
	for _, p := range h.peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, c := range h.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range h.workers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := h.mon.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
