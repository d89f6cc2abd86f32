package main

import (
	"sync"
	"time"

	"netmax/internal/live"
	"netmax/internal/transport"
)

// tracedHub wraps the live runtime's transport hub and times the calls the
// workers make through it: model pulls, monitor reports and policy
// fetches. Everything else passes straight through to the wrapped hub.
type tracedHub struct {
	live.Hub
	tr     *tracer
	run    string
	parent int

	mu         sync.Mutex
	pulls      []pullSample
	pullErrors int
}

// pullSample is one PullModel call as the calling worker saw it.
type pullSample struct {
	from, to   int
	start, end time.Time
}

func (h *tracedHub) Peer(from, to int) transport.Peer {
	return &tracedPeer{Peer: h.Hub.Peer(from, to), h: h, from: from, to: to}
}

func (h *tracedHub) Monitor() transport.MonitorClient {
	return &tracedMonitor{MonitorClient: h.Hub.Monitor(), h: h}
}

type tracedPeer struct {
	transport.Peer
	h        *tracedHub
	from, to int
}

func (p *tracedPeer) PullModel() (*transport.Pull, error) {
	start := time.Now()
	pull, err := p.Peer.PullModel()
	end := time.Now()
	p.h.tr.record("transport.pull", p.h.run, p.h.parent, start, end, 1)
	p.h.mu.Lock()
	if err != nil {
		p.h.pullErrors++
	} else {
		p.h.pulls = append(p.h.pulls, pullSample{p.from, p.to, start, end})
	}
	p.h.mu.Unlock()
	return pull, err
}

type tracedMonitor struct {
	transport.MonitorClient
	h *tracedHub
}

func (m *tracedMonitor) ReportTime(from, to int, secs float64, bytes int64) error {
	start := time.Now()
	err := m.MonitorClient.ReportTime(from, to, secs, bytes)
	m.h.tr.record("transport.report", m.h.run, m.h.parent, start, time.Now(), 1)
	return err
}

func (m *tracedMonitor) FetchPolicy() ([][]float64, float64, int, error) {
	start := time.Now()
	p, rho, v, err := m.MonitorClient.FetchPolicy()
	m.h.tr.record("transport.fetch_policy", m.h.run, m.h.parent, start, time.Now(), 1)
	return p, rho, v, err
}

// linkTimes returns the mean measured pull time per (from, to) link of an
// m-worker group; links never pulled over get the slowest observed mean.
func (h *tracedHub) linkTimes(m int) [][]float64 {
	sum := make([][]float64, m)
	cnt := make([][]int, m)
	for i := range sum {
		sum[i] = make([]float64, m)
		cnt[i] = make([]int, m)
	}
	for _, s := range h.pulls {
		sum[s.from][s.to] += s.end.Sub(s.start).Seconds()
		cnt[s.from][s.to]++
	}
	slowest := 0.0
	for i := range sum {
		for j := range sum[i] {
			if cnt[i][j] > 0 {
				sum[i][j] /= float64(cnt[i][j])
				slowest = max(slowest, sum[i][j])
			}
		}
	}
	for i := range sum {
		for j := range sum[i] {
			if i != j && cnt[i][j] == 0 {
				sum[i][j] = slowest
			}
		}
	}
	return sum
}
