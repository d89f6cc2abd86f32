// Package live runs NetMax as an actual concurrent process group — real
// goroutine workers exchanging models over a Transport, a real Network
// Monitor regenerating policies on a wall-clock timer — as opposed to the
// discrete-event simulation in internal/engine. The per-worker state is the
// engine's: each goroutine drives an engine.Worker (model, SGD, batch
// cursor, RNG) and a core.Peer (policy row, ρ, EMA time vector), so the two
// runtimes share one copy of Algorithm 2's worker rule. This is the
// deployment-shaped half of the reproduction: the examples use the
// in-process transport with injected latency, and live manifests run by
// cmd/netmax-scenario can use either it or TCP.
package live

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netmax/internal/codec"
	"netmax/internal/core"
	"netmax/internal/data"
	"netmax/internal/engine"
	"netmax/internal/monitor"
	"netmax/internal/nn"
	"netmax/internal/simnet"
	"netmax/internal/transport"
)

// Config describes a live NetMax group.
type Config struct {
	Spec  nn.ModelSpec
	Part  *data.Partition
	Test  *data.Dataset
	LR    float64
	Batch int
	Seed  int64
	// Ts is the monitor's wall-clock policy period; it must be positive.
	Ts time.Duration
	// Duration bounds the run (wall clock); zero means rely on Iterations.
	Duration time.Duration
	// Iterations bounds per-worker iterations; zero means rely on Duration.
	Iterations int
	// Codec compresses model pulls on the wire (nil keeps the transport's
	// default raw float64 encoding). Sparse codecs turn pulls into partial
	// model pulls: untransmitted coordinates keep the puller's local value.
	Codec codec.Codec
	// PullTimeout bounds every model pull and monitor exchange: a hung or
	// dead peer costs at most one deadline instead of blocking the worker
	// forever. Zero disables deadlines.
	PullTimeout time.Duration
	// Churn schedules wall-clock crash/rejoin events for workers: the
	// worker goes silent (and its transport endpoint refuses pulls) at At,
	// and resumes at Rejoin with the parameters it held when it crashed.
	Churn []ChurnEvent
}

// ChurnEvent is one scheduled live crash. Rejoin at or before At means the
// worker leaves permanently.
type ChurnEvent struct {
	Worker int
	At     time.Duration // since run start
	Rejoin time.Duration // since run start; <= At means permanent
}

const (
	// DefaultTs is the monitor's policy period when a manifest sets none.
	DefaultTs = 500 * time.Millisecond
	// DefaultPullTimeout is the conservative per-call deadline when a
	// manifest sets none.
	DefaultPullTimeout = 2 * time.Second
	// stalePeriods is the monitor's liveness window: a worker silent for
	// this many Ts periods is evicted and policies regenerate over the
	// live subgraph.
	stalePeriods = 3
)

// Stats summarizes a live run.
type Stats struct {
	// IterationsPerWorker counts completed iterations per worker.
	IterationsPerWorker []int
	// FinalAccuracy of the averaged model on the test set.
	FinalAccuracy float64
	// FinalLoss of the averaged model on the test set.
	FinalLoss float64
	// PolicyVersions is the number of policy broadcasts observed.
	PolicyVersions int
	// BytesOnWire is the total encoded payload volume of all model pulls,
	// as produced by the configured codec.
	BytesOnWire int64
	// Pulls counts completed cross-worker model pulls.
	Pulls int64
	// PeerDownErrors counts pulls that failed with transport.ErrPeerDown
	// (dead or hung peers, expired deadlines).
	PeerDownErrors int64
	// Elapsed wall time.
	Elapsed time.Duration
}

// worker is one live training replica: the engine's worker state plus the
// lock that lets peers read its model while it trains.
type worker struct {
	*engine.Worker
	mu      sync.Mutex // guards model vector reads vs. local updates
	peer    *core.Peer
	version int // policy version the peer last adopted

	// masked marks peers whose pulls failed with ErrPeerDown; a masked
	// peer is skipped in selection until the monitor reacts (a new policy
	// version arrives) or a retry cooldown expires. Owned by the worker
	// goroutine — no locking.
	masked   []bool
	maskedAt []time.Time

	churn    []ChurnEvent // this worker's crash schedule, ascending by At
	churnIdx int
}

func (w *worker) vector() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Model.Vector()
}

// validPolicy reports whether a fetched policy fits an m-worker group: P is
// m×m and ρ is finite and positive. The policy may come over a socket from
// a monitor serving another group, so a policy of any other shape is
// ignored rather than indexed.
func validPolicy(P [][]float64, rho float64, m int) bool {
	if len(P) != m || !(rho > 0) || math.IsInf(rho, 1) {
		return false
	}
	for _, row := range P {
		if len(row) != m {
			return false
		}
	}
	return true
}

// Hub is the transport surface the live group needs; both
// transport.LocalNet (in-process, injectable latency) and transport.TCPHub
// (loopback sockets) satisfy it.
type Hub interface {
	Register(id int, src transport.ModelSource)
	Peer(from, to int) transport.Peer
	Monitor() transport.MonitorClient
	SetPolicy(p [][]float64, rho float64)
	SetCodec(c codec.Codec)
	SetPullTimeout(d time.Duration)
	SetWorkerDown(id int, down bool)
	OnReport(f func(from, to int, secs float64, bytes int64))
}

// Run executes the live group until the configured bound and returns stats.
// The transport hub must be fresh; Run registers all workers on it.
func Run(ctx context.Context, cfg Config, hub Hub) *Stats {
	m := len(cfg.Part.Shards)
	adj := simnet.FullyConnected(m)

	// A masked peer is retried after the monitor has had a fair chance to
	// react: the staleness window plus one period.
	maskCooldown := cfg.Ts * (stalePeriods + 1)

	if cfg.Codec != nil {
		hub.SetCodec(cfg.Codec)
	}
	hub.SetPullTimeout(cfg.PullTimeout)
	start := time.Now()
	mon := monitor.New(monitor.Config{Adj: adj, Alpha: cfg.LR, Period: cfg.Ts.Seconds(), StalePeriods: stalePeriods})
	hub.OnReport(func(from, to int, secs float64, _ int64) {
		mon.ObserveAt(from, to, secs, time.Since(start).Seconds())
	})

	ws := engine.NewWorkers(cfg.Spec, cfg.Part, cfg.LR, cfg.Batch, cfg.Seed)
	peers := core.NewPeers(adj, cfg.LR, core.DefaultBeta)
	workers := make([]*worker, m)
	for i := range workers {
		w := &worker{
			Worker:   ws[i],
			peer:     peers[i],
			masked:   make([]bool, m),
			maskedAt: make([]time.Time, m),
		}
		for _, ev := range cfg.Churn {
			if ev.Worker == i {
				w.churn = append(w.churn, ev)
			}
		}
		sort.Slice(w.churn, func(a, b int) bool { return w.churn[a].At < w.churn[b].At })
		workers[i] = w
		hub.Register(i, w.vector)
	}

	// Always derive a cancellable context: when the run is bounded by
	// Iterations rather than Duration, the monitor goroutine must still be
	// stopped once the workers finish.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.Duration > 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// Monitor loop: wall-clock periodic policy regeneration.
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		ticker := time.NewTicker(cfg.Ts)
		defer ticker.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
				if pol, ok := mon.MaybeRegenerate(time.Since(start).Seconds()); ok {
					hub.SetPolicy(pol.P, pol.Rho)
				}
			}
		}
	}()

	counts := make([]int, m)
	var wireBytes, pulls, peerDown atomic.Int64
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			monClient := hub.Monitor()
			for it := 0; cfg.Iterations == 0 || it < cfg.Iterations; it++ {
				select {
				case <-runCtx.Done():
					return
				default:
				}
				// Scheduled churn: crash (endpoint refuses pulls, no
				// iterations, no reports) and rejoin with the parameters
				// held at crash time. A permanent leave exits the loop.
				for w.churnIdx < len(w.churn) && time.Since(start) >= w.churn[w.churnIdx].At {
					ev := w.churn[w.churnIdx]
					w.churnIdx++
					hub.SetWorkerDown(w.ID, true)
					if ev.Rejoin <= ev.At {
						return
					}
					if wait := ev.Rejoin - time.Since(start); wait > 0 {
						select {
						case <-runCtx.Done():
							return
						case <-time.After(wait):
						}
					}
					hub.SetWorkerDown(w.ID, false)
				}
				// Adopt a newer policy if one was broadcast and fits the
				// group (the peer falls back to uniform selection if the
				// policy pins it to self).
				// Masks reset only for peers the new row assigns mass — the
				// monitor believes those are usable. (A version generated
				// just before a crash can still carry mass on the dead peer
				// and cost one more deadline; the cooldown bounds that.) A
				// masked peer the policy dropped stays masked, which is a
				// no-op anyway since its row mass is zero.
				if p, rho, v, err := monClient.FetchPolicy(); err == nil && v > w.version && validPolicy(p, rho, m) {
					w.peer.Adopt(p, rho)
					w.version = v
					for k, mk := range w.masked {
						if mk && w.peer.Row()[k] > 0 {
							w.masked[k] = false
						}
					}
				}
				// Retry cooldown: while the monitor publishes no new
				// policy, a mask would otherwise be permanent and a
				// rejoining peer never re-admitted.
				for k, mk := range w.masked {
					if mk && time.Since(w.maskedAt[k]) > maskCooldown {
						w.masked[k] = false
					}
				}
				j := w.peer.Select(w.masked, w.Rng)
				iterStart := time.Now()
				// Pull the neighbor's model concurrently with the local
				// gradient step (Algorithm 2's overlap). The pull arrives
				// undecoded; decoding waits for the blend step so sparse
				// codecs substitute the post-step vector — not a stale
				// snapshot — on untransmitted coordinates.
				var pulled *transport.Pull
				var pullErr error
				done := make(chan struct{})
				if j != w.ID {
					go func() {
						pulled, pullErr = hub.Peer(w.ID, j).PullModel()
						close(done)
					}()
				} else {
					close(done)
				}
				w.mu.Lock()
				w.GradStep()
				w.mu.Unlock()
				<-done
				if j != w.ID && pullErr == nil && pulled != nil {
					coef := w.peer.Coef(j)
					w.mu.Lock()
					var prior []float64
					if pulled.NeedsPrior() {
						prior = w.Model.Vector()
					}
					vec, decErr := pulled.Decode(prior)
					if decErr == nil {
						w.Model.BlendVector(coef, vec)
					}
					w.mu.Unlock()
					if decErr == nil {
						pulledBytes := pulled.WireBytes()
						wireBytes.Add(pulledBytes)
						pulls.Add(1)
						secs := time.Since(iterStart).Seconds()
						_ = monClient.ReportTime(w.ID, j, w.peer.UpdateTime(j, secs), pulledBytes)
					}
				} else if j != w.ID && pullErr != nil {
					// Failed pull: mask the peer locally until the monitor
					// reacts, and report the attempt's (deadline-inflated)
					// cost so the link degrades in the policy input rather
					// than keeping its last attractive time.
					if errors.Is(pullErr, transport.ErrPeerDown) {
						w.masked[j] = true
						w.maskedAt[j] = time.Now()
						peerDown.Add(1)
					}
					secs := time.Since(iterStart).Seconds()
					_ = monClient.ReportTime(w.ID, j, w.peer.UpdateTime(j, secs), 0)
				}
				counts[w.ID]++ // safe: one writer per index
			}
		}(w)
	}
	wg.Wait()
	cancel()
	<-monDone

	// Final consensus model. The workers have stopped, so their models are
	// read without locks.
	avg := engine.AverageModel(cfg.Spec, cfg.Seed, ws)
	x, labels := cfg.Test.Batch(0, cfg.Test.Len())
	_, _, version, _ := hub.Monitor().FetchPolicy()
	return &Stats{
		IterationsPerWorker: counts,
		FinalAccuracy:       avg.Accuracy(x, labels),
		FinalLoss:           avg.Loss(x, labels),
		PolicyVersions:      version,
		BytesOnWire:         wireBytes.Load(),
		Pulls:               pulls.Load(),
		PeerDownErrors:      peerDown.Load(),
		Elapsed:             time.Since(start),
	}
}
