// Package core implements NetMax, the paper's primary contribution: the
// consensus SGD algorithm (Algorithm 2) driven by the adaptive communication
// policy of the Network Monitor (Algorithms 1 and 3).
//
// Each worker trains a model replica on its shard. Per iteration it
//  1. selects one neighbor m with probability p[i][m] (fast links likely),
//  2. requests x_m and, overlapped with the transfer, performs the local
//     gradient step x_i ← x_i − α∇f(x_i),
//  3. on receipt applies the consensus step
//     x_i ← x_i − αρ (d_im+d_mi)/(2 p_im) (x_i − x_m),
//     so that rarely-pulled neighbors get proportionally larger weight,
//  4. folds the measured iteration time into its EMA time vector, which the
//     Network Monitor collects every Ts seconds to regenerate (P, ρ).
package core

import (
	"math/rand"

	"netmax/internal/engine"
	"netmax/internal/monitor"
	"netmax/internal/policy"
)

// Options tunes NetMax beyond the engine Config. Every value is used as
// given: scenario.Resolved is where the defaults are decided.
type Options struct {
	// Ts is the Network Monitor schedule period in virtual seconds; it
	// must be positive (paper: 120s).
	Ts float64
	// Beta is the EMA smoothing factor β of Algorithm 2, in (0, 1) (the
	// paper suggests adapting it to network dynamics).
	Beta float64
	// PolicyRounds sets Algorithm 3's K and R grids (zero selects
	// policy.DefaultRounds).
	PolicyRounds int
	// UniformPolicy disables the adaptive policy (the "uniform" arm of the
	// Fig. 7 ablation): the monitor still runs but its output is ignored.
	UniformPolicy bool
	// FixedBlend, when true, replaces the 1/p_im-scaled consensus weight
	// with plain averaging (coefficient 1/2). Combined with an active
	// monitor this is exactly the AD-PSGD+Monitor extension of
	// Section III-D / Fig. 15.
	FixedBlend bool
	// StalePeriods enables the Network Monitor's liveness tracking: a
	// worker silent for this many monitor periods is evicted and policies
	// regenerate over the live subgraph (see monitor.Config.StalePeriods).
	// Zero disables eviction — the right setting for failure-free runs,
	// where it keeps trajectories bitwise identical to historical ones.
	StalePeriods int
}

// DefaultBeta is the EMA smoothing factor β of Algorithm 2's per-link time
// vector when a manifest sets none.
const DefaultBeta = 0.5

// Peer is one worker's side of Algorithm 2: its row of the communication
// policy, the consensus step size ρ and its EMA time vector T_i. Both
// runtimes keep one per worker; a Peer is used only by its own worker.
type Peer struct {
	id      int
	adj     [][]bool
	alpha   float64
	beta    float64
	uniform []float64 // fallback for a row that pins this worker to itself
	row     []float64
	rho     float64
	ema     []float64
}

// NewPeers returns one Peer per worker of adj, each on the uniform policy
// with the initial ρ = 1/(8α·deg_max): a quarter of the feasibility cap
// 1/(2α·deg_max), giving an initial uniform blend coefficient αρ·deg = 1/8.
func NewPeers(adj [][]bool, alpha, beta float64) []*Peer {
	rho := 1 / (8 * alpha * float64(max(policy.MaxDegree(adj), 1)))
	uniform := policy.Uniform(adj)
	peers := make([]*Peer, len(adj))
	for i := range peers {
		peers[i] = &Peer{id: i, adj: adj, alpha: alpha, beta: beta,
			uniform: uniform[i], row: uniform[i], rho: rho, ema: make([]float64, len(adj))}
	}
	return peers
}

// Adopt installs a new policy (P, ρ). A row with no peer mass — the row
// GenerateLive pins onto workers presumed dead — is replaced by the
// uniform row: the row is read only by its own worker, which is alive
// whenever it reads it, and staying silent would mean never pulling,
// never reporting and never being re-admitted. Select and Coef both read
// the fallback, so the worker never pulls a model only to blend it with
// coefficient zero. P is shared between workers and is not written.
// Failure-free policies always carry peer mass (the Eq. 11 floors), so
// the fallback cannot fire without churn.
func (p *Peer) Adopt(P [][]float64, rho float64) {
	p.row = P[p.id]
	if policy.SelfOnly(p.row, p.id) {
		p.row = p.uniform
	}
	p.rho = rho
}

// Row returns the policy row the worker currently samples from.
func (p *Peer) Row() []float64 { return p.row }

// Select samples neighbor m with probability p_im (Algorithm 2 line 9);
// p_ii mass means "no pull this iteration". Masked peers are skipped and
// the row's remaining mass renormalized (see policy.SampleMasked).
func (p *Peer) Select(masked []bool, rng *rand.Rand) int {
	return policy.SampleMasked(p.row, p.id, masked, rng)
}

// Coef implements Algorithm 2 lines 13-14: the model pulled from j enters
// with coefficient αρ(d_ij+d_ji)/(2 p_ij), clamped to (0, 1] for safety
// when the EMA times and the policy briefly disagree.
func (p *Peer) Coef(j int) float64 {
	d := 0.0
	if p.adj[p.id][j] {
		d++
	}
	if p.adj[j][p.id] {
		d++
	}
	pij := p.row[j]
	if pij <= 0 {
		return 0
	}
	c := p.alpha * p.rho * d / (2 * pij)
	if c > 1 {
		c = 1
	}
	return c
}

// UpdateTime folds a measured iteration time with peer j into the EMA time
// vector (Algorithm 2 UPDATETIMEVECTOR) and returns the smoothed time the
// worker reports to the Network Monitor.
func (p *Peer) UpdateTime(j int, secs float64) float64 {
	if p.ema[j] == 0 {
		p.ema[j] = secs
	} else {
		p.ema[j] = p.beta*p.ema[j] + (1-p.beta)*secs
	}
	return p.ema[j]
}

// behavior implements engine.AsyncBehavior for NetMax.
type behavior struct {
	opts  Options
	peers []*Peer
	mon   *monitor.Monitor

	// mask marks peers known dead through membership events; masked peers
	// are skipped in selection (their row mass renormalized away) until
	// the monitor regenerates a policy over the live subgraph or the peer
	// rejoins. Nil until the first membership event, which keeps the
	// failure-free sampling path bitwise identical to the historical one.
	mask []bool
}

func newBehavior(cfg *engine.Config, opts Options) *behavior {
	adj := cfg.Net.Topo.Adj
	return &behavior{
		opts:  opts,
		peers: NewPeers(adj, cfg.LR, opts.Beta),
		mon: monitor.New(monitor.Config{
			Adj:            adj,
			Alpha:          cfg.LR,
			Period:         opts.Ts,
			PolicyRounds:   opts.PolicyRounds,
			AveragingBlend: opts.FixedBlend,
			StalePeriods:   opts.StalePeriods,
		}),
	}
}

// SelectPeer samples worker i's neighbor from its policy row, skipping
// peers masked by membership events until the monitor regenerates.
func (b *behavior) SelectPeer(i int, now float64, rng *rand.Rand) int {
	return b.peers[i].Select(b.mask, rng)
}

// OnMembership masks crashed peers out of selection immediately and feeds
// the membership to the monitor, which forces a policy regeneration over
// the live subgraph at the next Tick (the row LPs re-solve on every
// membership change).
func (b *behavior) OnMembership(alive []bool, now float64) {
	if b.mask == nil {
		b.mask = make([]bool, len(alive))
	}
	for i, a := range alive {
		b.mask[i] = !a
	}
	b.mon.SetLiveness(alive, now)
}

// BlendCoef is worker i's Peer.Coef, or AD-PSGD's fixed 1/2 under
// FixedBlend.
func (b *behavior) BlendCoef(i, j int) float64 {
	if b.opts.FixedBlend {
		return 0.5
	}
	return b.peers[i].Coef(j)
}

// OnIterationEnd folds the measured iteration time into the worker's EMA
// time vector and reports the smoothed time to the monitor.
func (b *behavior) OnIterationEnd(i, j int, iterSecs, now float64) {
	if i == j {
		return
	}
	b.mon.ObserveAt(i, j, b.peers[i].UpdateTime(j, iterSecs), now)
}

// Symmetric reports whether the blend applies to both endpoints: NetMax's
// Algorithm 2 is a one-sided pull, but the AD-PSGD+Monitor extension keeps
// AD-PSGD's two-sided atomic averaging.
func (b *behavior) Symmetric() bool { return b.opts.FixedBlend }

// Tick runs the Network Monitor's periodic policy regeneration and hands
// the new policy to every worker.
func (b *behavior) Tick(now float64) {
	pol, ok := b.mon.MaybeRegenerate(now)
	if !ok || b.opts.UniformPolicy {
		return
	}
	for _, p := range b.peers {
		p.Adopt(pol.P, pol.Rho)
	}
}

// Run trains with NetMax under cfg and returns the aggregated result.
func Run(cfg *engine.Config, opts Options) *engine.Result {
	return engine.RunAsync(cfg, newBehavior(cfg, opts), "NetMax")
}

// RunADPSGDMonitor trains with the Section III-D extension: adaptive policy
// from the Network Monitor, but AD-PSGD's fixed averaging weight.
func RunADPSGDMonitor(cfg *engine.Config, opts Options) *engine.Result {
	opts.FixedBlend = true
	return engine.RunAsync(cfg, newBehavior(cfg, opts), "AD-PSGD+Monitor")
}
