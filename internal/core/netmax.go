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

// Options tunes NetMax beyond the engine Config.
type Options struct {
	// Ts is the Network Monitor schedule period in virtual seconds
	// (paper: 120s).
	Ts float64
	// Beta is the EMA smoothing factor β of Algorithm 2 (paper suggests
	// adapting it to network dynamics; default 0.5).
	Beta float64
	// PolicyRounds sets Algorithm 3's K and R grids (default 10).
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

func (o *Options) defaults() {
	if o.Ts <= 0 {
		o.Ts = 120
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		o.Beta = 0.5
	}
	if o.PolicyRounds <= 0 {
		o.PolicyRounds = 10
	}
}

// behavior implements engine.AsyncBehavior for NetMax.
type behavior struct {
	opts  Options
	adj   [][]bool
	alpha float64
	mon   *monitor.Monitor

	p       [][]float64 // current policy matrix
	uniform [][]float64 // fallback rows for re-admitted workers
	rho     float64
	ema     [][]float64 // worker-side EMA time vectors T_i

	// mask marks peers known dead through membership events; masked peers
	// are skipped in selection (their row mass renormalized away) until
	// the monitor regenerates a policy over the live subgraph or the peer
	// rejoins. Nil until the first membership event, which keeps the
	// failure-free sampling path bitwise identical to the historical one.
	mask []bool
}

func newBehavior(cfg *engine.Config, opts Options) *behavior {
	opts.defaults()
	adj := cfg.Net.Topo.Adj
	m := len(adj)
	b := &behavior{
		opts:    opts,
		adj:     adj,
		alpha:   cfg.LR,
		p:       policy.Uniform(adj),
		uniform: policy.Uniform(adj),
		ema:     make([][]float64, m),
	}
	for i := range b.ema {
		b.ema[i] = make([]float64, m)
	}
	// Initial ρ: quarter of the feasibility cap 1/(2α·deg_max), giving an
	// initial uniform blend coefficient αρ·deg = 1/8.
	maxDeg := 0
	for i := range adj {
		deg := 0
		for j, ok := range adj[i] {
			if ok && j != i {
				deg++
			}
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	if maxDeg == 0 {
		maxDeg = 1
	}
	b.rho = 1 / (8 * cfg.LR * float64(maxDeg))
	b.mon = monitor.New(monitor.Config{
		Adj:            adj,
		Alpha:          cfg.LR,
		Period:         opts.Ts,
		OuterRounds:    opts.PolicyRounds,
		InnerRounds:    opts.PolicyRounds,
		AveragingBlend: opts.FixedBlend,
		StalePeriods:   opts.StalePeriods,
	})
	return b
}

// SelectPeer samples neighbor m with probability p[i][m] (Algorithm 2
// line 9); p[i][i] mass means "no pull this iteration". Peers masked by
// membership events are skipped until the monitor regenerates the policy.
//
// If worker i's own row carries no peer mass — the row GenerateLive pins
// onto workers presumed dead — the worker is by construction alive (the
// engine only runs live workers' events), so the row is repaired to the
// uniform one in place: staying silent would mean never reporting and
// never being re-admitted. Repairing b.p (rather than substituting only
// here) matters because BlendCoef reads the same row — a fallback that
// sampled from uniform but left p_ij = 0 would pull models and blend them
// with coefficient zero, paying bandwidth for nothing. Failure-free
// policies always carry peer mass (the Eq. 11 floors), so this path
// cannot fire without churn.
func (b *behavior) SelectPeer(i int, now float64, rng *rand.Rand) int {
	if policy.SelfOnly(b.p[i], i) {
		b.p[i] = b.uniform[i]
	}
	return policy.SampleMasked(b.p[i], i, b.mask, rng)
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

// BlendCoef implements Algorithm 2 lines 13-14: the pulled model enters with
// coefficient αρ(d_im+d_mi)/(2 p_im), clamped to (0, 1] for safety when the
// live EMA and the policy briefly disagree.
func (b *behavior) BlendCoef(i, j int) float64 {
	if b.opts.FixedBlend {
		return 0.5
	}
	d := 0.0
	if b.adj[i][j] {
		d++
	}
	if b.adj[j][i] {
		d++
	}
	pij := b.p[i][j]
	if pij <= 0 {
		return 0
	}
	c := b.alpha * b.rho * d / (2 * pij)
	if c > 1 {
		c = 1
	}
	return c
}

// OnIterationEnd folds the measured iteration time into the worker's EMA
// time vector (Algorithm 2 UPDATETIMEVECTOR) and reports it to the monitor.
func (b *behavior) OnIterationEnd(i, j int, iterSecs, now float64) {
	if i == j {
		return
	}
	if b.ema[i][j] == 0 {
		b.ema[i][j] = iterSecs
	} else {
		b.ema[i][j] = b.opts.Beta*b.ema[i][j] + (1-b.opts.Beta)*iterSecs
	}
	b.mon.ObserveAt(i, j, b.ema[i][j], now)
}

// Symmetric reports whether the blend applies to both endpoints: NetMax's
// Algorithm 2 is a one-sided pull, but the AD-PSGD+Monitor extension keeps
// AD-PSGD's two-sided atomic averaging.
func (b *behavior) Symmetric() bool { return b.opts.FixedBlend }

// Tick runs the Network Monitor's periodic policy regeneration.
func (b *behavior) Tick(now float64) {
	pol, ok := b.mon.MaybeRegenerate(now)
	if !ok || b.opts.UniformPolicy {
		return
	}
	b.p = pol.P
	b.rho = pol.Rho
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

// Monitor exposes the behavior's monitor for observability in tests.
func (b *behavior) Monitor() *monitor.Monitor { return b.mon }
