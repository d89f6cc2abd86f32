// Package engine runs decentralized training algorithms on a virtual clock.
//
// The paper evaluates on a real cluster; here every algorithm is executed as
// a deterministic discrete-event simulation: worker iterations are events on
// a priority queue ordered by virtual completion time, and all timing comes
// from internal/simnet. The gradient work is real (internal/nn on the
// synthetic datasets), so loss curves are genuine SGD trajectories — only
// the clock is simulated.
package engine

import (
	"container/heap"
	"math/rand"

	"netmax/internal/autograd"
	"netmax/internal/codec"
	"netmax/internal/data"
	"netmax/internal/nn"
	"netmax/internal/simnet"
	"netmax/internal/tensor"
)

// backward runs reverse-mode autodiff on a scalar loss.
func backward(v *autograd.Value) { autograd.Backward(v) }

// Config describes one training run.
type Config struct {
	Spec nn.ModelSpec
	// Part provides each worker's shard; Part.Segments scales batch sizes
	// under the paper's non-uniform setting (batch = Batch x segments).
	Part *data.Partition
	// Eval is the dataset used for the global-loss curve (a train subset).
	Eval *data.Dataset
	// Test is used for final accuracy.
	Test *data.Dataset
	Net  *simnet.Network
	// LR is the SGD learning rate α (paper default 0.1).
	LR float64
	// Batch is the per-segment batch size (paper: 128 uniform, 64 per
	// segment in Section V-F, 32 non-IID).
	Batch int
	// Epochs is the number of passes over the union of shards.
	Epochs int
	// Seed controls model init and all stochastic choices.
	Seed int64
	// Overlap enables the compute/communication overlap of Algorithm 2
	// (true everywhere except the fig7 serial ablation).
	Overlap bool
	// LRDecayEpoch, if positive, divides the learning rate by 10 once that
	// epoch completes (the paper's step decay).
	LRDecayEpoch int
	// ComputeScale, if non-nil, multiplies worker i's gradient-computation
	// time by ComputeScale[i] — compute heterogeneity (stragglers), the
	// resource dimension the paper's related work (Prague, Hop) targets.
	// Nil means every worker computes at the model's nominal speed.
	ComputeScale []float64
	// Parallelism bounds how many workers' gradient computations run
	// concurrently on the host when their virtual-clock events are
	// independent: 0 defers to DefaultParallelism (and ultimately NumCPU),
	// 1 reproduces the historical serial loop, n > 1 allows n concurrent
	// steps. Every setting produces bitwise-identical results — parallel
	// stepping only reorders host work, never virtual-clock arithmetic.
	Parallelism int
	// Codec, when non-nil, makes the asynchronous pull loop
	// compression-aware: pulled model snapshots round-trip through the
	// codec (so quantization/sparsification loss shows up in the training
	// trajectory) and the simnet bandwidth model is charged the codec's
	// encoded size for the paper model instead of the dense
	// Spec.ModelBytes. Nil reproduces the uncompressed simulation exactly.
	Codec codec.Codec
	// Failures, when non-nil and non-empty, injects the schedule's churn
	// into the asynchronous loop: crashed/hung workers stop iterating
	// (in-flight iterations are discarded), pulls at unresponsive peers or
	// blacked-out links fail after the schedule's detection deadline, and
	// crash/leave/rejoin boundaries are emitted as membership events to
	// behaviors implementing MembershipAware. A nil or empty schedule
	// reproduces the failure-free trajectory bitwise.
	Failures *simnet.FailureSchedule
}

// WireBytes returns the per-pull traffic the bandwidth model charges: the
// codec's encoded size for the paper model when a codec is configured,
// otherwise the dense Spec.ModelBytes.
func (c *Config) WireBytes() int64 {
	if c.Codec != nil {
		return c.Codec.WireBytes(int(c.Spec.RealParams))
	}
	return c.Spec.ModelBytes()
}

// EffectiveParallelism resolves the config's Parallelism setting.
func (c *Config) EffectiveParallelism() int { return ResolveParallelism(c.Parallelism) }

// ComputeSecs returns worker i's per-iteration gradient time under the
// configured compute heterogeneity.
func (c *Config) ComputeSecs(i int) float64 {
	s := c.Spec.ComputeSecs
	if c.ComputeScale != nil {
		s *= c.ComputeScale[i]
	}
	return s
}

// MaxComputeSecs returns the slowest worker's gradient time: the round
// compute cost of barrier-synchronized algorithms.
func (c *Config) MaxComputeSecs() float64 {
	if c.ComputeScale == nil {
		return c.Spec.ComputeSecs
	}
	maxScale := 0.0
	for _, s := range c.ComputeScale {
		if s > maxScale {
			maxScale = s
		}
	}
	if maxScale < 1e-12 {
		return c.Spec.ComputeSecs
	}
	return c.Spec.ComputeSecs * maxScale
}

// Workers instantiates the worker pool: identical initial models (same
// seed), per-worker RNG streams, shard-proportional batch sizes.
func (c *Config) Workers() []*Worker {
	m := len(c.Part.Shards)
	ws := make([]*Worker, m)
	dim := c.Part.Shards[0].Dim()
	classes := c.Part.Shards[0].Classes
	for i := 0; i < m; i++ {
		batch := c.Batch * c.Part.Segments[i]
		if batch > c.Part.Shards[i].Len() {
			batch = c.Part.Shards[i].Len()
		}
		ws[i] = &Worker{
			ID:    i,
			Model: c.Spec.Build(c.Seed, dim, classes),
			Opt:   nn.NewSGD(c.LR),
			Shard: c.Part.Shards[i],
			Batch: batch,
			Rng:   rand.New(rand.NewSource(c.Seed*1000 + int64(i))),
		}
	}
	return ws
}

// Worker is one training replica.
type Worker struct {
	ID     int
	Model  *nn.Model
	Opt    *nn.SGD
	Shard  *data.Dataset
	Batch  int
	Rng    *rand.Rand
	cursor int
}

// NextBatch returns the worker's next training batch and advances its
// cursor. Split out from GradStep so batch selection (which must follow the
// deterministic event order) can be separated from gradient computation
// (which may run concurrently with other workers').
func (w *Worker) NextBatch() (x *tensor.Tensor, labels []int) {
	x, labels = w.Shard.Batch(w.cursor, w.Batch)
	w.cursor = (w.cursor + w.Batch) % w.Shard.Len()
	return x, labels
}

// ComputeGrad runs forward+backward on (x, labels), leaving the gradients in
// the model's Grad buffers, and returns the batch loss. It touches only this
// worker's replica, so distinct workers' ComputeGrad calls are safe to run
// concurrently.
func (w *Worker) ComputeGrad(x *tensor.Tensor, labels []int) float64 {
	w.Model.ZeroGrad()
	l := w.Model.Loss(x, labels)
	backward(l)
	return l.Item()
}

// ApplyStep applies the optimizer to the gradients left by ComputeGrad
// (Algorithm 2 line 11: first update).
func (w *Worker) ApplyStep() { w.Opt.Step(w.Model) }

// GradStep runs one local SGD step (Algorithm 2 line 11: first update) on
// the worker's next batch and returns the batch loss and sample count.
func (w *Worker) GradStep() (loss float64, samples int) {
	x, labels := w.NextBatch()
	loss = w.ComputeGrad(x, labels)
	w.ApplyStep()
	return loss, w.Batch
}

// GradOnly computes gradients on the worker's next batch without applying
// them (they remain in the model's Grad buffers), for algorithms that
// average gradients across workers before stepping (Allreduce-SGD, PS-syn).
func (w *Worker) GradOnly() (loss float64, samples int) {
	x, labels := w.NextBatch()
	return w.ComputeGrad(x, labels), w.Batch
}

// ApplyGrad runs the worker's optimizer against the gradient vector g
// instead of the locally computed one.
func (w *Worker) ApplyGrad(g []float64) {
	w.Model.SetGradVector(g)
	w.Opt.Step(w.Model)
}

// Point is one sample of a training curve.
type Point struct {
	Time  float64 // virtual seconds since training start
	Epoch float64 // fractional epochs completed
	Value float64 // metric (loss or accuracy)
}

// Result aggregates everything the evaluation figures need from one run.
type Result struct {
	Algo string
	// Loss curve sampled at (fractional) epoch boundaries.
	Curve []Point
	// FinalLoss is the last curve value.
	FinalLoss float64
	// FinalAccuracy on the held-out test set, of the averaged model.
	FinalAccuracy float64
	// TotalTime is the virtual wall-clock of the full run.
	TotalTime float64
	// GlobalSteps counts worker iterations across the cluster.
	GlobalSteps int
	// CompSecs and CommSecs decompose worker busy time per Section V-B:
	// per iteration, computation contributes C and communication the
	// non-overlapped remainder (max(0, N-C) when overlapped, N serial).
	CompSecs, CommSecs float64
	// BytesSent is the total traffic the algorithm put on the network.
	BytesSent int64
	// Epochs actually completed.
	Epochs int
}

// AvgEpochTime returns TotalTime / Epochs.
func (r *Result) AvgEpochTime() float64 {
	if r.Epochs == 0 {
		return 0
	}
	return r.TotalTime / float64(r.Epochs)
}

// CompCostPerEpoch and CommCostPerEpoch are the Fig. 5/6 bar components:
// average per-worker-epoch time attributable to computation/communication.
func (r *Result) CompCostPerEpoch(workers int) float64 {
	if r.Epochs == 0 || workers == 0 {
		return 0
	}
	return r.CompSecs / float64(r.Epochs) / float64(workers)
}

// CommCostPerEpoch is the communication counterpart of CompCostPerEpoch.
func (r *Result) CommCostPerEpoch(workers int) float64 {
	if r.Epochs == 0 || workers == 0 {
		return 0
	}
	return r.CommSecs / float64(r.Epochs) / float64(workers)
}

// TimeToLoss returns the earliest virtual time at which the loss curve
// reaches target, or -1 if it never does.
func (r *Result) TimeToLoss(target float64) float64 {
	for _, p := range r.Curve {
		if p.Value <= target {
			return p.Time
		}
	}
	return -1
}

// EpochToLoss returns the earliest epoch at which the loss curve reaches
// target, or -1 if it never does.
func (r *Result) EpochToLoss(target float64) float64 {
	for _, p := range r.Curve {
		if p.Value <= target {
			return p.Epoch
		}
	}
	return -1
}

// AverageModel returns a model holding the elementwise mean of all worker
// parameter vectors — the consensus model the paper evaluates.
func AverageModel(cfg *Config, ws []*Worker) *nn.Model {
	avg := make([]float64, ws[0].Model.VectorLen())
	tmp := make([]float64, len(avg))
	for _, w := range ws {
		w.Model.CopyVector(tmp)
		for i := range avg {
			avg[i] += tmp[i]
		}
	}
	for i := range avg {
		avg[i] /= float64(len(ws))
	}
	m := cfg.Spec.Build(cfg.Seed, cfg.Part.Shards[0].Dim(), cfg.Part.Shards[0].Classes)
	m.SetVector(avg)
	return m
}

// Tracker accumulates per-iteration bookkeeping shared by all algorithm
// runners: epoch detection, loss sampling, cost decomposition.
type Tracker struct {
	cfg        *Config
	ws         []*Worker
	totalTrain int
	samples    int
	epochsDone int
	res        *Result
	evalX      *tensor.Tensor
	evalLabels []int
}

// NewTracker builds a tracker. The loss curve is evaluated on cfg.Eval.
func NewTracker(cfg *Config, ws []*Worker, algo string) *Tracker {
	total := 0
	for _, s := range cfg.Part.Shards {
		total += s.Len()
	}
	t := &Tracker{cfg: cfg, ws: ws, totalTrain: total, res: &Result{Algo: algo}}
	t.evalX, t.evalLabels = cfg.Eval.Batch(0, cfg.Eval.Len())
	return t
}

// OnIteration records one worker iteration that ended at virtual time now.
func (t *Tracker) OnIteration(now float64, samples int, compSecs, commSecs float64) {
	t.samples += samples
	t.res.GlobalSteps++
	t.res.CompSecs += compSecs
	t.res.CommSecs += commSecs
	if now > t.res.TotalTime {
		t.res.TotalTime = now
	}
	for t.samples >= (t.epochsDone+1)*t.totalTrain {
		t.epochsDone++
		t.recordPoint(now)
		if t.cfg.LRDecayEpoch > 0 && t.epochsDone == t.cfg.LRDecayEpoch {
			for _, w := range t.ws {
				w.Opt.DecayLR(0.1)
			}
		}
	}
}

// AddBytes records network traffic attributable to the run.
func (t *Tracker) AddBytes(n int64) { t.res.BytesSent += n }

// Done reports whether the configured number of epochs has completed.
func (t *Tracker) Done() bool { return t.epochsDone >= t.cfg.Epochs }

func (t *Tracker) recordPoint(now float64) {
	avg := AverageModel(t.cfg, t.ws)
	loss := avg.Loss(t.evalX, t.evalLabels).Item()
	t.res.Curve = append(t.res.Curve, Point{Time: now, Epoch: float64(t.epochsDone), Value: loss})
}

// Finish computes final metrics and returns the result.
func (t *Tracker) Finish() *Result {
	t.res.Epochs = t.epochsDone
	if n := len(t.res.Curve); n > 0 {
		t.res.FinalLoss = t.res.Curve[n-1].Value
	}
	avg := AverageModel(t.cfg, t.ws)
	x, labels := t.cfg.Test.Batch(0, t.cfg.Test.Len())
	t.res.FinalAccuracy = avg.Accuracy(x, labels)
	return t.res
}

// event is one scheduled worker completion.
type event struct {
	time float64
	id   int
	seq  int // tiebreaker for determinism
}

// Queue is a deterministic min-heap of worker completion events.
type Queue struct {
	h   eventHeap
	seq int
}

// Push schedules worker id to complete at the given virtual time.
func (q *Queue) Push(time float64, id int) {
	q.seq++
	heap.Push(&q.h, event{time: time, id: id, seq: q.seq})
}

// Pop returns the earliest event.
func (q *Queue) Pop() (time float64, id int) {
	e := heap.Pop(&q.h).(event)
	return e.time, e.id
}

// PeekTime returns the earliest pending event's time without removing it;
// ok is false when the queue is empty.
func (q *Queue) PeekTime() (time float64, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].time, true
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.h.Len() }

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
