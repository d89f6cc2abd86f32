package simnet

import (
	"math"
	"math/rand"
	"testing"
)

// The eager oracle: NewHeterogeneousPeriod and NewShuffledRates as they were
// before schedules were generated on demand. Both build every period up to
// the horizon at construction; the lazy networks must reproduce their
// entries and rates bit for bit.

type eagerSlowdown struct {
	Start  float64
	A, B   int
	Factor float64
}

type eagerShuffle struct {
	Start float64
	Fast  map[[2]int]bool
}

type eagerNetwork struct {
	topo                 *Topology
	intraRate, interRate float64
	schedule             []eagerSlowdown
	shuffles             []eagerShuffle
}

func eagerHeterogeneous(topo *Topology, seed int64, horizon, period float64) *eagerNetwork {
	n := &eagerNetwork{topo: topo, intraRate: DefaultIntraRate, interRate: DefaultInterRate}
	rng := rand.New(rand.NewSource(seed))
	for t := 0.0; t < horizon; t += period {
		a := rng.Intn(topo.M)
		b := rng.Intn(topo.M - 1)
		if b >= a {
			b++
		}
		factor := 2 + rng.Float64()*98
		n.schedule = append(n.schedule, eagerSlowdown{Start: t, A: a, B: b, Factor: factor})
	}
	return n
}

func eagerShuffled(topo *Topology, seed int64, horizon, period float64) *eagerNetwork {
	n := &eagerNetwork{topo: topo, intraRate: DefaultIntraRate, interRate: DefaultInterRate / 8}
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]int
	for i := 0; i < topo.M; i++ {
		for j := i + 1; j < topo.M; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	for t := 0.0; t < horizon; t += period {
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		fast := make(map[[2]int]bool, len(pairs))
		for _, p := range pairs[len(pairs)/3:] {
			fast[p] = true
		}
		n.shuffles = append(n.shuffles, eagerShuffle{Start: t, Fast: fast})
	}
	return n
}

func (n *eagerNetwork) rate(i, j int, now float64) float64 {
	if i == j {
		return 0
	}
	lo, hi := 0, len(n.shuffles)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.shuffles[mid].Start <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		key := [2]int{i, j}
		if j < i {
			key = [2]int{j, i}
		}
		if n.shuffles[lo-1].Fast[key] {
			return n.intraRate
		}
		return n.interRate
	}
	rate := n.interRate
	if n.topo.Machine[i] == n.topo.Machine[j] {
		rate = n.intraRate
	}
	lo, hi = 0, len(n.schedule)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.schedule[mid].Start <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		s := n.schedule[lo-1]
		if (s.A == i && s.B == j) || (s.A == j && s.B == i) {
			rate /= s.Factor
		}
	}
	return rate
}

// starts returns the oracle's period start times.
func (n *eagerNetwork) starts() []float64 {
	var out []float64
	for _, s := range n.schedule {
		out = append(out, s.Start)
	}
	for _, s := range n.shuffles {
		out = append(out, s.Start)
	}
	return out
}

// checkBuiltEntries fails unless every entry lazy has built from index
// from on equals the oracle's entry at the same index bit for bit.
func checkBuiltEntries(t *testing.T, lazy *Network, eager *eagerNetwork, shuffled bool, from int) {
	t.Helper()
	m := lazy.Topo.M
	for k := from; k < len(lazy.schedule); k++ {
		e := lazy.schedule[k]
		if shuffled {
			want := eager.shuffles[k]
			if math.Float64bits(e.Start) != math.Float64bits(want.Start) {
				t.Fatalf("shuffle %d starts at %v, oracle %v", k, e.Start, want.Start)
			}
			if len(e.Fast) != m*m {
				t.Fatalf("shuffle %d has %d fast flags, want %d", k, len(e.Fast), m*m)
			}
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					key := [2]int{min(i, j), max(i, j)}
					if e.Fast[i*m+j] != (i != j && want.Fast[key]) {
						t.Fatalf("shuffle %d: pair %d-%d fast=%v, oracle %v", k, i, j, e.Fast[i*m+j], want.Fast[key])
					}
				}
			}
			continue
		}
		want := eager.schedule[k]
		if math.Float64bits(e.Start) != math.Float64bits(want.Start) || e.A != want.A || e.B != want.B ||
			math.Float64bits(e.Factor) != math.Float64bits(want.Factor) || e.Fast != nil {
			t.Fatalf("slowdown %d = %+v, oracle %+v", k, e, want)
		}
	}
}

// FuzzLazyScheduleMatchesEager queries a lazily built network at a fuzzed
// sequence of times (out of order, on period boundaries, just before them,
// before 0 and past the horizon) and checks after every query that the
// entries built so far are exactly the oracle's entries starting at or
// before the latest time queried, and that every link's rate equals the
// oracle's bit for bit.
//
// Inputs are decoded so every case stays small: M is 2..16 workers, the
// period 0.01..50 s, the horizon 0..1024 periods, and each query is two
// bytes of the query string (at most 64 queries).
func FuzzLazyScheduleMatchesEager(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, periodRaw, horizonRaw uint16, mRaw uint8, shuffled bool, queries []byte) {
		m := 2 + int(mRaw%15)
		period := float64(periodRaw%5000+1) / 100
		horizon := float64(horizonRaw%4096) * period / 4
		topo := PaperCluster(m)
		var lazy *Network
		var eager *eagerNetwork
		if shuffled {
			lazy, eager = NewShuffledRates(topo, seed, horizon, period), eagerShuffled(topo, seed, horizon, period)
		} else {
			lazy, eager = NewHeterogeneousPeriod(topo, seed, horizon, period), eagerHeterogeneous(topo, seed, horizon, period)
		}
		if len(queries) > 128 {
			queries = queries[:128]
		}
		var times []float64
		for q := 0; q+1 < len(queries); q += 2 {
			v := int(queries[q])<<8 | int(queries[q+1])
			k := v & 0x3fff
			switch v >> 14 {
			case 0: // exactly k periods, as a product
				times = append(times, float64(k%1100)*period)
			case 1: // the k-th period's accumulated start
				s := 0.0
				for c := 0; c < k%1100; c++ {
					s += period
				}
				times = append(times, s)
			case 2: // just before k periods
				times = append(times, math.Nextafter(float64(k%1100)*period, math.Inf(-1)))
			case 3: // an arbitrary fraction of a period, from one period before 0
				times = append(times, float64(k)*period/37-period)
			}
		}
		// Every case ends past the horizon and then goes back in time, so
		// the whole schedule is compared.
		times = append(times, horizon, horizon+period, period, 0)

		starts := eager.starts()
		latest := math.Inf(-1)
		checked := 0
		for _, now := range times {
			rates := make([]float64, 0, m*m)
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					rates = append(rates, lazy.Rate(i, j, now))
				}
			}
			if now > latest {
				latest = now
			}
			want := 0
			for want < len(starts) && starts[want] <= latest {
				want++
			}
			if got := lazy.SlowdownCount(); got != want {
				t.Fatalf("after querying %v (latest %v): %d entries built, want the %d starting at or before it", now, latest, got, want)
			}
			checkBuiltEntries(t, lazy, eager, shuffled, checked)
			checked = want
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					if got, want := rates[i*m+j], eager.rate(i, j, now); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("Rate(%d, %d, %v) = %v, oracle %v", i, j, now, got, want)
					}
				}
			}
		}
		// Building later periods must leave the earlier ones untouched.
		checkBuiltEntries(t, lazy, eager, shuffled, 0)
	})
}
